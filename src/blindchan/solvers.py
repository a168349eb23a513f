"""Channel estimators: cross-convolution, its subspace-constrained variant, and baselines.

All estimators are deterministic, scale/phase equivariant functions of their
inputs and return a unit-norm, phase-canonicalized stacked channel estimate.
A degenerate flag marks instances whose two smallest eigenvalues coincide
(the minimizer is not essentially unique, e.g. channels sharing common
zeros); the estimate is still returned.

Estimates degrade gracefully below L = 3K, down to L ~ K; L >= 3K is the
recommended regime.  The solvers report only through their return values and
never warn: the linearized baseline flags an ill-posed spectrum in
Estimate.ill_posed and Estimate.condition.

Observations ys are the M x L array of channel outputs (a list of M
equal-length vectors is also accepted), checked by xcorr._check_channels.
The subspace estimators take the model as its (M, K, D) basis array.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, DimensionError
from .models import apply_bases
from .sigops import as_signal
from .spectral import canonical_phase, eig_hermitian
from .xcorr import _check_channels, compressed_cross_corr, cross_corr_matrix, noise_gram_mean

@dataclass(frozen=True)
class Estimate:
    """Stacked channel estimate with solver diagnostics.

    h_hat has unit norm and canonical phase; u_hat holds the coefficient
    representation where the solver estimates one (sccc, oracle), else None.
    lambda_min and gap_ratio describe the eigenproblem actually solved.
    """

    h_hat: np.ndarray
    u_hat: np.ndarray | None
    lambda_min: float
    gap_ratio: float
    degenerate: bool
    condition: float | None = None
    ill_posed: bool = False


def _normalize(h):
    n = np.linalg.norm(h)
    if n == 0:
        raise ConfigurationError("estimator produced a zero vector")
    return canonical_phase(h / n)


def solve_cross_conv(ys, filter_len):
    """Classical estimator: smallest eigenvector of the cross-correlation Gram."""
    ys = _check_channels(ys, filter_len)
    eig = eig_hermitian(cross_corr_matrix(ys, filter_len))
    return Estimate(
        h_hat=_normalize(eig.vector), u_hat=None, lambda_min=eig.lambda_min,
        gap_ratio=eig.gap_ratio, degenerate=eig.degenerate,
    )


def solve_subspace_cross_conv(ys, bases, noise_var):
    """Subspace-constrained estimator with noise debias.

    Compresses the cross-correlation Gram by block congruence with the
    bases, built in the frequency domain at M*L*D memory (the MK x MK Gram
    is never formed), subtracts the expected noise Gram noise_var*(M-1)*L
    (applied as a shift of the diagonal blocks), and maps the smallest
    eigenvector back through the bases.  noise_var is an explicit input: it
    must be known or estimated deliberately (see estimate_noise_variance),
    never guessed silently.
    """
    M, K, D = bases.shape
    ys = _check_channels(ys, K, M)
    L = ys.shape[1]
    compressed = compressed_cross_corr(ys, bases)
    shift = noise_gram_mean(M, L, noise_var)
    if shift != 0:
        block = np.arange(M * D).reshape(M, D)
        grams = bases.conj().swapaxes(1, 2) @ bases
        compressed[block[:, :, None], block[:, None, :]] -= shift * grams
    eig = eig_hermitian(compressed)
    return Estimate(
        h_hat=_normalize(apply_bases(bases, eig.vector).reshape(-1)), u_hat=eig.vector,
        lambda_min=eig.lambda_min, gap_ratio=eig.gap_ratio, degenerate=eig.degenerate,
    )


def solve_oracle_ls(ys, x, bases):
    """Non-blind baseline: per-channel least squares with the source known exactly."""
    M, K, D = bases.shape
    ys = _check_channels(ys, K, M)
    x = as_signal(x)
    L = ys.shape[1]
    if len(x) != L:
        raise DimensionError(f"source length {len(x)} differs from signal length {L}")
    designs = np.fft.ifft(np.fft.fft(x)[:, None] * np.fft.fft(bases, n=L, axis=1), axis=1)
    u_hat = np.zeros((M, D), dtype=np.complex128)
    for m, design in enumerate(designs):
        u_hat[m], _, _, svals = np.linalg.lstsq(design, ys[m], rcond=None)
        if svals[-1] <= svals[0] * 1e-12:
            raise ConfigurationError(
                f"channel {m}: source/basis design matrix is rank deficient "
                f"(smallest singular value {svals[-1]:.3e})"
            )
    u_flat = u_hat.reshape(-1)
    return Estimate(
        h_hat=_normalize(apply_bases(bases, u_flat).reshape(-1)), u_hat=u_flat, lambda_min=0.0,
        gap_ratio=np.nan, degenerate=False,
    )


def solve_linearized_ls(ys, bases):
    """Linearized baseline: joint recovery of inverse source spectrum and channels.

    Reconstruction of the classical linearized formulation (the exact system
    is not pinned down by any single reference, so this is a documented
    faithful-comparison baseline, not this library's own method):  with s
    standing for the elementwise inverse of the source DFT, every channel
    must satisfy diag(yhat_m) s = Ghat_m u_m with Ghat_m the DFT of the
    zero-padded basis.  Eliminating the coefficients turns this into one
    homogeneous least-squares problem in s alone,

        minimize sum_m || (I - P_m) diag(yhat_m) s ||^2,  ||s|| = 1,

    with P_m the projector onto range(Ghat_m), solved by the smallest
    eigenvector of the assembled Gram.  Source and channels are then read
    out simultaneously from the calibration identity: hhat_m = yhat_m * s
    restricted to the filter support.  The diagnostic `condition` is the
    square-rooted dynamic range of the per-bin observed energy: large values
    mean part of the spectrum is unexcited and this linearization is
    ill-posed there.
    """
    M, K, _ = bases.shape
    ys = _check_channels(ys, K, M)
    L = ys.shape[1]
    yhat = np.fft.fft(ys, axis=1)

    magnitude = np.abs(yhat)
    ill_posed = bool(np.any(magnitude.min(axis=1) < 1e-12 * magnitude.max(axis=1)))

    bin_energy = (np.abs(yhat) ** 2).sum(axis=0)
    gram = np.zeros((L, L), dtype=np.complex128)
    gram[np.diag_indices(L)] = bin_energy
    for y_hat, basis_hat in zip(yhat, np.fft.fft(bases, n=L, axis=1)):
        w = np.conj(y_hat)[:, None] * np.linalg.qr(basis_hat)[0]
        gram -= w @ w.conj().T

    eig = eig_hermitian(gram)
    s = eig.vector
    filters = np.fft.ifft(yhat * s, axis=1)[:, :K]
    condition = float(np.sqrt(bin_energy.max() / bin_energy.min())) if bin_energy.min() > 0 else np.inf
    return Estimate(
        h_hat=_normalize(filters.reshape(-1)), u_hat=None,
        lambda_min=eig.lambda_min, gap_ratio=eig.gap_ratio, degenerate=eig.degenerate,
        condition=condition, ill_posed=ill_posed,
    )


def estimate_noise_variance(ys, fraction=0.1):
    """Noise variance from the lowest-energy spectral bins.

    Averages the per-bin energy sum(|yhat_m[k]|^2)/M over the quietest
    `fraction` of bins and divides by L.  Valid when the channel family
    leaves part of the spectrum essentially unexcited (band-pass families);
    with broadband channels it overestimates.  Callers must opt in: no
    solver invokes this silently.
    """
    ys = _check_channels(ys)
    M, L = ys.shape
    energy = (np.abs(np.fft.fft(ys, axis=1)) ** 2).sum(axis=0) / M
    n_keep = max(1, int(round(fraction * L)))
    quiet = np.sort(energy)[:n_keep]
    return float(np.mean(quiet) / L)
