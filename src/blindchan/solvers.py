"""Channel estimators: cross-convolution, its subspace-constrained variant, and baselines.

All estimators are deterministic, scale/phase equivariant functions of their
inputs and return a unit-norm, phase-canonicalized stacked channel estimate.
A degenerate flag marks instances whose two smallest eigenvalues coincide
(the minimizer is not essentially unique, e.g. channels sharing common
zeros); the estimate is still returned.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, DimensionError
from .sigops import as_signal
from .spectral import canonical_phase, eig_hermitian
from .xcorr import compressed_cross_corr, cross_corr_matrix, noise_gram_mean

#: Below length ratio L/K = 3 the estimators degrade; they are not disabled,
#: only flagged, since they degrade gracefully down to L ~ K.
RECOMMENDED_LENGTH_RATIO = 3


@dataclass(frozen=True)
class Estimate:
    """Stacked channel estimate with solver diagnostics.

    h_hat has unit norm and canonical phase; u_hat (when the solver works in
    a subspace) holds the coefficient representation.  lambda_min and
    gap_ratio describe the eigenproblem actually solved.
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


def _warn_short(signal_len, filter_len):
    if signal_len < RECOMMENDED_LENGTH_RATIO * filter_len:
        warnings.warn(
            f"L={signal_len} below the recommended {RECOMMENDED_LENGTH_RATIO}*K"
            f"={RECOMMENDED_LENGTH_RATIO * filter_len}; estimates degrade in this regime",
            RuntimeWarning,
            stacklevel=3,
        )


def solve_cross_conv(ys, filter_len):
    """Classical estimator: smallest eigenvector of the cross-correlation Gram."""
    ys = [as_signal(y) for y in ys]
    _warn_short(len(ys[0]), filter_len)
    eig = eig_hermitian(cross_corr_matrix(ys, filter_len))
    return Estimate(
        h_hat=_normalize(eig.vector), u_hat=None, lambda_min=eig.lambda_min,
        gap_ratio=eig.gap_ratio, degenerate=eig.degenerate,
    )


def solve_subspace_cross_conv(ys, model, noise_var):
    """Subspace-constrained estimator with noise debias.

    Compresses the cross-correlation Gram by block congruence with the model
    bases, built in the frequency domain at M*L*D memory (the MK x MK Gram
    is never formed), subtracts the expected noise Gram noise_var*(M-1)*L
    (applied as a shift of the diagonal blocks), and maps the smallest
    eigenvector back through the model.  noise_var is an explicit input: it
    must be known or estimated deliberately (see estimate_noise_variance),
    never guessed silently.
    """
    ys = [as_signal(y) for y in ys]
    M, K, D = model.bases.shape
    L = len(ys[0])
    _warn_short(L, K)
    compressed = compressed_cross_corr(ys, model.bases)
    shift = noise_gram_mean(M, L, noise_var)
    if shift != 0:
        for n in range(M):
            phi = model.bases[n]
            compressed[n * D : (n + 1) * D, n * D : (n + 1) * D] -= shift * (phi.conj().T @ phi)
    eig = eig_hermitian(compressed)
    return Estimate(
        h_hat=_normalize(model.apply(eig.vector)), u_hat=eig.vector, lambda_min=eig.lambda_min,
        gap_ratio=eig.gap_ratio, degenerate=eig.degenerate,
    )


def solve_oracle_ls(ys, x, model):
    """Non-blind baseline: per-channel least squares with the source known exactly."""
    ys = [as_signal(y) for y in ys]
    x = as_signal(x)
    M, K, D = model.bases.shape
    L = len(x)
    if L < K:
        raise DimensionError(f"filter length {K} exceeds signal length {L}")
    xhat = np.fft.fft(x)
    bases_hat = np.fft.fft(model.bases, n=L, axis=1)
    u_hat = np.zeros((M, D), dtype=np.complex128)
    for m in range(M):
        design = np.fft.ifft(xhat[:, None] * bases_hat[m], axis=0)
        svals = np.linalg.svd(design, compute_uv=False)
        if svals[-1] <= svals[0] * 1e-12:
            raise ConfigurationError(
                f"channel {m}: source/basis design matrix is rank deficient "
                f"(smallest singular value {svals[-1]:.3e})"
            )
        u_hat[m] = np.linalg.lstsq(design, ys[m], rcond=None)[0]
    u_flat = u_hat.reshape(-1)
    return Estimate(
        h_hat=_normalize(model.apply(u_flat)), u_hat=u_flat, lambda_min=0.0,
        gap_ratio=np.nan, degenerate=False,
    )


def solve_linearized_ls(ys, model):
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
    restricted to the filter support, coefficients by projecting onto the
    basis.  The diagnostic `condition` is the square-rooted dynamic range of
    the per-bin observed energy: large values mean part of the spectrum is
    unexcited and this linearization is ill-posed there.
    """
    ys = [as_signal(y) for y in ys]
    M, K, _ = model.bases.shape
    L = len(ys[0])
    if len(ys) != M:
        raise DimensionError(f"model has {M} channels but got {len(ys)} observations")
    if L < K:
        raise DimensionError(f"filter length {K} exceeds signal length {L}")
    yhat = np.array([np.fft.fft(y) for y in ys])

    ill_posed = any(
        np.min(np.abs(yhat[m])) < 1e-12 * np.max(np.abs(yhat[m])) for m in range(M)
    )
    if ill_posed:
        warnings.warn(
            "observed spectra contain near-zero bins; the linearized system is ill-posed",
            RuntimeWarning,
            stacklevel=2,
        )

    bin_energy = (np.abs(yhat) ** 2).sum(axis=0)
    gram = np.zeros((L, L), dtype=np.complex128)
    gram[np.diag_indices(L)] = bin_energy
    bases_hat = np.fft.fft(model.bases, n=L, axis=1)
    for m in range(M):
        q, _ = np.linalg.qr(bases_hat[m])
        w = np.conj(yhat[m])[:, None] * q
        gram -= w @ w.conj().T

    eig = eig_hermitian(gram)
    s = eig.vector
    filters = np.array([np.fft.ifft(yhat[m] * s)[:K] for m in range(M)])
    u_hat = np.array(
        [np.linalg.lstsq(bases_hat[m], yhat[m] * s, rcond=None)[0] for m in range(M)]
    )
    condition = float(np.sqrt(bin_energy.max() / bin_energy.min())) if bin_energy.min() > 0 else np.inf
    return Estimate(
        h_hat=_normalize(filters.reshape(-1)), u_hat=u_hat.reshape(-1),
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
    ys = [as_signal(y) for y in ys]
    M = len(ys)
    L = len(ys[0])
    energy = sum(np.abs(np.fft.fft(y)) ** 2 for y in ys) / M
    n_keep = max(1, int(round(fraction * L)))
    quiet = np.sort(energy)[:n_keep]
    return float(np.mean(quiet) / L)
