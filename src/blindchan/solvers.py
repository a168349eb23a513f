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
from .sigops import as_signal, convolve_short
from .spectral import DEGENERACY_RTOL, canonical_phase, eig_hermitian, hermitian_part_t
from .xcorr import _check_channels, compressed_cross_corr, cross_corr_matrix, noise_gram_mean

@dataclass(frozen=True)
class Estimate:
    """Stacked channel estimate with solver diagnostics.

    h_hat has unit norm and canonical phase; u_hat holds the coefficient
    representation where the solver estimates one (sccc, oracle), else None.
    lambda_min, gap_ratio (lambda_2 / lambda_max) and spectrum (all eigenvalues,
    descending; None for oracle and ls) describe the eigenproblem actually solved.
    Where a solver computes no lambda_2, gap_ratio is NaN: oracle solves no
    eigenproblem, and ls's structured solve only certifies that lambda_2 lies
    well above lambda_1 (its dense fallback reports NaN alike).
    """

    h_hat: np.ndarray
    u_hat: np.ndarray | None
    lambda_min: float
    gap_ratio: float
    degenerate: bool
    condition: float | None = None
    ill_posed: bool = False
    spectrum: np.ndarray | None = None


def _normalize(h):
    n = np.linalg.norm(h)
    if n == 0:
        raise ConfigurationError("estimator produced a zero vector")
    return canonical_phase(h / n)


def solve_cross_conv(ys, filter_len):
    """Classical estimator: smallest eigenvector of the cross-correlation Gram."""
    eig = eig_hermitian(cross_corr_matrix(ys, filter_len), overwrite_a=True)
    return Estimate(
        h_hat=_normalize(eig.vector), u_hat=None, lambda_min=eig.lambda_min,
        gap_ratio=eig.gap_ratio, degenerate=eig.degenerate, spectrum=eig.eigenvalues,
    )


def debiased_compressed_gram(ys, bases, noise_var):
    """The MD x MD matrix sccc eigendecomposes.

    The cross-correlation Gram compressed by block congruence with the
    bases, built by xcorr.compressed_cross_corr from the lags |l| < K of the
    pair correlations at DFT length min(L, 2K) (the MK x MK Gram is never
    formed), minus the compressed expected noise Gram
    noise_var*(M-1)*L*I: each diagonal block shifted by its basis Gram.  At
    noise_var = 0 it is the compressed Gram of clean outputs, the unperturbed
    side of spectral.davis_kahan_check.

    Returned as a Fortran-ordered complex128 array that is exactly
    Hermitian, so that spectral.eig_hermitian can take it with
    overwrite_a=True: the off-diagonal blocks come as conjugate pairs, and
    each shifted diagonal block is stored as its Hermitian part by
    spectral.hermitian_part_t, the bits eig_hermitian's copy would hold.
    """
    compressed = compressed_cross_corr(ys, bases)  # checks ys against the bases
    M, _, D = bases.shape
    # a C-ordered view of the Fortran-ordered matrix: g[m, q, n, p] is entry
    # (n D + p, m D + q), so g[n, :, n] holds diagonal block n transposed
    g = compressed.T.reshape(M, D, M, D)
    n = np.arange(M)
    diag = g[n, :, n]
    shift = noise_gram_mean(M, len(ys[0]), noise_var)
    if shift != 0:
        grams = bases.conj().swapaxes(1, 2) @ bases
        diag -= (shift * grams).swapaxes(1, 2)
    g[n, :, n] = hermitian_part_t(diag)
    return compressed


def solve_subspace_cross_conv(ys, bases, noise_var):
    """Subspace-constrained estimator with noise debias.

    The smallest eigenvector of debiased_compressed_gram, mapped back
    through the bases; the matrix is handed to the eigensolve without a
    copy.  noise_var is an explicit input: it must be known or estimated
    deliberately, never guessed silently.
    """
    eig = eig_hermitian(debiased_compressed_gram(ys, bases, noise_var), overwrite_a=True)
    return Estimate(
        h_hat=_normalize(apply_bases(bases, eig.vector).reshape(-1)), u_hat=eig.vector,
        lambda_min=eig.lambda_min, gap_ratio=eig.gap_ratio, degenerate=eig.degenerate,
        spectrum=eig.eigenvalues,
    )


#: Largest ||R||_F ||R^-1||_F that _well_conditioned accepts: 10x below the
#: oracle's 1e-12 singular-value ratio, a margin for the computed inverse's error.
_ORACLE_KAPPA_BOUND = 1e11


def _well_conditioned(r):
    """True when every square factor in the stack r has ||R||_F ||R^-1||_F <= 1e11.

    The product bounds sigma_max / sigma_min from above, and the computed
    inverse is off by about kappa * eps relative, so a True here means the
    singular values would pass the oracle's 1e-12 ratio test.  A singular or
    non-finite stack, or one above the bound, gives False.
    """
    try:
        inverse = np.linalg.inv(r)
    except np.linalg.LinAlgError:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.linalg.norm(r, axis=(1, 2)) * np.linalg.norm(inverse, axis=(1, 2))
    return bool(np.all(bound <= _ORACLE_KAPPA_BOUND))


def solve_oracle_ls(ys, x, bases):
    """Non-blind baseline: per-channel least squares with the source known exactly.

    Channel m's L x D design A_m holds the source convolved with each basis
    column of channel m.  One stacked QR factors every [A_m | y_m] at once:
    its triangular factor holds R_m of A_m = Q_m R_m and, in its last column,
    Q_m^H y_m, so u_m solves R_m u_m = Q_m^H y_m and Q_m is never formed.
    The singular values of R_m are those of A_m: a design whose smallest is
    at most 1e-12 times its largest is refused as rank deficient, naming the
    first such channel.  The SVD that decides this runs only when
    _well_conditioned cannot vouch for every R_m.
    """
    M, K, D = bases.shape
    ys = _check_channels(ys, K, M)
    x = as_signal(x)
    L = ys.shape[1]
    if len(x) != L:
        raise DimensionError(f"source length {len(x)} differs from signal length {L}")
    # row m * D + d is the source convolved with basis column d of channel m
    designs = convolve_short(x, bases.transpose(0, 2, 1).reshape(M * D, K)).reshape(M, D, L)
    augmented = np.concatenate([designs, ys[:, None]], axis=1).swapaxes(1, 2)  # M x L x (D + 1)
    r = np.linalg.qr(augmented, mode="r")
    r, qhy = r[:, :D, :D], r[:, :D, D:]
    if not _well_conditioned(r):
        svals = np.linalg.svd(r, compute_uv=False)
        deficient = np.flatnonzero(svals[:, -1] <= svals[:, 0] * 1e-12)
        if len(deficient):
            m = deficient[0]
            raise ConfigurationError(
                f"channel {m}: source/basis design matrix is rank deficient "
                f"(smallest singular value {svals[m, -1]:.3e})"
            )
    u_flat = np.linalg.solve(r, qhy).reshape(-1)
    return Estimate(
        h_hat=_normalize(apply_bases(bases, u_flat).reshape(-1)), u_hat=u_flat, lambda_min=0.0,
        gap_ratio=np.nan, degenerate=False,
    )


#: Newton or bisection steps the structured ls eigensolve may take before the
#: trial goes to the dense path.
_LS_MAX_STEPS = 60
#: Residual the structured ls eigenpair must reach, in units of eps * max(e).
_LS_RESIDUAL_EPS = 4


def _ls_factors(yhat, bases):
    """Per-bin energy e and the L x MD factor W of the ls Gram diag(e) - W W^H.

    Block m of W is conj(yhat_m) times an orthonormal basis Q_m of
    range(Ghat_m), so W W^H = sum_m diag(yhat_m)^H P_m diag(yhat_m).
    """
    L = yhat.shape[1]
    q = np.linalg.qr(np.fft.fft(bases, n=L, axis=1))[0]  # (M, L, D)
    w = (np.conj(yhat)[:, :, None] * q).transpose(1, 0, 2).reshape(L, -1)
    return (np.abs(yhat) ** 2).sum(axis=0), w


def _ls_gram(energy, w):
    """The assembled L x L ls Gram diag(e) - W W^H, for the dense path."""
    gram = -(w @ w.conj().T)
    gram[np.diag_indices(len(energy))] += energy
    return gram


def _ls_smallest_pair(energy, w):
    """Smallest eigenpair (lambda_1, unit s) of A = diag(e) - W W^H, certified
    not degenerate, or None when a guard hands the trial to the dense path.

    Split off the quietest bin i0 (e0 = min e, w0 = W[i0]^H; W', e' the other
    rows).  Below mu_1, the smallest eigenvalue of A with bin i0 deleted,
    T(lam) = I - W'^H diag(1/(e' - lam)) W' is positive definite (Haynsworth
    inertia additivity), and lambda_1 is the unique root there of the
    decreasing, concave secular function

        g(lam) = e0 - lam - w0^H z,  z = T(lam)^-1 w0,
        g'(lam) = -1 - ||s'||^2,     s' = diag(1/(e' - lam)) W' z,

    whose eigenvector is s = (1 at i0, s' elsewhere).  Newton runs from
    lam = e0 inside the bracket [0, e0] (A is PSD and A <= diag(e)); a failed
    Cholesky of T means lam >= mu_1, which lowers the upper end, and a step
    leaving the bracket bisects it.  Each step costs O(L (MD)^2).  The readout
    at lam has residual |g| / ||s||.  Guards: the step budget, the structured
    residual ||e*s - W (W^H s) - lam s|| computed in O(L MD), and the
    degeneracy certificate: T PD one DEGENERACY_RTOL * max(e) above lambda_1
    proves lambda_2 >= mu_1 > lambda_1 + DEGENERACY_RTOL * |lambda_max|
    (Cauchy interlacing, |lambda_max| <= max e).
    """
    if len(energy) < 2:
        return None  # one bin: the dense path raises InputError
    i0 = int(np.argmin(energy))
    e0, w0 = energy[i0], w[i0].conj()
    rest = np.arange(len(energy)) != i0
    e_rest, w_rest = energy[rest], w[rest]
    wh_rest = w_rest.conj().T
    scale = energy.max()
    tol = _LS_RESIDUAL_EPS * np.finfo(float).eps * scale

    def below_mu1(lam):
        """(e' - lam, T(lam)) when T(lam) is positive definite, else None (lam >= mu_1)."""
        d = e_rest - lam
        if d.min() <= 0:
            return None
        t = np.eye(len(w0)) - (wh_rest / d) @ w_rest
        try:
            np.linalg.cholesky(t)
        except np.linalg.LinAlgError:
            return None
        return d, t

    lo, hi, lam = 0.0, e0, e0
    for _ in range(_LS_MAX_STEPS):
        got = below_mu1(lam)
        if got is None:
            hi, lam = lam, (lo + lam) / 2
            continue
        d, t = got
        z = np.linalg.solve(t, w0)
        s_rest = (w_rest @ z) / d
        norm2 = 1 + np.vdot(s_rest, s_rest).real
        g = e0 - lam - np.vdot(w0, z).real
        if abs(g) <= tol * np.sqrt(norm2):
            break
        lo, hi = (lam, hi) if g > 0 else (lo, lam)
        lam += g / norm2
        if not lo < lam < hi:
            lam = (lo + hi) / 2
    else:
        return None

    s = np.empty(len(energy), dtype=np.complex128)
    s[i0] = 1
    s[rest] = s_rest
    s /= np.sqrt(norm2)
    residual = energy * s - w @ (w.conj().T @ s) - lam * s
    if np.linalg.norm(residual) > tol or below_mu1(lam + abs(g) + DEGENERACY_RTOL * scale) is None:
        return None
    return lam, s


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
    eigenvector of the Gram diag(e) - W W^H (e the per-bin energy, W of size
    L x MD).  The eigenpair comes from the secular equation at the quietest
    bin (_ls_smallest_pair) without forming the L x L Gram; a trial that
    fails its guards, or that it cannot certify as not degenerate, is solved
    by eig_hermitian on the assembled Gram instead.  Source and channels are
    then read out simultaneously from the calibration identity: hhat_m =
    yhat_m * s restricted to the filter support.  The diagnostic `condition`
    is the square-rooted dynamic range of the per-bin observed energy: large
    values mean part of the spectrum is unexcited and this linearization is
    ill-posed there.  gap_ratio is NaN: the structured solve never computes
    lambda_2.
    """
    M, K, _ = bases.shape
    ys = _check_channels(ys, K, M)
    yhat = np.fft.fft(ys, axis=1)

    magnitude = np.abs(yhat)
    ill_posed = bool(np.any(magnitude.min(axis=1) < 1e-12 * magnitude.max(axis=1)))

    energy, w = _ls_factors(yhat, bases)
    pair = _ls_smallest_pair(energy, w)
    if pair is None:
        eig = eig_hermitian(_ls_gram(energy, w))
        lambda_min, s, degenerate = eig.lambda_min, eig.vector, eig.degenerate
    else:
        (lambda_min, s), degenerate = pair, False
    filters = np.fft.ifft(yhat * s, axis=1)[:, :K]
    condition = float(np.sqrt(energy.max() / energy.min())) if energy.min() > 0 else np.inf
    return Estimate(
        h_hat=_normalize(filters.reshape(-1)), u_hat=None, lambda_min=float(lambda_min),
        gap_ratio=np.nan, degenerate=degenerate, condition=condition, ill_posed=ill_posed,
    )
