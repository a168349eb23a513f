"""Scalar diagnostics: principal angles, SNR, channel flatness, correlation norms.

The correlation norms measure how far windowed auto/cross-correlation
matrices of the source and noise deviate from scaled identities; together
with the spectral gap they control how much noise the eigenvector estimate
can absorb.  All are evaluated densely (window sizes stay in the hundreds)
with the spectral norm computed from a Hermitian eigendecomposition of the
Gram form.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, InputError
from .sigops import as_signal


def sin_angle(a, b):
    """Principal angle sine between two nonzero finite vectors, clamped to [0, 1].

    Invariant to nonzero complex scaling of either argument.  Evaluated as
    the normalized projection residual ||b - a <a,b>/||a||^2|| / ||b||, which
    stays accurate near zero where the textbook sqrt(1 - cos^2) form loses
    half the significant digits to cancellation.
    """
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if not (0 < na < np.inf and 0 < nb < np.inf):  # NaN fails too
        raise InputError("sin_angle requires nonzero vectors with finite entries and norms")
    a_unit = a / na
    residual = b - a_unit * np.vdot(a_unit, b)
    return float(min(1.0, np.linalg.norm(residual) / nb))


def min_phase_distance(a, b):
    """min over unit phases e^{i t} of ||a - e^{i t} b||_2, in closed form.

    The optimal phase aligns b's inner product with a; for unit vectors this
    sandwiches the principal angle sine within a sqrt(2) factor.
    """
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    ip = np.vdot(b, a)
    val = np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2 - 2 * abs(ip)
    return float(np.sqrt(max(0.0, val)))


def flatness(u, n_channels):
    """Energy disparity across channels: max_m sqrt(M) ||u_m|| / ||u||, in [1, sqrt(M)]."""
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    total = np.linalg.norm(u)
    if total == 0:
        raise InputError("flatness requires a nonzero coefficient vector")
    blocks = u.reshape(n_channels, -1)
    return float(np.sqrt(n_channels) * np.max(np.linalg.norm(blocks, axis=1)) / total)


def db_to_linear(db):
    return float(10.0 ** (db / 10.0))


def snr(filter_len, signal_len, n_channels, x, u, noise_var):
    """Signal-to-noise ratio K ||x||^2 ||u||^2 / (M L sigma_w^2) of the
    observation model; noise_var = 0 returns inf."""
    x = as_signal(x)
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    if noise_var == 0:
        return np.inf
    num = filter_len * np.linalg.norm(x) ** 2 * np.linalg.norm(u) ** 2
    return float(num / (n_channels * signal_len * noise_var))


def _window_corr_matrix(symbol, filter_len, signal_len):
    """Windowed correlation matrix from a circulant symbol: entry (i,j) =
    r[(w_i - w_j) mod L] with r = ifft(symbol) and w the conv3 window
    [L-K+1, ..., L-1, 0, ..., 2K-2] (callers check 3K-2 <= L)."""
    r = np.fft.ifft(symbol)
    w = np.concatenate([np.arange(signal_len - filter_len + 1, signal_len),
                        np.arange(2 * filter_len - 1)])
    return r[(w[:, None] - w[None, :]) % signal_len]


def _spectral_norm(mat):
    """Largest singular value from the Hermitian Gram eigendecomposition."""
    gram = mat.conj().T @ mat
    w = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    return float(np.sqrt(max(0.0, w[-1])))


def autocorr_norm(x, filter_len):
    """Spectral norm of the conv3-windowed autocorrelation matrix of the source."""
    x = as_signal(x)
    L = len(x)
    if 3 * filter_len - 2 > L:
        raise ConfigurationError(f"need 3K-2 <= L, got K={filter_len}, L={L}")
    xhat = np.fft.fft(x)
    mat = _window_corr_matrix(np.abs(xhat) ** 2, filter_len, L)
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    return float(w[-1])


def crosscorr_norm(x, ws, filter_len):
    """Max over channels of the windowed source/noise cross-correlation norm."""
    x = as_signal(x)
    L = len(x)
    if 3 * filter_len - 2 > L:
        raise ConfigurationError(f"need 3K-2 <= L, got K={filter_len}, L={L}")
    xhat = np.fft.fft(x)
    best = 0.0
    for w_sig in ws:
        w_sig = as_signal(w_sig)
        mat = _window_corr_matrix(np.conj(xhat) * np.fft.fft(w_sig), filter_len, L)
        best = max(best, _spectral_norm(mat))
    return best


def noise_corr_norms(ws, filter_len, noise_var):
    """Deviation of noise correlations from their mean over the support window.

    Returns (max deviation over channel pairs, norm of the channel-averaged
    autocorrelation deviation).  The subtracted mean is noise_var * L times
    the identity on diagonal pairs and zero on off-diagonal pairs.
    """
    ws = [as_signal(w) for w in ws]
    L = len(ws[0])
    K = filter_len
    if K > L:
        raise ConfigurationError(f"need K <= L, got K={K}, L={L}")
    what = [np.fft.fft(w) for w in ws]
    window = np.arange(K)
    idx = (window[:, None] - window[None, :]) % L
    max_dev = 0.0
    avg = np.zeros((K, K), dtype=np.complex128)
    for m in range(len(ws)):
        for mp in range(len(ws)):
            r = np.fft.ifft(np.conj(what[m]) * what[mp])
            if m == mp:
                r[0] -= noise_var * L
            mat = r[idx]
            max_dev = max(max_dev, _spectral_norm(mat))
            if m == mp:
                avg += mat
    avg /= len(ws)
    return max_dev, _spectral_norm(avg)


@dataclass(frozen=True)
class MetricReport:
    sin_angle: float
    eta: float
    mu: float
    rho_x: float
    rho_xw: float
    rho_w: float
    rho_bar_w: float
    gap_ratio: float


def metric_report(h_hat, h_true, x, u, ws, filter_len, n_channels, noise_var, gap_ratio):
    """Assemble every scalar diagnostic for one problem instance."""
    L = len(as_signal(x))
    rho_w, rho_bar_w = noise_corr_norms(ws, filter_len, noise_var)
    return MetricReport(
        sin_angle=sin_angle(h_hat, h_true),
        eta=snr(filter_len, L, n_channels, x, u, noise_var),
        mu=flatness(u, n_channels),
        rho_x=autocorr_norm(x, filter_len),
        rho_xw=crosscorr_norm(x, ws, filter_len),
        rho_w=rho_w,
        rho_bar_w=rho_bar_w,
        gap_ratio=float(gap_ratio),
    )
