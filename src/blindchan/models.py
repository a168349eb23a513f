"""Random instance generation: (M, K, D) subspace bases, channels, sources, noise.

Every draw comes from a seeded substream so experiments are reproducible and
stream-isolated: a (master seed, purpose label, trial index) triple always
yields the same values regardless of evaluation order or thread count, and
adding one more consumer never perturbs the others.

Complex Gaussian convention: CN(0, s^2) has independent real and imaginary
parts N(0, s^2/2), so E|g|^2 = s^2.  The expectation identities the library
checks hold with exactly this normalization.
"""

import hashlib

import numpy as np

from .exceptions import ConfigurationError, DimensionError, InputError
from .sigops import as_signal


class RngStreams:
    """Deterministic factory of independent random substreams.

    Substreams are keyed by a purpose label and an integer index; the label
    is hashed so that, e.g., enabling an extra consumer never shifts the
    draws other labels see.
    """

    def __init__(self, master_seed):
        self.master_seed = int(master_seed)

    def stream(self, label, index=0):
        tag = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")
        return np.random.default_rng([self.master_seed, tag, int(index)])


def complex_gaussian(rng, *shape, var=1.0):
    """iid CN(0, var) array of the given shape."""
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def apply_bases(bases, u):
    """The M x K filters Phi_m u_m of stacked coefficients u in C^{MD} and (M, K, D) bases."""
    M, K, D = bases.shape
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (M * D,):
        raise DimensionError(f"expected coefficients of length {M * D}, got shape {u.shape}")
    return np.einsum("mkd,md->mk", bases, u.reshape(M, D))


def gen_gaussian_subspace(filter_len, dim, n_channels, rng):
    """Generic model: (M, K, D) bases with iid CN(0,1) entries."""
    if not 1 <= dim <= filter_len:
        raise ConfigurationError(f"need 1 <= D <= K, got D={dim}, K={filter_len}")
    return complex_gaussian(rng, n_channels, filter_len, dim)


def bandpass_pulse(t, filter_len):
    """Default parametric waveform: Hann-windowed complex exponential.

    Compact support |t| <= K/4 and center frequency 0.25 of Nyquist
    (0.125 cycles/sample).  The compact window keeps the family's spectrum
    strictly concentrated, which is what makes the non-subspace baselines
    ill-conditioned on it.
    """
    half = filter_len / 4.0
    t = np.asarray(t, dtype=float)
    window = np.where(np.abs(t) <= half, np.cos(np.pi * t / (2 * half)) ** 2, 0.0)
    return window * np.exp(2j * np.pi * 0.125 * t)


def sample_parametric_filter(pulse, filter_len, rng):
    """One training filter: the pulse at a continuous random shift and log-uniform amplitude."""
    half = filter_len / 4.0
    shift = rng.uniform(half, filter_len - half)
    amp = np.exp(rng.uniform(np.log(0.5), np.log(2.0)))
    return amp * pulse(np.arange(filter_len) - shift, filter_len)


def gen_pca_subspace(pulse, filter_len, dim, n_train, rng, n_channels=1):
    """Data-driven model: top-D eigenvectors of the training second-moment matrix.

    Draws n_train filters from the parametric family, forms the K x K sample
    second-moment matrix and keeps its D leading orthonormal eigenvectors,
    shared by all channels of the returned (M, K, D) bases.
    """
    if n_train < dim:
        raise ConfigurationError(f"need n_train >= D, got n_train={n_train}, D={dim}")
    train = np.stack([sample_parametric_filter(pulse, filter_len, rng) for _ in range(n_train)])
    # structural rank guard: exact zeros only, so a smooth family with tiny
    # trailing eigenvalues still yields its full orthonormal eigenbasis
    if np.count_nonzero(np.linalg.svd(train, compute_uv=False)) < dim:
        raise ConfigurationError(
            f"training family spans fewer than D={dim} directions; "
            "increase n_train or lower D"
        )
    second_moment = train.conj().T @ train / n_train
    _, v = np.linalg.eigh((second_moment + second_moment.conj().T) / 2)
    basis = v[:, ::-1][:, :dim]
    return np.repeat(basis[None, :, :], n_channels, axis=0)


def default_train_size(dim):
    """Training draws used for the PCA basis unless overridden."""
    return 50 * dim


def gen_channels_in_subspace(bases, rng, norm_profile="flat"):
    """Draw coefficients u and the channels h = Phi u they induce.

    Returns (u, filters): u stacked in C^{MD}, filters the M x K array whose
    row m is channel m's impulse response.

    norm_profile "flat" rescales every block u_m to unit norm; "spiky"
    puts all energy on the first block, a unit u_1 and zero elsewhere.
    """
    M, _, D = bases.shape
    u = complex_gaussian(rng, M, D)
    if norm_profile == "flat":
        u = u / np.linalg.norm(u, axis=1, keepdims=True)
    elif norm_profile == "spiky":
        u[1:] = 0.0
        u[0] = u[0] / np.linalg.norm(u[0])
    else:
        raise InputError(f"unknown norm profile {norm_profile!r}")
    u_flat = u.reshape(-1)
    return u_flat, apply_bases(bases, u_flat)


def gen_source(kind, signal_len, sigma_x, rng):
    """Common source of length L.

    "gaussian": iid CN(0, sigma_x^2).  "flat_spectrum": all DFT magnitudes
    equal to sqrt(L)*sigma_x with seeded uniform phases, so the circulant
    Gram of the source is an exact multiple of the identity.
    """
    if signal_len < 1:
        raise ConfigurationError(f"need L >= 1, got {signal_len}")
    if kind == "gaussian":
        return complex_gaussian(rng, signal_len, var=sigma_x**2)
    if kind == "flat_spectrum":
        phase = rng.uniform(0.0, 2 * np.pi, signal_len)
        spec = np.sqrt(signal_len) * sigma_x * np.exp(1j * phase)
        return np.fft.ifft(spec)
    raise InputError(f"unknown source kind {kind!r}")


def add_noise(s, sigma_w, rng):
    """Add iid CN(0, sigma_w^2) noise to a signal or an M x L array in one draw, real then
    imaginary parts row by row as M one-row calls would; sigma_w = 0 adds none."""
    s = np.asarray(s, dtype=np.complex128)
    if s.ndim not in (1, 2):
        raise InputError(f"signal must be a vector or an M x L array, got shape {s.shape}")
    as_signal(s.reshape(-1))  # nonempty and finite
    if not 0 <= sigma_w < np.inf:  # NaN fails too
        raise InputError(f"noise level must be finite and >= 0, got {sigma_w}")
    if sigma_w == 0:
        return s.copy()
    z = rng.standard_normal((*s.shape[:-1], 2, s.shape[-1]))
    return s + np.sqrt(sigma_w**2 / 2.0) * (z[..., 0, :] + 1j * z[..., 1, :])


def sigma_for_snr(eta_target, filter_len, signal_len, n_channels, x, u):
    """Noise variance achieving a target SNR: K ||x||^2 ||u||^2 / (M L eta)."""
    if eta_target <= 0:
        raise ConfigurationError(f"target SNR must be positive, got {eta_target}")
    x = as_signal(x)
    u = np.asarray(u, dtype=np.complex128)
    ex = float(np.linalg.norm(x) ** 2)
    eu = float(np.linalg.norm(u) ** 2)
    if ex == 0 or eu == 0:
        raise ConfigurationError("source and coefficients must have nonzero energy")
    return filter_len * ex * eu / (n_channels * signal_len * eta_target)
