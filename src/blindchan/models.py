"""Random instance generation: bases gen_*_subspace(K, D, M, rng), channels, sources, noise.

Every draw comes from a seeded substream so experiments are reproducible and
stream-isolated: a (master seed, purpose label, trial index) triple always
yields the same values regardless of evaluation order or thread count, and
adding one more consumer never perturbs the others.

Complex Gaussian convention: CN(0, s^2) has independent real and imaginary
parts N(0, s^2/2), so E|g|^2 = s^2.  The expectation identities the library
checks hold with exactly this normalization.
"""

import functools
import hashlib

import numpy as np

from .exceptions import ConfigurationError, DimensionError, InputError
from .sigops import as_signal
from .spectral import hermitian_part_t


def _uint32_words(n):
    """The uint32 words numpy's seeding makes of a non-negative int: least
    significant first, (0,) for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    return tuple((n >> shift) & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32))


@functools.lru_cache(maxsize=64)
def _label_words(label):
    """The uint32 words of a label's tag, the first 8 bytes of its SHA-256."""
    return _uint32_words(int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little"))


class RngStreams:
    """Deterministic factory of independent random substreams.

    Substreams are keyed by a purpose label and an integer index; the label
    is hashed so that, e.g., enabling an extra consumer never shifts the
    draws other labels see.
    """

    def __init__(self, master_seed):
        self.master_seed = int(master_seed)
        self._seed_words = _uint32_words(self.master_seed)

    def stream(self, label, index=0):
        """The generator of np.random.default_rng([master_seed, tag, index]),
        seeded with the uint32 words numpy would make of that list."""
        words = self._seed_words + _label_words(label) + _uint32_words(int(index))
        return np.random.default_rng(np.array(words, dtype=np.uint32))


def complex_gaussian(rng, *shape, var=1.0):
    """iid CN(0, var) array of the given shape: one draw of all real parts, then
    all imaginary parts, each scaled by sqrt(var / 2) straight into the result's
    parts (the bits of scale * (re + 1j * im), without its temporaries)."""
    scale = np.sqrt(var / 2.0)
    z = rng.standard_normal((2, *shape))
    out = np.empty(shape, dtype=np.complex128)
    np.multiply(z[0], scale, out=out.real)
    np.multiply(z[1], scale, out=out.imag)
    return out


def apply_bases(bases, u):
    """The M x K filters Phi_m u_m of stacked coefficients u in C^{MD} and (M, K, D) bases."""
    M, K, D = bases.shape
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (M * D,):
        raise DimensionError(f"expected coefficients of length {M * D}, got shape {u.shape}")
    return np.einsum("mkd,md->mk", bases, u.reshape(M, D))


def check_dim(filter_len, dim, where=""):
    """Raise ConfigurationError, prefixed by `where`, unless 1 <= D <= K."""
    if not 1 <= dim <= filter_len:
        raise ConfigurationError(f"{where}need 1 <= d <= k, got d={dim}, k={filter_len}")


def gen_gaussian_subspace(filter_len, dim, n_channels, rng):
    """Generic model: (M, K, D) bases with iid CN(0,1) entries."""
    check_dim(filter_len, dim)
    return complex_gaussian(rng, n_channels, filter_len, dim)


def bandpass_pulse(t, filter_len):
    """The band-pass family's waveform: a Hann-windowed complex exponential.

    Compact support |t| <= K/4 and center frequency 0.25 of Nyquist
    (0.125 cycles/sample).  The compact window keeps the family's spectrum
    strictly concentrated, which is what makes the non-subspace baselines
    ill-conditioned on it.
    """
    half = filter_len / 4.0
    t = np.asarray(t, dtype=float)
    window = np.where(np.abs(t) <= half, np.cos(np.pi * t / (2 * half)) ** 2, 0.0)
    return window * np.exp(2j * np.pi * 0.125 * t)


def sample_parametric_filter(filter_len, n, rng):
    """n band-pass training filters as an n x K array: bandpass_pulse at a continuous
    random shift and log-uniform amplitude, drawn shift then amplitude per filter in one call."""
    half = filter_len / 4.0
    shift, log_amp = rng.uniform([half, np.log(0.5)], [filter_len - half, np.log(2.0)], (n, 2)).T
    grid = np.arange(filter_len) - shift[:, None]
    return np.exp(log_amp)[:, None] * bandpass_pulse(grid, filter_len)


def check_pca_dim(filter_len, dim, where=""):
    """Raise ConfigurationError, prefixed by `where`, unless 1 <= D < K as a PCA basis needs."""
    if not 1 <= dim < filter_len:
        raise ConfigurationError(
            f"{where}basis 'pca' needs d < k: tap 0 of every band-pass training filter "
            f"is zero, so the family spans k - 1 directions; got d={dim}, k={filter_len}"
        )


def gen_pca_subspace(filter_len, dim, n_channels, rng):
    """Data-driven model: the D leading orthonormal eigenvectors of the K x K second-moment
    matrix of 50 D band-pass filters (sample_parametric_filter), shared by all M channels.
    The matrix is conj(sum f f^H), so the basis spans the family's mirror image (centre
    -0.125 cycles/sample)."""
    check_pca_dim(filter_len, dim)
    train = sample_parametric_filter(filter_len, 50 * dim, rng)
    second_moment = train.conj().T @ train / len(train)
    _, v = np.linalg.eigh(hermitian_part_t(second_moment.T).T)
    return np.repeat(v[None, :, ::-1][:, :, :dim], n_channels, axis=0)


#: The names gen_source dispatches on; a spec's source must be one of them.
SOURCES = ("gaussian", "flat_spectrum")


def gen_channels_in_subspace(bases, rng):
    """Draw coefficients u and the channels h = Phi u they induce.

    Returns (u, filters): u stacked in C^{MD}, each block u_m drawn CN(0, I)
    and rescaled to unit norm, and filters the M x K array whose row m is
    channel m's impulse response.
    """
    M, _, D = bases.shape
    u = complex_gaussian(rng, M, D)
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    u_flat = u.reshape(-1)
    return u_flat, apply_bases(bases, u_flat)


def gen_source(kind, signal_len, rng):
    """Common source of length L and unit power.

    "gaussian": iid CN(0, 1).  "flat_spectrum": all DFT magnitudes equal to
    sqrt(L) with seeded uniform phases, so the circulant Gram of the source
    is an exact multiple of the identity.  Trials set the noise from the
    source energy and the estimators are scale equivariant, so no error
    depends on the source power.
    """
    if signal_len < 1:
        raise ConfigurationError(f"need L >= 1, got {signal_len}")
    if kind == "gaussian":
        return complex_gaussian(rng, signal_len)
    if kind == "flat_spectrum":
        phase = rng.uniform(0.0, 2 * np.pi, signal_len)
        return np.fft.ifft(np.sqrt(signal_len) * np.exp(1j * phase))
    raise InputError(f"unknown source kind {kind!r}")


def add_noise(s, sigma_w, rng):
    """Add iid CN(0, sigma_w^2) noise to a signal or an M x L array in one draw, real then
    imaginary parts row by row as M one-row calls would; sigma_w = 0 adds none.  The scaled
    draws are added to a copy's real and imaginary parts in place, the bits of
    s + scale * (re + 1j * im) without its temporaries."""
    s = np.asarray(s, dtype=np.complex128)
    if s.ndim not in (1, 2):
        raise InputError(f"signal must be a vector or an M x L array, got shape {s.shape}")
    as_signal(s.reshape(-1))  # nonempty and finite
    if not 0 <= sigma_w < np.inf:  # NaN fails too
        raise InputError(f"noise level must be finite and >= 0, got {sigma_w}")
    if sigma_w == 0:
        return s.copy()
    z = rng.standard_normal((*s.shape[:-1], 2, s.shape[-1]))
    z *= np.sqrt(sigma_w**2 / 2.0)
    out = s.copy()
    out.real += z[..., 0, :]
    out.imag += z[..., 1, :]
    return out


def sigma_for_snr(eta_target, filter_len, signal_len, n_channels, x, u):
    """Noise variance achieving a target SNR: K ||x||^2 ||u||^2 / (M L eta).  K ||u||^2 is
    the channel energy of iid CN(0, 1) bases; orthonormal (PCA) ones get 10 log10(K) dB less."""
    if eta_target <= 0:
        raise ConfigurationError(f"target SNR must be positive, got {eta_target}")
    x = as_signal(x)
    u = np.asarray(u, dtype=np.complex128)
    ex = float(np.linalg.norm(x) ** 2)
    eu = float(np.linalg.norm(u) ** 2)
    if ex == 0 or eu == 0:
        raise ConfigurationError("source and coefficients must have nonzero energy")
    return filter_len * ex * eu / (n_channels * signal_len * eta_target)
