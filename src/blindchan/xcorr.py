"""Cross-correlation matrix of multichannel observations.

For M channel outputs y_1..y_M of a common source, the commutativity of
convolution gives one length-L linear constraint block per channel pair; the
stacked constraint matrix has M(M-1)/2 * L rows and M*K columns.  Its Gram
matrix is what the classical estimator eigendecomposes.  The Gram is
assembled here block-wise from M(M+1)/2 length-L FFT cross-correlations,
never forming the tall constraint matrix.  The subspace estimator needs only
the Gram compressed by the model bases, which is built directly in the
frequency domain at M*L*D memory, never forming the MK x MK Gram.  The
explicit construction is retained (size-capped) as the reference oracle of
both.
"""

import numpy as np

from .exceptions import ConfigurationError, DimensionError, InputError
from .sigops import conv_matrix

# Cap on M*K*L for the dense explicit construction.
EXPLICIT_SIZE_CAP = 2**22


def _check_channels(ys, filter_len=1, n_channels=None):
    """ys (an M x L array or M equal-length vectors) as a complex128 array;
    needs M >= 2, finite values, 1 <= filter_len <= L and M == n_channels if given."""
    try:
        ys = np.asarray(ys, dtype=np.complex128)
    except ValueError:
        raise DimensionError("channel outputs must share a common length") from None
    if ys.ndim != 2:
        raise DimensionError(f"channel outputs must form an M x L array, got shape {ys.shape}")
    M, L = ys.shape
    if M < 2:
        raise ConfigurationError(f"need at least 2 channels, got {M}")
    if not np.all(np.isfinite(ys)):
        raise InputError("channel outputs contain non-finite entries")
    if filter_len > L:
        raise DimensionError(f"filter length {filter_len} exceeds signal length {L}")
    if filter_len < 1:
        raise DimensionError(f"filter length must be >= 1, got {filter_len}")
    if n_channels is not None and M != n_channels:
        raise DimensionError(f"model has {n_channels} channels but got {M} observations")
    return ys


def cross_relation_matrix(ys, filter_len):
    """Explicit stacked constraint matrix (M(M-1)/2*L x M*K), the reference oracle.

    Strip i (i = 0..M-2) holds one L-row block per j > i, with the convolution
    matrix of y_j in block-column i and minus that of y_i in block-column j,
    so that the true stacked filter vector is annihilated.
    """
    ys = _check_channels(ys, filter_len)
    M, L = ys.shape
    K = filter_len
    if M * K * L > EXPLICIT_SIZE_CAP:
        raise ConfigurationError(
            f"explicit construction capped at M*K*L <= {EXPLICIT_SIZE_CAP}, got {M * K * L}"
        )
    T = np.array([conv_matrix(y, K) for y in ys])
    i, j = np.triu_indices(M, 1)
    pair = np.arange(len(i))
    out = np.zeros((len(i), L, M, K), dtype=np.complex128)
    out[pair, :, i] = T[j]
    out[pair, :, j] = -T[i]
    return out.reshape(len(i) * L, M * K)


def cross_corr_matrix(ys, filter_len):
    """Assemble the Gram of the stacked constraints from fast correlations.

    Block (n, n) is the sum of the self-correlation blocks of all other
    channels; block (n, m) for n != m is minus the (m, n) cross-correlation
    block.  Returns the Hermitian MK x MK matrix, equal to
    cross_relation_matrix(ys, K)^H @ cross_relation_matrix(ys, K).
    """
    ys = _check_channels(ys, filter_len)
    M, L = ys.shape
    K = filter_len
    fhat = np.fft.fft(ys, axis=1)
    # Correlation block (a, b) = T_{y_a}^H T_{y_b} is the top-left K x K corner
    # of the circulant C_a^H C_b, whose (i, j) entry is r[(i-j) mod L] with
    # r = ifft(conj(fft(a)) * fft(b)); block (b, a) is its conjugate transpose.
    a, b = np.triu_indices(M)
    idx = (np.arange(K)[:, None] - np.arange(K)[None, :]) % L
    blocks = np.fft.ifft(np.conj(fhat[a]) * fhat[b], axis=1)[:, idx]
    out = np.empty((M, K, M, K), dtype=np.complex128)
    out[a, :, b] = -blocks.conj().transpose(0, 2, 1)
    out[b, :, a] = -blocks
    self_blocks = blocks[a == b]
    n = np.arange(M)
    out[n, :, n] = self_blocks.sum(axis=0) - self_blocks
    return out.reshape(M * K, M * K)


def compressed_cross_corr(ys, bases):
    """The Gram compressed by the model bases, Phi^H A Phi, built from FFTs.

    bases is M x K x D.  Never forms the MK x MK Gram: with Phi_hat_n the
    length-L DFT of the zero-padded basis n and V = [diag(conj(yhat_n))
    Phi_hat_n]_n (L x MD), Parseval turns every block of the congruence into
    a product of DFTs,

        (blockdiag_n(Phi_hat_n^H diag(sum_a |yhat_a|^2) Phi_hat_n) - V^H V) / L,

    so the cost is one L x MD Gram product plus M small diagonal blocks, at
    M*L*D memory.  Equals block_diag(bases)^H cross_corr_matrix(ys, K) block_diag(bases).
    """
    bases = np.asarray(bases, dtype=np.complex128)
    if bases.ndim != 3:
        raise DimensionError(f"expected an M x K x D basis stack, got shape {bases.shape}")
    M, K, D = bases.shape
    ys = _check_channels(ys, K, M)
    L = ys.shape[1]
    yhat = np.fft.fft(ys, axis=1)
    phat = np.fft.fft(bases, n=L, axis=1)  # M x L x D
    energy = (yhat.real**2 + yhat.imag**2).sum(axis=0)
    v = (np.conj(yhat)[:, :, None] * phat).transpose(1, 0, 2).reshape(L, M * D)
    out = -(v.conj().T @ v)
    for n in range(M):
        block = slice(n * D, (n + 1) * D)
        out[block, block] += phat[n].conj().T @ (energy[:, None] * phat[n])
    return out / L


def noise_gram_mean(n_channels, signal_len, noise_var):
    """Scalar c such that the expected noise-only Gram is c times the identity."""
    return float(noise_var) * (n_channels - 1) * signal_len
