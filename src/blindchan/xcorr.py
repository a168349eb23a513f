"""Cross-correlation matrix of multichannel observations.

For M channel outputs y_1..y_M of a common source, the commutativity of
convolution gives one length-L linear constraint block per channel pair; the
stacked constraint matrix has M(M-1)/2 * L rows and M*K columns.  Its Gram
matrix is what the classical estimator eigendecomposes.  The Gram is
assembled here block-wise from length-L FFT cross-correlations, one
channel row of pairs at a time and straight into the Gram, never forming
the tall constraint matrix.  The subspace estimator needs only
the Gram compressed by the model bases.  Each K x K block reads the lags
|l| < K of one pair correlation, so the compression is built from those lags
alone, at DFT length N = min(L, 2K): its cost beyond the correlations
follows K, not L, and the MK x MK Gram is never formed.  The explicit
construction is retained (size-capped) as the reference oracle of both.
"""

import numpy as np

from .exceptions import ConfigurationError, DimensionError, InputError
from .sigops import conv_matrix
from .spectral import hermitian_part_t

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


def _pair_spectra(ys):
    """(a, b, conj(fft(y_a)) * fft(y_b)) over the channel pairs a <= b of checked ys, in
    np.triu_indices order: the DFTs of the M(M+1)/2 length-L pair correlations."""
    fhat = np.fft.fft(ys, axis=1)
    n = np.arange(len(ys))
    a, b = np.nonzero(n[:, None] <= n)  # np.triu_indices(M) at a quarter of its cost
    spectra = fhat[a]
    np.conjugate(spectra, out=spectra)
    spectra *= fhat[b]
    return a, b, spectra


def cross_corr_matrix(ys, filter_len):
    """Assemble the Gram of the stacked constraints from fast correlations.

    Block (n, n) is the sum of the self-correlation blocks of all other
    channels; block (n, m) for n != m is minus the (m, n) cross-correlation
    block.  Returns the MK x MK matrix cross_relation_matrix(ys, K)^H @
    cross_relation_matrix(ys, K) as a Fortran-ordered complex128 array that
    is exactly Hermitian in full storage, so that spectral.eig_hermitian can
    take it with overwrite_a=True: the off-diagonal blocks are written as
    the conjugate pairs they are, and each diagonal block is stored as its
    Hermitian part by spectral.hermitian_part_t, the bits eig_hermitian's
    copy would hold.  The pairs are correlated one channel row at a time,
    straight into the Gram, so beside it only the channel spectra and one
    row's M - 1 correlations and blocks are held.
    """
    ys = _check_channels(ys, filter_len)
    M, L = ys.shape
    K = filter_len
    # Correlation block (a, b) = T_{y_a}^H T_{y_b} is the top-left K x K corner
    # of the circulant C_a^H C_b, whose (i, j) entry is r[(i-j) mod L] with
    # r = ifft(conj(fft(a)) * fft(b)); block (b, a) is its conjugate transpose.
    fhat = np.fft.fft(ys, axis=1)
    idx = (np.arange(K)[:, None] - np.arange(K)[None, :]) % L
    n = np.arange(M)
    corr = np.fft.ifft(np.conjugate(fhat) * fhat, axis=1)
    diag = corr[n[:, None, None], idx]  # C-ordered, so the sum keeps its order
    del corr
    diag = diag.sum(axis=0) - diag
    herm = hermitian_part_t(diag.transpose(0, 2, 1))  # block (n, n) as g stores it
    del diag
    # the Gram is built transposed in g, a C-ordered view of the Fortran-ordered
    # result: g[m, q, n, p] is entry (n K + p, m K + q), so g[m, :, n] holds
    # block (n, m) transposed
    out = np.empty((M * K, M * K), dtype=np.complex128, order="F")
    g = out.T.reshape(M, K, M, K)
    g[n, :, n] = herm
    del herm
    for a in range(M - 1):
        # conj(fft(y_a)) * fft(y_b) over two contiguous operands of one shape:
        # numpy's complex product takes another loop, with other bits, for a
        # broadcast operand or a one-element in-place product
        spectra = np.repeat(np.conjugate(fhat[a : a + 1]), M - a - 1, axis=0) * fhat[a + 1 :]
        corr = np.fft.ifft(spectra, axis=1)
        del spectra
        # negated through the float64 view: the bits of numpy's complex
        # negative, several times faster
        parts = corr.view(np.float64)
        np.negative(parts, out=parts)
        blocks = corr[:, idx]  # blocks[b - a - 1] = -B_ab
        del corr, parts
        g[a, :, a + 1 :] = blocks.transpose(2, 0, 1)  # block (b, a) = -B_ab
        g[a + 1 :, :, a] = np.conjugate(blocks, out=blocks)  # block (a, b) = -B_ab^H
        del blocks  # before the next row's are gathered
    return out


def compressed_cross_corr(ys, bases):
    """The Gram compressed by the model bases, Phi^H A Phi, built from FFTs.

    bases is M x K x D.  Block (n, m) of the Gram is minus the K x K Toeplitz
    corner of the pair correlation r_mn = ifft(conj(yhat_m) * yhat_n), plus
    the summed self-correlations on the diagonal, so it reads only the lags
    |l| < K.  Wrap those lags into a length N = min(L, 2K) sequence (for
    L <= 2K, r_mn itself) with length-N DFT S_mn, and let Phi_hat_n be the
    length-N DFT of the zero-padded basis n; then the compressed block is

        (delta_nm Phi_hat_n^H diag(sum_a S_aa) Phi_hat_n - Phi_hat_n^H diag(S_mn) Phi_hat_m) / N,

    exact because circular correlation at N >= 2K - 1 aliases no lag below K.
    Beyond the M(M+1)/2 length-L correlations this costs M(M+1)/2 length-N
    DFTs (none when L <= 2K) and one D x N by N x (M-n)D product per channel
    n, about M^2 D^2 N multiply-adds at M*N*D memory, with the lower blocks
    mirrored; the MK x MK Gram is never formed.  Equals
    block_diag(bases)^H cross_corr_matrix(ys, K) block_diag(bases), returned
    Fortran-ordered as LAPACK reads it; the off-diagonal blocks are exact
    conjugate pairs, the diagonal blocks Hermitian only to roundoff.
    """
    bases = np.asarray(bases, dtype=np.complex128)
    if bases.ndim != 3:
        raise DimensionError(f"expected an M x K x D basis stack, got shape {bases.shape}")
    M, K, D = bases.shape
    ys = _check_channels(ys, K, M)
    L = ys.shape[1]
    N = min(L, 2 * K)
    a, b, spectra = _pair_spectra(ys)
    if N < L:  # lags -(K-1)..K-1 of each correlation, wrapped at length N = 2K
        corr = np.fft.ifft(spectra, axis=1)
        del spectra  # keep at most two sequence stacks alive
        window = np.zeros((len(corr), N), dtype=np.complex128)
        window[:, :K] = corr[:, :K]
        window[:, N - K + 1 :] = corr[:, L - K + 1 :]
        del corr
        spectra = np.fft.fft(window, axis=1)
    # the weights of pair (n, m >= n) are the symbol of block (n, m) over N:
    # -conj(S_nm) = -S_mn off the diagonal blocks, sum_a S_aa - S_nn on them
    starts = np.flatnonzero(a == b)  # pair (n, n); pairs (n, m > n) follow it
    self_spectra = spectra[starts].real
    weights = np.conjugate(spectra, out=spectra)
    weights *= -1.0 / N
    weights[starts] = (self_spectra.sum(axis=0) - self_spectra) / N
    phat = np.fft.fft(np.ascontiguousarray(bases.transpose(0, 2, 1)), n=N, axis=2)  # M x D x N
    rest = np.empty_like(phat)
    out = np.empty((M * D, M * D), dtype=np.complex128, order="F")
    for n, start in enumerate(starts):
        row = slice(n * D, (n + 1) * D)
        np.multiply(weights[start : start + M - n, None, :], phat[n:], out=rest[n:])
        phat_h = np.conjugate(phat[n], out=phat[n])  # later rows read only phat[n + 1:]
        out[row, n * D :] = phat_h @ rest[n:].reshape((M - n) * D, N).T
        out[(n + 1) * D :, row] = out[row, (n + 1) * D :].conj().T
    return out


def noise_gram_mean(n_channels, signal_len, noise_var):
    """Scalar c such that the expected noise-only Gram is c times the identity."""
    return float(noise_var) * (n_channels - 1) * signal_len
