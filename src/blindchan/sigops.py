"""Core signal operations: circular convolution and its dense matrices.

All signals are 1-D complex128 vectors of a common length L; channel impulse
responses are short vectors of length K <= L that stand for signals whose last
L - K entries are zero.  convolve_short is the one circular convolution
(indices mod L), evaluated with length-L FFTs: unnormalized forward
transform, 1/L on the inverse, any mixed-radix L supported.  A filter of
full length K = L makes it the circular convolution of two signals.
circulant and conv_matrix are its dense matrices, for small-scale oracles.

The M channel outputs are one M x L array (row m from channel m), built by
convolve_short from the M x K filter stack; a list of M vectors also works.
"""

import numpy as np

from .exceptions import DimensionError, InputError


def as_signal(values):
    """Validate and return a 1-D complex128 signal vector.

    Raises InputError on empty input or non-finite entries.
    """
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise InputError(f"signal must be a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InputError("signal contains non-finite entries")
    return v


def zero_pad(h, length):
    """Extend a short vector with zeros to the given length."""
    h = as_signal(h)
    if len(h) > length:
        raise DimensionError(f"cannot pad length {len(h)} to shorter length {length}")
    out = np.zeros(length, dtype=np.complex128)
    out[: len(h)] = h
    return out


def circulant(v):
    """Dense L x L circulant matrix whose first column is v.

    Multiplying this matrix by a vector circularly convolves v with it.
    Intended for small-scale oracles and diagnostics.
    """
    v = as_signal(v)
    n = len(v)
    i = np.arange(n)
    return v[(i[:, None] - i[None, :]) % n]


def conv_matrix(v, filter_len):
    """Dense L x K matrix mapping a short filter to its circular convolution with v.

    Equals the first K columns of circulant(v).
    """
    v = as_signal(v)
    if filter_len > len(v):
        raise DimensionError(f"filter length {filter_len} exceeds signal length {len(v)}")
    return circulant(v)[:, :filter_len]


def convolve_short(v, h):
    """Apply conv_matrix(v, K) to a length-K filter, or to each row of an
    M x K filter stack (giving M x L outputs), without forming the matrix."""
    v = as_signal(v)
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim not in (1, 2):
        raise InputError(f"filter must be a vector or an M x K stack, got shape {h.shape}")
    as_signal(h.reshape(-1))  # nonempty and finite
    if h.shape[-1] > len(v):
        raise DimensionError(f"filter length {h.shape[-1]} exceeds signal length {len(v)}")
    return np.fft.ifft(np.fft.fft(v) * np.fft.fft(h, n=len(v), axis=-1), axis=-1)
