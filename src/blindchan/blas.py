"""numpy's bundled OpenBLAS, reached through ctypes: its thread count and the
LAPACK kernels of one Hermitian eigensolve.

Dense kernels give different roundoff on different OpenBLAS thread counts,
so trials run with OpenBLAS pinned to one thread (`single_thread`); that
also keeps worker processes from oversubscribing the cores.  The same
library gives `spectrum_and_min_vector` LAPACK's zlanhe, zhetrd, dsterf,
zstein and zunmtr: one Householder reduction yields both the spectrum (the
kernels numpy.linalg.eigvalsh runs) and the eigenvector of its smallest
value, after the matrix is scaled by the zlanhe norm that eigvalsh's zheevd
scales by.

`LIB` is None when numpy does not bundle scipy-openblas (another BLAS, or
another platform's file layout).  The pin then does nothing, runs record
their BLAS thread setting as "uncontrolled", and `spectrum_and_min_vector`
falls back to np.linalg.eigh.
"""

import ctypes
import glob
import os
from contextlib import contextmanager

import numpy as np

from .exceptions import InputError

_COL_MAJOR = 102  # LAPACK_COL_MAJOR
_INT = ctypes.c_int64  # lapack_int of the ILP64 ("64_") build

#: zheevd's scaling thresholds on max |a_ij|: sqrt(safe minimum / precision)
#: and its inverse, 2**-485 and 2**485
_RMIN = np.sqrt(np.finfo(float).tiny / np.finfo(float).eps)
_RMAX = 1 / _RMIN

#: symbol -> (restype, argtypes)
_SIGNATURES = {
    "scipy_openblas_get_num_threads64_": (ctypes.c_int, []),
    "scipy_openblas_set_num_threads64_": (None, [ctypes.c_int]),
    # (layout, norm, uplo, n, a, lda)
    "scipy_LAPACKE_zlanhe64_": (
        ctypes.c_double, [ctypes.c_int, ctypes.c_char, ctypes.c_char, _INT, ctypes.c_void_p, _INT],
    ),
    # (layout, uplo, n, a, lda, d, e, tau)
    "scipy_LAPACKE_zhetrd64_": (
        _INT, [ctypes.c_int, ctypes.c_char, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p,
               ctypes.c_void_p, ctypes.c_void_p],
    ),
    # (n, d, e)
    "scipy_LAPACKE_dsterf64_": (_INT, [_INT, ctypes.c_void_p, ctypes.c_void_p]),
    # (layout, n, d, e, m, w, iblock, isplit, z, ldz, ifail)
    "scipy_LAPACKE_zstein64_": (
        _INT, [ctypes.c_int, _INT, ctypes.c_void_p, ctypes.c_void_p, _INT, ctypes.c_void_p,
               ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, _INT, ctypes.c_void_p],
    ),
    # (layout, side, uplo, trans, m, n, a, lda, tau, c, ldc)
    "scipy_LAPACKE_zunmtr64_": (
        _INT, [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char, _INT, _INT,
               ctypes.c_void_p, _INT, ctypes.c_void_p, ctypes.c_void_p, _INT],
    ),
}


def _load():
    """numpy's scipy-openblas with every symbol of _SIGNATURES declared, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
    if len(paths) != 1:
        return None
    try:
        lib = ctypes.CDLL(paths[0])  # the copy numpy already loaded
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError):
        return None
    return lib


LIB = _load()


def thread_setting():
    """The OpenBLAS thread count `single_thread` runs at: 1, or "uncontrolled"
    when the library is not there to pin."""
    return 1 if LIB is not None else "uncontrolled"


@contextmanager
def single_thread():
    """Run the block with OpenBLAS on one thread; restore the caller's count
    afterwards, also when the block raises.  Without the library, do nothing."""
    lib = LIB
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _check_info(routine, info):
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} info {info}")


def spectrum_and_min_vector(a):
    """(w, v): the ascending eigenvalues of a Hermitian matrix and a unit
    eigenvector of w[0].  `a` must be a square, Fortran-ordered complex128
    array holding the matrix in its lower triangle; only that triangle is
    read, and `a` is overwritten.  A non-finite entry there raises InputError.

    With the library: zlanhe('M', 'L') gives max |a_ij|, and `a` is scaled
    by it as zheevd scales.  zhetrd('L') reduces `a` to a real tridiagonal T
    once.  dsterf on copies of T gives the spectrum, the kernels eigvalsh
    runs, so under `single_thread` w has the bits of np.linalg.eigvalsh.
    zstein takes T's eigenvector at w[0] by inverse iteration on T (both
    scaled back to about unit norm by a power of 2 when `a` was scaled, or
    the iteration overflows), and zunmtr maps it back through the
    Householder reflectors.  Without the
    library: one np.linalg.eigh.  A nonzero LAPACK info raises
    np.linalg.LinAlgError.
    """
    n = a.shape[0]
    if a.shape != (n, n) or a.dtype != np.complex128 or not a.flags.f_contiguous:
        raise ValueError(f"expected a square Fortran-ordered complex128 array, got {a.shape}")
    if LIB is None:
        if not np.all(np.isfinite(a)):
            raise InputError("matrix contains non-finite entries")
        w, vecs = np.linalg.eigh(a)
        return w, vecs[:, 0]
    # the norm zheevd scales by, read from the lower triangle with no n^2
    # temporary; LAPACKE returns -5 when its NaN check trips, inf for an inf
    a_ptr = a.ctypes.data
    anrm = LIB.scipy_LAPACKE_zlanhe64_(_COL_MAJOR, b"M", b"L", n, a_ptr, n)
    if not 0 <= anrm < np.inf:
        raise InputError("matrix contains non-finite entries")
    if anrm == 0:  # zstein would divide by ||T|| = 0; every vector is an eigenvector
        return np.zeros(n), np.eye(n, 1, dtype=np.complex128)[:, 0]
    # zheevd's scaling of max |a_ij| into [_RMIN, _RMAX], so that w keeps
    # eigvalsh's bits at any scale
    sigma = min(max(anrm, _RMIN), _RMAX) / anrm  # exactly 1 inside the bounds
    if sigma != 1:
        a *= sigma
    # one buffer per dtype, each pointer read once.  real holds n entries
    # each of T's diagonal d and off-diagonal e (zhetrd sets n - 1; zstein's
    # NaN check reads n), the spectrum w, dsterf's copy of e, and zstein's
    # eigenvalue followed by zeros (LAPACKE's NaN check reads n); cplx holds
    # tau and the vector v; ints zstein's iblock, isplit and ifail, with T
    # declared as one block
    real = np.zeros(5 * n)
    cplx = np.empty(2 * n, dtype=np.complex128)  # tau needs max(n - 1, 1) <= n
    ints = np.array([1, n, 0], dtype=np.int64)
    r_ptr, c_ptr, i_ptr = real.ctypes.data, cplx.ctypes.data, ints.ctypes.data
    d_ptr, e_ptr, w_ptr, s_ptr, w0_ptr = (r_ptr + 8 * n * k for k in range(5))
    tau_ptr, v_ptr = c_ptr, c_ptr + 16 * n
    _check_info("zhetrd", LIB.scipy_LAPACKE_zhetrd64_(
        _COL_MAJOR, b"L", n, a_ptr, n, d_ptr, e_ptr, tau_ptr))
    real[2 * n : 4 * n] = real[: 2 * n]  # w = d, scratch = e
    _check_info("dsterf", LIB.scipy_LAPACKE_dsterf64_(n, w_ptr, s_ptr))
    # zstein's inverse iteration overflows near 2**485 (n >= 64), so it
    # takes T and w[0] scaled back to about unit norm by a power of 2, which
    # is exact: inside the bounds its input is unchanged
    unit = 1.0
    if sigma != 1:
        unit = _RMIN if sigma < 1 else _RMAX
        real[: 2 * n] *= unit
    real[4 * n] = real[2 * n] * unit
    _check_info("zstein", LIB.scipy_LAPACKE_zstein64_(
        _COL_MAJOR, n, d_ptr, e_ptr, 1, w0_ptr, i_ptr, i_ptr + 8, v_ptr, n, i_ptr + 16))
    _check_info("zunmtr", LIB.scipy_LAPACKE_zunmtr64_(
        _COL_MAJOR, b"L", b"L", b"N", n, 1, a_ptr, n, tau_ptr, v_ptr, n))
    w = real[2 * n : 3 * n]
    if sigma != 1:
        w *= 1 / sigma
    return w, cplx[n:]
