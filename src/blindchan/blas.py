"""numpy's bundled OpenBLAS, reached through ctypes: its thread count and one LU.

Dense kernels give different roundoff on different OpenBLAS thread counts,
so trials run with OpenBLAS pinned to one thread (`single_thread`); that
also keeps worker processes from oversubscribing the cores.  The same
library gives `lu_solver` LAPACK's zgetrf and zgetrs, so inverse iteration
factors its shifted matrix once instead of once per step.

`LIB` is None when numpy does not bundle scipy-openblas (another BLAS, or
another platform's file layout).  The pin then does nothing, runs record
their BLAS thread setting as "uncontrolled", and `lu_solver` falls back to
np.linalg.solve.
"""

import ctypes
import glob
import os
from contextlib import contextmanager

import numpy as np

_COL_MAJOR = 102  # LAPACK_COL_MAJOR
_INT = ctypes.c_int64  # lapack_int of the ILP64 ("64_") build

#: symbol -> (restype, argtypes)
_SIGNATURES = {
    "scipy_openblas_get_num_threads64_": (ctypes.c_int, []),
    "scipy_openblas_set_num_threads64_": (None, [ctypes.c_int]),
    # (layout, m, n, a, lda, ipiv)
    "scipy_LAPACKE_zgetrf64_": (_INT, [ctypes.c_int, _INT, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p]),
    # (layout, trans, n, nrhs, a, lda, ipiv, b, ldb)
    "scipy_LAPACKE_zgetrs64_": (
        _INT,
        [ctypes.c_int, ctypes.c_char, _INT, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p,
         ctypes.c_void_p, _INT],
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


def lu_solver(A):
    """A function b -> A^-1 b for a square complex matrix A, factored once.

    With the library: one zgetrf here and one zgetrs per call, the two
    kernels OpenBLAS's zgesv runs, so under `single_thread` each call gives
    the bits of np.linalg.solve(A, b).  (On more threads zgetrf splits even
    small matrices and zgesv does not, so the last bits can differ.)
    Without the library: np.linalg.solve on every call.  A singular A raises
    np.linalg.LinAlgError either way.
    """
    if LIB is None:
        return lambda b: np.linalg.solve(A, b)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    lu = np.array(A, dtype=np.complex128, order="F")
    ipiv = np.empty(n, dtype=np.int64)
    info = LIB.scipy_LAPACKE_zgetrf64_(_COL_MAJOR, n, n, lu.ctypes.data, n, ipiv.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError("Singular matrix" if info > 0 else f"zgetrf info {info}")

    def solve(b):
        x = np.array(b, dtype=np.complex128)  # a contiguous copy zgetrs overwrites
        if x.shape != (n,):
            raise ValueError(f"expected a vector of length {n}, got shape {x.shape}")
        info = LIB.scipy_LAPACKE_zgetrs64_(
            _COL_MAJOR, b"N", n, 1, lu.ctypes.data, n, ipiv.ctypes.data, x.ctypes.data, n
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"zgetrs info {info}")
        return x

    return solve
