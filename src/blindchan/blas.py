"""numpy's bundled OpenBLAS, reached through ctypes: its thread count and the
LAPACK kernels of one Hermitian eigensolve.

Dense kernels give different roundoff on different OpenBLAS thread counts,
so trials run with OpenBLAS pinned to one thread (`single_thread`); that
also keeps worker processes from oversubscribing the cores.  The same
library gives `spectrum_and_min_vector` LAPACK's zlanhe, zhetrd, dsterf,
zstein and zunmtr: one Householder reduction yields both the spectrum (the
kernels numpy.linalg.eigvalsh runs) and the eigenvector of its smallest
value, after the matrix is scaled as eigvalsh's zheevd scales it (zlanhe's
norm decides only where a range check on its parts cannot).

`LIB` is None when numpy does not bundle scipy-openblas (another BLAS, or
another platform's file layout).  The pin then does nothing, runs record
their BLAS thread setting as "uncontrolled", and `spectrum_and_min_vector`
falls back to np.linalg.eigh.
"""

import ctypes
import functools
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
    # (layout, uplo, n, a, lda, d, e, tau, work, lwork)
    "scipy_LAPACKE_zhetrd_work64_": (
        _INT, [ctypes.c_int, ctypes.c_char, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p,
               ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, _INT],
    ),
    # (n, d, e)
    "scipy_LAPACKE_dsterf64_": (_INT, [_INT, ctypes.c_void_p, ctypes.c_void_p]),
    # (layout, n, d, e, m, w, iblock, isplit, z, ldz, ifail)
    "scipy_LAPACKE_zstein64_": (
        _INT, [ctypes.c_int, _INT, ctypes.c_void_p, ctypes.c_void_p, _INT, ctypes.c_void_p,
               ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, _INT, ctypes.c_void_p],
    ),
    # (layout, side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork)
    "scipy_LAPACKE_zunmtr_work64_": (
        _INT, [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char, _INT, _INT,
               ctypes.c_void_p, _INT, ctypes.c_void_p, ctypes.c_void_p, _INT, ctypes.c_void_p,
               _INT],
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


@functools.lru_cache(maxsize=64)
def _lwork(n):
    """The workspace sizes LAPACKE's zhetrd and zunmtr allocate at order n,
    from lwork = -1 queries; zunmtr's sets its blocking, so each routine is
    given its own."""
    query = np.zeros(2, dtype=np.complex128)
    q_ptr = query.ctypes.data
    _check_info("zhetrd", LIB.scipy_LAPACKE_zhetrd_work64_(
        _COL_MAJOR, b"L", n, None, n, None, None, None, q_ptr, -1))
    _check_info("zunmtr", LIB.scipy_LAPACKE_zunmtr_work64_(
        _COL_MAJOR, b"L", b"L", b"N", n, 1, None, n, None, None, n, q_ptr + 16, -1))
    return tuple(int(size) for size in query.real)


def spectrum_and_min_vector(a):
    """(w, v): the ascending eigenvalues of a Hermitian matrix and a unit
    eigenvector of w[0].  `a` must be a square, Fortran-ordered complex128
    array holding the matrix exactly Hermitian in full storage (a == a^H
    entry for entry): both triangles are read, and `a` is overwritten.  A
    non-finite entry raises InputError.

    With the library: the largest |Re a_ij| and |Im a_ij| show whether
    max |a_ij| lies inside zheevd's scaling bounds, where `a` is taken as it
    is; otherwise (zero, tiny, huge or non-finite entries) zlanhe('M', 'L')
    gives max |a_ij|, and `a` is scaled by it as zheevd scales.  zhetrd('L')
    reduces `a` to a real tridiagonal T once.  dsterf on copies of T gives
    the spectrum, the kernels eigvalsh runs, so under `single_thread` w has
    the bits of np.linalg.eigvalsh.  zstein takes T's eigenvector at w[0] by
    inverse iteration on T (both scaled back to about unit norm by a power
    of 2 when `a` was scaled, or when the iteration overflowed on them
    unscaled), and zunmtr maps it back through the Householder reflectors.
    zhetrd and zunmtr run through LAPACKE's _work entry points, with the
    workspace LAPACKE would allocate and without its NaN checks.  Without
    the library: one np.linalg.eigh.  A nonzero LAPACK info raises
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
    a_ptr = a.ctypes.data
    # zheevd scales `a` when zlanhe's max |a_ij| lies outside [_RMIN, _RMAX].
    # With m = max(|Re a_ij|, |Im a_ij|), m <= max |a_ij| <= sqrt(2) m, so
    # m in [_RMIN, _RMAX / 2] means no scaling, shown by one max and one min
    # of the float64 view (both NaN if any entry is) instead of zlanhe's
    # hypot pass
    parts = a.T.view(np.float64)
    if _RMIN <= np.maximum(parts.max(), -parts.min()) <= _RMAX / 2:
        sigma = 1.0
    else:
        # the norm zheevd scales by, read from the lower triangle with no n^2
        # temporary; LAPACKE returns -5 when its NaN check trips, inf for an inf
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
    lwork_trd, lwork_mtr = _lwork(n)
    # one buffer per dtype, each pointer read once.  real holds n entries
    # each of T's diagonal d and off-diagonal e (zhetrd sets n - 1; zstein's
    # NaN check reads n), the spectrum w, dsterf's copy of e, and zstein's
    # eigenvalue followed by zeros (LAPACKE's NaN check reads n); cplx holds
    # tau, the vector v and the shared workspace; ints zstein's iblock,
    # isplit and ifail, with T declared as one block
    real = np.zeros(5 * n)
    cplx = np.empty(2 * n + max(lwork_trd, lwork_mtr), dtype=np.complex128)
    ints = np.array([1, n, 0], dtype=np.int64)
    r_ptr, c_ptr, i_ptr = real.ctypes.data, cplx.ctypes.data, ints.ctypes.data
    d_ptr, e_ptr, w_ptr, s_ptr, w0_ptr = (r_ptr + 8 * n * k for k in range(5))
    tau_ptr, v_ptr, work_ptr = c_ptr, c_ptr + 16 * n, c_ptr + 32 * n  # tau: max(n - 1, 1) <= n
    _check_info("zhetrd", LIB.scipy_LAPACKE_zhetrd_work64_(
        _COL_MAJOR, b"L", n, a_ptr, n, d_ptr, e_ptr, tau_ptr, work_ptr, lwork_trd))
    real[2 * n : 4 * n] = real[: 2 * n]  # w = d, scratch = e
    _check_info("dsterf", LIB.scipy_LAPACKE_dsterf64_(n, w_ptr, s_ptr))
    # zstein's inverse iteration overflows near 2**485 (n >= 64, from about
    # 2**480 on), so when `a` was scaled it takes T and w[0] scaled back to
    # about unit norm by a power of 2, which is exact.  Inside the bounds its
    # input is unchanged, and only a vector that overflows there is taken
    # again from T and w[0] scaled by 2**-485
    v = cplx[n : 2 * n]
    for unit in [1.0, _RMIN] if sigma == 1 else [_RMIN if sigma < 1 else _RMAX]:
        real[: 2 * n] *= unit  # zstein reads d and e, and writes only v
        real[4 * n] = real[2 * n] * unit
        _check_info("zstein", LIB.scipy_LAPACKE_zstein64_(
            _COL_MAJOR, n, d_ptr, e_ptr, 1, w0_ptr, i_ptr, i_ptr + 8, v_ptr, n, i_ptr + 16))
        if np.isfinite(v).all():
            break
    else:
        raise np.linalg.LinAlgError("zstein returned a non-finite vector")
    _check_info("zunmtr", LIB.scipy_LAPACKE_zunmtr_work64_(
        _COL_MAJOR, b"L", b"L", b"N", n, 1, a_ptr, n, tau_ptr, v_ptr, n, work_ptr, lwork_mtr))
    w = real[2 * n : 3 * n]
    if sigma != 1:
        w *= 1 / sigma
    return w, v
