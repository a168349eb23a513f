"""Hermitian eigen service.

`eig_hermitian` returns the full spectrum plus the smallest eigenpair;
every estimator and check reads it.  Both come from one Householder
reduction to tridiagonal form (blas.spectrum_and_min_vector): the spectrum
from the kernels numpy.linalg.eigvalsh runs, which resolve the 1e-5-scale
relative gaps these matrices exhibit, and the one eigenvector the
estimators read by inverse iteration on the tridiagonal matrix, mapped back
through the reduction.  Returned eigenvectors are phase-canonicalized
(largest-magnitude entry made real and positive) so results are
deterministic.
"""

from dataclasses import dataclass

import numpy as np

from . import blas
from .exceptions import InputError
from .metrics import sin_angle

#: Two smallest eigenvalues closer than this (relative to the largest) are
#: treated as degenerate: the minimizer is no longer essentially unique.
DEGENERACY_RTOL = 1e-12


def canonical_phase(v):
    """Rotate a vector's global phase so its largest-magnitude entry is real positive."""
    v = np.asarray(v, dtype=np.complex128)
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if pivot == 0:
        return v.copy()
    return v * (np.conj(pivot) / abs(pivot))


@dataclass(frozen=True)
class EigenResult:
    """Full Hermitian spectrum (sorted descending) and the smallest eigenpair.

    `vector` is the unit, phase-canonicalized eigenvector of `lambda_min`.
    """

    eigenvalues: np.ndarray
    vector: np.ndarray

    @property
    def lambda_min(self):
        return float(self.eigenvalues[-1])

    @property
    def lambda_second(self):
        return float(self.eigenvalues[-2])

    @property
    def lambda_max(self):
        return float(self.eigenvalues[0])

    @property
    def gap_ratio(self):
        """lambda_second / lambda_max (inf for the zero matrix)."""
        lam_max = self.eigenvalues[0]
        return float(self.eigenvalues[-2] / lam_max) if lam_max != 0 else np.inf

    @property
    def degenerate(self):
        """Two smallest eigenvalues equal within DEGENERACY_RTOL * |lambda_max|."""
        w = self.eigenvalues
        return bool(w[-2] - w[-1] <= DEGENERACY_RTOL * abs(w[0]))


@dataclass(frozen=True)
class DavisKahanReport:
    premise_holds: bool
    lhs: float
    rhs: float
    gap: float
    perturbation_norm: float


def hermitian_part_t(blocks_t):
    """(B^H + B)^T / 2 of each block B of a stack whose last two axes hold B^T, as
    one new C-ordered array, so hermitian_part_t(A.T).T is A's Hermitian part in
    Fortran order.  B^H is added first; addition commutes exactly, so the bits
    are those of (B + B^H) / 2 too."""
    herm = np.conjugate(np.swapaxes(blocks_t, -1, -2), order="C")
    herm += blocks_t
    herm /= 2
    return herm


def _check_matrix(A):
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InputError("matrix contains non-finite entries")
    return hermitian_part_t(A.T).T  # Fortran-ordered, as LAPACK reads it


def eig_hermitian(A, overwrite_a=False):
    """Full spectrum and smallest eigenpair of a Hermitian matrix (dimension >= 2).

    The input is copied and symmetrized first.  With overwrite_a=True a
    caller that owns an exactly Hermitian, Fortran-ordered complex128 array
    (xcorr.cross_corr_matrix's Gram, solvers.debiased_compressed_gram's
    matrix) hands that buffer over instead: no copy and no symmetrize pass;
    both triangles are read, so the storage must be exactly Hermitian, and
    the buffer is destroyed.  Any buffer that is not Fortran-ordered
    complex128 raises ValueError there.  Eigenvalues are
    eigvalsh's, sorted descending.  The eigenvector of lambda_min is found by
    inverse iteration on the tridiagonal matrix that the spectrum's own
    Householder reduction produced, so the O(n^3) work is done once; its
    residual is at roundoff relative to |lambda|_max, and its error is that
    residual over the gap.
    """
    if not overwrite_a:
        A = _check_matrix(A)
    if A.shape[0] < 2:
        raise InputError("need dimension >= 2 for the smallest eigenpair and its gap")
    w, v = blas.spectrum_and_min_vector(A)  # overwrites A
    return EigenResult(eigenvalues=w[::-1], vector=canonical_phase(v))


def davis_kahan_check(A, E):
    """Evaluate the sin-theta perturbation bound for the smallest eigenvector.

    With gap = lambda_{n-1}(A) - lambda_n(A), the premise is
    ||E|| <= gap / 5; when it holds, the report compares

        lhs = sin-angle between the smallest eigenvectors of A and A + E
        rhs = 4 ||E q||_2 / gap

    Report-only: no exception is raised when the bound fails.
    """
    A = _check_matrix(A)
    E = _check_matrix(E)
    res = eig_hermitian(A)
    q = res.vector
    gap = res.lambda_second - res.lambda_min
    e_norm = float(np.linalg.norm(E, 2))
    premise = e_norm <= gap / 5
    lhs = sin_angle(q, eig_hermitian(A + E).vector)
    rhs = 4 * float(np.linalg.norm(E @ q)) / gap if gap > 0 else np.inf
    if e_norm == 0:
        lhs, rhs = 0.0, 0.0
    return DavisKahanReport(
        premise_holds=bool(premise), lhs=float(lhs), rhs=float(rhs), gap=gap,
        perturbation_norm=e_norm,
    )
