"""Hermitian eigen service.

`eig_hermitian` returns the full spectrum plus the smallest eigenpair by
shifted inverse iteration; every estimator and check reads it.  The
spectrum comes from LAPACK (numpy.linalg.eigvalsh), which resolves the
1e-5-scale relative gaps these matrices exhibit; only the one eigenvector
the estimators read is ever formed.  Returned eigenvectors are
phase-canonicalized (largest-magnitude entry made real and positive) so
results are deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError

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


def _check_matrix(A):
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InputError("matrix contains non-finite entries")
    return (A + A.conj().T) / 2


def eig_hermitian(A):
    """Full spectrum and smallest eigenpair of a Hermitian matrix (dimension >= 2).

    The input is symmetrized first.  Eigenvalues come from eigvalsh, sorted
    descending.  The eigenvector of lambda_min comes from two steps of
    inverse iteration shifted to sigma = lambda_min - 4 n eps |lambda|_max:
    A - sigma I stays nonsingular even when A is exactly singular, and each
    step shrinks the error by about 4 n eps |lambda|_max / gap.
    """
    A = _check_matrix(A)
    n = A.shape[0]
    if n < 2:
        raise InputError("need dimension >= 2 for the smallest eigenpair and its gap")
    w = np.linalg.eigvalsh(A)
    scale = max(abs(w[0]), abs(w[-1]))
    # fixed quadratic-phase chirp start: equal-modulus entries sharing no
    # symmetry (constant, alternating, real) with structured eigenvectors
    k = np.arange(n)
    v = np.exp(1j * np.pi * k * k / n) / np.sqrt(n)
    if scale > 0:  # the zero matrix takes every vector as an eigenvector
        A[np.diag_indices(n)] -= w[0] - 4 * n * np.finfo(float).eps * scale  # A is our copy
        for _ in range(2):
            v = np.linalg.solve(A, v)
            v /= np.linalg.norm(v)
    return EigenResult(eigenvalues=w[::-1], vector=canonical_phase(v))


def davis_kahan_check(A, E):
    """Evaluate the sin-theta perturbation bound for the smallest eigenvector.

    With gap = lambda_{n-1}(A) - lambda_n(A), the premise is
    ||E|| <= gap / 5; when it holds, the report compares

        lhs = sin-angle between the smallest eigenvectors of A and A + E
        rhs = 4 ||E q||_2 / gap

    Report-only: no exception is raised when the bound fails.
    """
    from .metrics import sin_angle  # local import to avoid a cycle

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
