"""Hermitian eigen service.

`eig_hermitian` returns the full spectrum plus the smallest eigenpair by
shifted inverse iteration; opt-in power iteration (`smallest_eigvec`) serves
matrix-free operators.  The spectrum comes from LAPACK (numpy.linalg.eigvalsh),
which resolves the 1e-5-scale relative gaps these matrices exhibit; only the
one eigenvector the estimators read is ever formed.  Returned eigenvectors
are phase-canonicalized (largest-magnitude entry made real and positive) so
results are deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, PowerIterationError

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


def _as_apply(A, dim):
    if callable(A):
        if dim is None:
            raise InputError("matrix-free operator requires an explicit dimension")
        return A, int(dim)
    A = _check_matrix(A)
    return (lambda v: A @ v), A.shape[0]


def smallest_eigvec(A, dim=None, method="dense", tol=1e-10, max_iter=10000, rng=None):
    """Smallest eigenpair (lambda_min, unit eigenvector) of a Hermitian PSD operator.

    method="dense" (default) reads the eig_hermitian service.  method="power"
    estimates lambda_max with 50 power steps, then runs power iteration on
    the reflected operator sigma*I - A with sigma = 1.01 * lambda_max,
    stopping when successive iterates have sin-angle < tol.  The iterative
    path accepts a matrix-free callable plus `dim` and raises
    PowerIterationError (carrying the final residual) on non-convergence;
    callers may fall back to the dense path.
    """
    if method == "dense":
        res = eig_hermitian(A)
        return res.lambda_min, res.vector
    if method != "power":
        raise InputError(f"unknown method {method!r}")
    apply_a, n = _as_apply(A, dim)
    rng = rng if rng is not None else np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(50):
        w = apply_a(v)
        nw = np.linalg.norm(w)
        if nw == 0:  # A v = 0: v is already an exact null vector
            return 0.0, canonical_phase(v)
        v = w / nw
    lam_max = float(np.real(np.vdot(v, apply_a(v))))
    sigma = 1.01 * lam_max if lam_max > 0 else 1.0
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    last = np.inf
    for _ in range(max_iter):
        w = sigma * v - apply_a(v)
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        w /= nw
        # sin-angle between unit iterates via the projection residual, which
        # stays accurate where 1 - |<w,v>|^2 would cancel to zero
        last = np.linalg.norm(w - v * np.vdot(v, w))
        v = w
        if last < tol:
            lam = float(np.real(np.vdot(v, apply_a(v))))
            return lam, canonical_phase(v)
    raise PowerIterationError(
        f"power iteration did not reach sin-angle {tol:g} in {max_iter} steps", residual=last
    )


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
