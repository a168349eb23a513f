"""Scalar diagnostics: principal angles and the dB-to-linear conversion.

How much noise an eigenvector estimate absorbs is measured directly, by
spectral.davis_kahan_check on the noiseless matrix and its noise
perturbation.
"""

import numpy as np

from .exceptions import InputError


def sin_angle(a, b):
    """Principal angle sine between two nonzero finite vectors, clamped to [0, 1].

    Invariant to nonzero complex scaling of either argument.  Evaluated as
    the normalized projection residual ||b - a <a,b>/||a||^2|| / ||b||, which
    stays accurate near zero where the textbook sqrt(1 - cos^2) form loses
    half the significant digits to cancellation.
    """
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if not (0 < na < np.inf and 0 < nb < np.inf):  # NaN fails too
        raise InputError("sin_angle requires nonzero vectors with finite entries and norms")
    a_unit = a / na
    residual = b - a_unit * np.vdot(a_unit, b)
    return float(min(1.0, np.linalg.norm(residual) / nb))


def min_phase_distance(a, b):
    """min over unit phases e^{i t} of ||a - e^{i t} b||_2, in closed form.

    The optimal phase aligns b's inner product with a; for unit vectors this
    sandwiches the principal angle sine within a sqrt(2) factor.
    """
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    ip = np.vdot(b, a)
    val = np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2 - 2 * abs(ip)
    return float(np.sqrt(max(0.0, val)))


def db_to_linear(db):
    return float(10.0 ** (db / 10.0))
