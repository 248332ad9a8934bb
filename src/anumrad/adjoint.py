# src/anumrad/adjoint.py

"""The A-adjoint calculus: existence test (Douglas range condition), the
distinguished adjoint A^dagger T* A, the A-positivity predicate, and the
range compression through which every A-gauge becomes a classical matrix
quantity.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoAdjoint
from .frame import AFrame, frame_scale
from .matrixcore import DEFAULT_RANK_TOL, as_cmatrix, frob, herm_part, spec_norm

# Relative tolerance of the A-positivity predicate (verdict tolerances are
# catalog.DEFAULT_TOL).
PREDICATE_TOL = 1e-9


def _check_square(f: AFrame, t) -> np.ndarray:
    t = as_cmatrix(t)
    if t.shape != (f.dim, f.dim):
        raise DimensionMismatch(f"operator shape {t.shape} on a dim-{f.dim} frame")
    return t


def admits_a_adjoint(f: AFrame, t) -> bool:
    """Douglas criterion: R(T* A) inside R(A), tested as a projector residual."""
    t = _check_square(f, t)
    residual = frob((np.eye(f.dim) - f.projector) @ (t.conj().T @ f.a))
    return residual <= DEFAULT_RANK_TOL * frame_scale(f, t)


def sharp(f: AFrame, t) -> np.ndarray:
    """Distinguished A-adjoint A^dagger T* A; requires the Douglas condition."""
    t = _check_square(f, t)
    if not admits_a_adjoint(f, t):
        raise NoAdjoint("operator does not satisfy the Douglas range condition")
    return f.pinv_a @ t.conj().T @ f.a


def is_a_positive(f: AFrame, t) -> bool:
    """True when A T is Hermitian PSD within PREDICATE_TOL (relative)."""
    t = _check_square(f, t)
    at = f.a @ t
    if frob(at - at.conj().T) > PREDICATE_TOL * (1.0 + frob(at)):
        return False
    lam = np.linalg.eigvalsh(herm_part(at))
    return float(lam[0]) >= -PREDICATE_TOL * (1.0 + spec_norm(at))


def reduced(f: AFrame, t) -> np.ndarray:
    """Range compression U* A^{1/2} T (A^{1/2})^dagger U of T, an r x r matrix.

    Requires an A-adjoint (T must leave the null space of A invariant). Then
    every A-gauge of T equals the classical gauge of the compression: the
    substitution y = A^{1/2} x maps the unit sphere of the A-seminorm (modulo
    the null space) onto ordinary unit vectors of the range, preserving
    <Tx, x>_A and ||Tx||_A.
    """
    t = _check_square(f, t)
    if not admits_a_adjoint(f, t):
        raise NoAdjoint("operator does not satisfy the Douglas range condition")
    u = f.range_u
    return u.conj().T @ f.sqrt_a @ t @ f.pinv_sqrt_a @ u
