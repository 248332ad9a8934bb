# src/anumrad/adjoint.py

"""The A-adjoint calculus: existence test (Douglas range condition), the
distinguished adjoint A^dagger T* A, A-selfadjoint/A-positive/A-unitary
predicates, real/imaginary parts, and the range compression through which
every A-gauge becomes a classical matrix quantity.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NoAdjoint
from .frame import AFrame, frame_scale
from .matrixcore import as_cmatrix, frob, herm_part, spec_norm

# Relative tolerance of the A-selfadjoint/A-positive/A-unitary predicates
# (verdict tolerances are catalog.DEFAULT_TOL).
PREDICATE_TOL = 1e-9


class ReducedOp(NamedTuple):
    """Compression U* A^{1/2} T (A^{1/2})^dagger U onto the range of A.

    For T admitting an A-adjoint, every A-gauge of T equals the classical
    gauge of ``mat``: the substitution y = A^{1/2} x maps the unit sphere of
    the A-seminorm (modulo the null space, which T leaves invariant) onto
    ordinary unit vectors of the range, preserving <Tx, x>_A and ||Tx||_A.
    """

    mat: np.ndarray
    source_dim: int


def _check_square(f: AFrame, t) -> np.ndarray:
    t = as_cmatrix(t)
    if t.shape != (f.dim, f.dim):
        raise DimensionMismatch(f"operator shape {t.shape} on a dim-{f.dim} frame")
    return t


def admits_a_adjoint(f: AFrame, t) -> bool:
    """Douglas criterion: R(T* A) inside R(A), tested as a projector residual."""
    t = _check_square(f, t)
    residual = frob((np.eye(f.dim) - f.projector) @ (t.conj().T @ f.a))
    return residual <= f.rank_tol * frame_scale(f, t)


def sharp(f: AFrame, t) -> np.ndarray:
    """Distinguished A-adjoint A^dagger T* A; requires the Douglas condition."""
    t = _check_square(f, t)
    if not admits_a_adjoint(f, t):
        raise NoAdjoint("operator does not satisfy the Douglas range condition")
    return f.pinv_a @ t.conj().T @ f.a


def re_a(f: AFrame, t) -> np.ndarray:
    """A-real part (T + T^sharp)/2."""
    t = _check_square(f, t)
    return 0.5 * (t + sharp(f, t))


def im_a(f: AFrame, t) -> np.ndarray:
    """A-imaginary part (T - T^sharp)/(2i)."""
    t = _check_square(f, t)
    return (t - sharp(f, t)) / 2j


def is_a_selfadjoint(f: AFrame, t, tol: float = PREDICATE_TOL) -> bool:
    """True when A T is Hermitian within a relative tolerance."""
    t = _check_square(f, t)
    at = f.a @ t
    return frob(at - at.conj().T) <= tol * (1.0 + frob(at))


def is_a_positive(f: AFrame, t, tol: float = PREDICATE_TOL) -> bool:
    """True when A T is Hermitian PSD within a relative tolerance."""
    t = _check_square(f, t)
    at = f.a @ t
    if frob(at - at.conj().T) > tol * (1.0 + frob(at)):
        return False
    lam = np.linalg.eigvalsh(herm_part(at))
    return float(lam[0]) >= -tol * (1.0 + spec_norm(at))


def is_a_unitary(f: AFrame, u, tol: float = PREDICATE_TOL) -> bool:
    """U^sharp U = (U^sharp)^sharp U^sharp = P_A within tolerance."""
    u = _check_square(f, u)
    us = sharp(f, u)
    uss = sharp(f, us)
    scale = tol * (1.0 + frob(f.projector))
    return (
        frob(us @ u - f.projector) <= scale
        and frob(uss @ us - f.projector) <= scale
    )


def reduced(f: AFrame, t) -> ReducedOp:
    """Range compression of T; requires an A-adjoint so the compression is
    gauge-faithful (T must leave the null space of A invariant)."""
    t = _check_square(f, t)
    if not admits_a_adjoint(f, t):
        raise NoAdjoint("operator does not satisfy the Douglas range condition")
    u = f.range_u
    return ReducedOp(u.conj().T @ f.sqrt_a @ t @ f.pinv_sqrt_a @ u, f.dim)
