# src/anumrad/adjoint.py

"""The A-adjoint calculus: existence test (Douglas range condition), the
distinguished adjoint A^dagger T* A, and the range compression through which
every A-gauge becomes a classical matrix quantity. A-positivity needs no
predicate of its own: T is A-positive (A T Hermitian PSD) exactly when it
admits an A-adjoint and K(T) is Hermitian PSD.

With A = U diag(lam) U* and N spanning the null space (``frame.AFrame``),
the Douglas test and the compression both read U* T, and every caller that
needs an A-adjoint runs the one requirement ``require_adjoint``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoAdjoint
from .frame import AFrame
from .matrixcore import DEFAULT_RANK_TOL, as_cmatrix, frob, herm_part, pow2_unit


def _douglas(f: AFrame, t):
    """(T as a validated n x n matrix, whether it admits an A-adjoint).

    Douglas criterion: R(T* A) lies in R(A) exactly when A T N = 0, tested as
    ||diag(lam) U* T N||_F <= DEFAULT_RANK_TOL (1 + ||T||_F ||lam||_2), where
    ||lam||_2 is ||A||_F up to the eigenvalues below the rank tolerance. T
    enters the test brought to unit peak by an exact power of two
    (``pow2_unit``) and lam divided by lambda_max, which leaves the test
    scale-free in both and keeps its norms from overflowing or underflowing
    at any scale.
    """
    t = as_cmatrix(t)
    if t.shape != (f.dim, f.dim):
        raise DimensionMismatch(f"operator shape {t.shape} on a dim-{f.dim} frame")
    unit = pow2_unit(t)
    lam = f.lam / (f.lam[0] if f.rank else 1.0)
    residual = frob(lam[:, None] * (f.range_u.conj().T @ unit @ f.null_u))
    scale = frob(unit) * float(np.linalg.norm(lam))
    return t, residual <= DEFAULT_RANK_TOL * (1.0 + scale)


def admits_a_adjoint(f: AFrame, t) -> bool:
    """Douglas criterion: R(T* A) inside R(A), that is A T N = 0."""
    return _douglas(f, t)[1]


def require_adjoint(f: AFrame, t) -> np.ndarray:
    """``t`` as a validated n x n matrix, once it admits an A-adjoint; the one
    place that raises NoAdjoint for an operator."""
    t, admits = _douglas(f, t)
    if not admits:
        raise NoAdjoint("operator does not satisfy the Douglas range condition")
    return t


def sharp(f: AFrame, t) -> np.ndarray:
    """Distinguished A-adjoint A^dagger T* A; requires the Douglas condition."""
    t = require_adjoint(f, t)
    u = f.range_u
    pinv_a = herm_part((u / f.lam) @ u.conj().T)
    return pinv_a @ t.conj().T @ f.a


def reduced(f: AFrame, t) -> np.ndarray:
    """Range compression K(T) = U* A^{1/2} T (A^{1/2})^dagger U of T, an r x r
    matrix, formed as diag(lam)^{1/2} (U* T U) diag(lam)^{-1/2}.

    Requires an A-adjoint (T must leave the null space of A invariant). Then
    every A-gauge of T equals the classical gauge of the compression: the
    substitution y = A^{1/2} x maps the unit sphere of the A-seminorm (modulo
    the null space) onto ordinary unit vectors of the range, preserving
    <Tx, x>_A and ||Tx||_A.
    """
    t = require_adjoint(f, t)
    root = np.sqrt(f.lam)
    return root[:, None] * ((f.range_u.conj().T @ t) @ f.range_u) / root
