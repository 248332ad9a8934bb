# src/anumrad/adjoint.py

"""The A-adjoint calculus: existence test (Douglas range condition), the
distinguished adjoint A^dagger T* A, and the range compression through which
every A-gauge becomes a classical matrix quantity. A-positivity needs no
predicate of its own: T is A-positive (A T Hermitian PSD) exactly when it
admits an A-adjoint and K(T) is Hermitian PSD.

With A = U diag(lam) U* and N spanning the null space (``frame.AFrame``),
the Douglas test and the compression both read U* T (``_range_rows``).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NoAdjoint
from .frame import AFrame
from .matrixcore import DEFAULT_RANK_TOL, as_cmatrix, frob, herm_part


def _check_square(f: AFrame, t) -> np.ndarray:
    t = as_cmatrix(t)
    if t.shape != (f.dim, f.dim):
        raise DimensionMismatch(f"operator shape {t.shape} on a dim-{f.dim} frame")
    return t


def _range_rows(f: AFrame, t):
    """(U* T, whether T admits an A-adjoint).

    Douglas criterion: R(T* A) lies in R(A) exactly when A T N = 0, tested as
    ||diag(lam) U* T N||_F <= DEFAULT_RANK_TOL (1 + ||T||_F ||lam||_2), where
    ||lam||_2 is ||A||_F up to the eigenvalues below the rank tolerance. T
    enters the test divided by its largest entry modulus and lam divided by
    lambda_max, which leaves the test scale-free in both and keeps its norms
    from overflowing.
    """
    t = _check_square(f, t)
    ut = f.range_u.conj().T @ t
    peak = float(np.max(np.abs(t))) or 1.0
    lam = f.lam / (f.lam[0] if f.rank else 1.0)
    residual = frob(lam[:, None] * (ut @ f.null_u) / peak)
    scale = frob(t / peak) * float(np.linalg.norm(lam))
    return ut, residual <= DEFAULT_RANK_TOL * (1.0 + scale)


def admits_a_adjoint(f: AFrame, t) -> bool:
    """Douglas criterion: R(T* A) inside R(A), that is A T N = 0."""
    return _range_rows(f, t)[1]


def sharp(f: AFrame, t) -> np.ndarray:
    """Distinguished A-adjoint A^dagger T* A; requires the Douglas condition."""
    t = _check_square(f, t)
    if not admits_a_adjoint(f, t):
        raise NoAdjoint("operator does not satisfy the Douglas range condition")
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
    ut, admits = _range_rows(f, t)
    if not admits:
        raise NoAdjoint("operator does not satisfy the Douglas range condition")
    root = np.sqrt(f.lam)
    return root[:, None] * (ut @ f.range_u) / root
