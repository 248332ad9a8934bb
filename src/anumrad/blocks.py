# src/anumrad/blocks.py

"""2x2 operator-matrix constructions over the doubled space H + H, at every
rank of the metric.

The doubled metric is diag(A, A); its numerical radius ("wB") of an
assembled block operator is always computed on the full 2n x 2n matrix
through the doubled frame, never through the closed-form identity under
test. ``block_gauge`` returns both sides so identities stay test subjects.
"""

from __future__ import annotations

import numpy as np

from .adjoint import sharp
from .errors import DimensionMismatch
from .frame import AFrame, direct_sum
from .gauges import a_numerical_radius
from .matrixcore import as_cmatrix, frob, tile

PATTERNS = ("diag", "antidiag", "antidiag_phase", "symmetric")


def assemble(t11, t12, t21, t22) -> np.ndarray:
    """Tile four equal square blocks into one 2n x 2n operator."""
    blocks = [as_cmatrix(b) for b in (t11, t12, t21, t22)]
    n = blocks[0].shape[0]
    for b in blocks:
        if b.shape != (n, n):
            raise DimensionMismatch(
                f"blocks must all be {n}x{n}, got {[b.shape for b in blocks]}"
            )
    return tile(*blocks)


def b_sharp_blockwise_check(f: AFrame, t) -> float:
    """Residual of the blockwise adjoint identity for the doubled metric.

    ``t`` is a 2n x 2n operator on a dim-n frame. Its adjoint under
    diag(A, A) is the block transpose of the entrywise A-adjoints of its
    quarters; returns the Frobenius distance between the two computations
    (contract: <= 1e-9 * (1 + scale)).
    """
    t = as_cmatrix(t)
    direct = sharp(direct_sum(f), t)  # raises DimensionMismatch unless 2n x 2n
    n = f.dim
    t11, t12, t21, t22 = t[:n, :n], t[:n, n:], t[n:, :n], t[n:, n:]
    blockwise = tile(sharp(f, t11), sharp(f, t21), sharp(f, t12), sharp(f, t22))
    return frob(direct - blockwise)


def block_gauge(
    f: AFrame,
    pattern: str,
    x,
    y,
    theta: float | None = None,
) -> tuple[float, float]:
    """Doubled-frame numerical radius of a patterned block operator and the
    matching closed form, at every rank of A.

    Patterns and their closed forms:
      diag            [[X, 0], [0, Y]]          max(w_A(X), w_A(Y))
      antidiag        [[0, X], [Y, 0]]          wB of the swapped antidiagonal
      antidiag_phase  [[0, X], [e^{i theta}Y, 0]]  wB of the phase-free one
      symmetric       [[X, Y], [Y, X]]          max(w_A(X+Y), w_A(X-Y))
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    x = as_cmatrix(x)
    y = as_cmatrix(y)
    zero = np.zeros_like(x)
    bf = direct_sum(f)
    if pattern == "diag":
        op = assemble(x, zero, zero, y)
        rhs = max(a_numerical_radius(f, x), a_numerical_radius(f, y))
    elif pattern == "antidiag":
        op = assemble(zero, x, y, zero)
        rhs = a_numerical_radius(bf, assemble(zero, y, x, zero))
    elif pattern == "antidiag_phase":
        if theta is None:
            raise ValueError("antidiag_phase requires theta")
        op = assemble(zero, x, np.exp(1j * theta) * y, zero)
        rhs = a_numerical_radius(bf, assemble(zero, x, y, zero))
    else:  # symmetric
        op = assemble(x, y, y, x)
        rhs = max(
            a_numerical_radius(f, x + y), a_numerical_radius(f, x - y)
        )
    wb = a_numerical_radius(bf, op)
    return wb, rhs
