# src/anumrad/matrixcore.py

"""Dense complex matrix primitives: validation, norms, singular values and
the one 2x2 block tiling. The metric itself is kept as one eigendecomposition
by ``frame.new_frame``.

All routines work on plain ``numpy.ndarray`` values with dtype complex128.
Matrices are desk-scale (n <= ~64); numpy/LAPACK is used throughout.
"""

from __future__ import annotations

import math

import numpy as np


DEFAULT_RANK_TOL = 1e-10


def as_cmatrix(a) -> np.ndarray:
    """Validate and coerce input to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {m.shape}")
    if not (np.isfinite(m.real).all() and np.isfinite(m.imag).all()):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def frob(m) -> float:
    return float(np.linalg.norm(m, "fro"))


def pow2_unit(m: np.ndarray) -> np.ndarray:
    """``m`` times the power of two 2^e that puts its largest entry modulus
    in [1/2, 1), exact wherever it leaves an entry normal (a zero matrix is
    returned as is). 2^e goes in as two finite halves: for a subnormal peak
    2^e itself overflows, as does the reciprocal a division by it forms."""
    peak = float(np.max(np.abs(m)))
    if peak == 0.0:
        return m
    e = -math.frexp(peak)[1]
    return m * math.ldexp(1.0, e // 2) * math.ldexp(1.0, e - e // 2)


def spec_norm(m) -> float:
    """Spectral norm: the largest singular value, as ``np.linalg.norm(m, 2)``
    reads it from the same SVD, without that wrapper's argument handling
    (every caller's matrix is at least 1 x 1)."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def herm_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def tile(t11, t12, t21, t22) -> np.ndarray:
    """The 2x2 block matrix [[t11, t12], [t21, t22]] of four blocks shaped like
    ``t11`` (rectangular and n x 0 blocks included); a scalar block fills its
    quarter. Each block is copied exactly, as ``np.block`` would."""
    rows, cols = t11.shape
    out = np.empty((2 * rows, 2 * cols), dtype=np.result_type(t11, t12, t21, t22))
    out[:rows, :cols] = t11
    out[:rows, cols:] = t12
    out[rows:, :cols] = t21
    out[rows:, cols:] = t22
    return out


def singular_values(m) -> np.ndarray:
    """Descending singular values of a matrix the package built (callers
    validate their operands once, on the way in)."""
    return np.linalg.svd(m, compute_uv=False)
