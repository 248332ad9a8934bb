# src/anumrad/matrixcore.py

"""Dense complex matrix primitives: validation, norms and singular values.
The metric itself is kept as one eigendecomposition by ``frame.new_frame``.

All routines work on plain ``numpy.ndarray`` values with dtype complex128.
Matrices are desk-scale (n <= ~64); numpy/LAPACK is used throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

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


def spec_norm(m) -> float:
    """Spectral norm (largest singular value)."""
    if min(m.shape) == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def herm_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def singular_values(m) -> np.ndarray:
    m = as_cmatrix(m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc
