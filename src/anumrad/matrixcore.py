# src/anumrad/matrixcore.py

"""Dense complex matrix primitives: validation, norms, Hermitian
eigendecomposition and singular values. The metric's square root,
pseudoinverses and range basis all come from one eigendecomposition in
``frame.new_frame``.

All routines work on plain ``numpy.ndarray`` values with dtype complex128.
Matrices are desk-scale (n <= ~64); numpy/LAPACK is used throughout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NotHermitian

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


def as_cvector(a, dim: int | None = None) -> np.ndarray:
    """Validate and coerce input to a finite 1-D complex128 vector."""
    v = np.asarray(a, dtype=np.complex128).reshape(-1)
    if not (np.isfinite(v.real).all() and np.isfinite(v.imag).all()):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected a vector of length {dim}, got {v.shape[0]}")
    return v


def frob(m) -> float:
    return float(np.linalg.norm(m, "fro"))


def spec_norm(m) -> float:
    """Spectral norm (largest singular value)."""
    if min(m.shape) == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def herm_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


class EigDecomp(NamedTuple):
    """Hermitian eigendecomposition H = V diag(lam) V*, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(h, tol: float = DEFAULT_RANK_TOL) -> EigDecomp:
    """Eigendecomposition of a Hermitian matrix.

    Requires ||H - H*||_F <= tol*(1 + ||H||_F); raises NotHermitian otherwise.
    Eigenvalues come back sorted ascending with orthonormal eigenvectors.
    """
    h = as_cmatrix(h)
    if h.shape[0] != h.shape[1]:
        raise NotHermitian(f"matrix is not square: {h.shape}")
    dev = frob(h - h.conj().T)
    if dev > tol * (1.0 + frob(h)):
        raise NotHermitian(f"Hermitian deviation {dev:.3e} exceeds tolerance")
    try:
        lam, v = np.linalg.eigh(herm_part(h))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return EigDecomp(lam, v)


def singular_values(m) -> np.ndarray:
    m = as_cmatrix(m)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc
