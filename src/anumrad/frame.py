# src/anumrad/frame.py

"""Metric frames: a validated positive operator A stored as its
eigendecomposition A = U diag(lam) U*, with N spanning the null space. Every
A-calculus quantity is read from (lam, U, N). Frames are immutable and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, NotPSD
from .matrixcore import DEFAULT_RANK_TOL, as_cmatrix, frob, herm_part


@dataclass(frozen=True)
class AFrame:
    """A positive semidefinite metric A = U diag(lam) U* and its null space.

    Fields:
      dim               matrix dimension n
      a                 the metric itself (Hermitian PSD)
      lam               the r kept eigenvalues, positive, in range_u's column order
      range_u           n x r orthonormal basis U of the range of A
      null_u            n x (n-r) orthonormal basis N of the null space of A
      rank              numerical rank r (eigenvalues above DEFAULT_RANK_TOL*||A||)
      strictly_positive r == n
    """

    dim: int
    a: np.ndarray
    lam: np.ndarray
    range_u: np.ndarray
    null_u: np.ndarray
    rank: int
    strictly_positive: bool


def _freeze(*mats: np.ndarray) -> None:
    for m in mats:
        m.setflags(write=False)


def new_frame(a) -> AFrame:
    """Validate a metric operator and keep its eigendecomposition.

    Raises NotHermitian / NotPSD when A fails to be a positive operator.
    """
    a = as_cmatrix(a).copy()  # frames own (and freeze) their matrices
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise NotHermitian(f"metric must be square, got {a.shape}")
    dev = frob(a - a.conj().T)
    if dev > DEFAULT_RANK_TOL * (1.0 + frob(a)):
        raise NotHermitian(f"Hermitian deviation {dev:.3e} exceeds tolerance")
    try:
        lam, v = np.linalg.eigh(herm_part(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    scale = float(np.max(np.abs(lam))) if n else 0.0
    if n and float(lam[0]) < -DEFAULT_RANK_TOL * scale:
        raise NotPSD(f"eigenvalue {lam[0]:.3e} below -tol*||A||")
    mask = lam > DEFAULT_RANK_TOL * scale
    r = int(mask.sum())
    # dominant eigendirection first (stable within ties), so compressions of
    # diagonal metrics keep the natural coordinate order
    sel = np.nonzero(mask)[0]
    sel = sel[np.argsort(-lam[sel], kind="stable")]
    kept, u, un = lam[sel], v[:, sel], v[:, ~mask]
    _freeze(a, kept, u, un)
    return AFrame(dim=n, a=a, lam=kept, range_u=u, null_u=un, rank=r,
                  strictly_positive=(r == n))


def direct_sum(f: AFrame) -> AFrame:
    """Doubled frame for the 2x2 diagonal metric diag(A, A) on H + H.

    A, U and N are tiled blockwise and lam is repeated, so the block
    structure of every field is exact.
    """

    def blk(m: np.ndarray) -> np.ndarray:
        rows, cols = m.shape
        out = np.zeros((2 * rows, 2 * cols), dtype=m.dtype)
        out[:rows, :cols] = m
        out[rows:, cols:] = m
        return out

    a2, u2, un2 = blk(f.a), blk(f.range_u), blk(f.null_u)
    lam2 = np.concatenate((f.lam, f.lam))
    _freeze(a2, lam2, u2, un2)
    return AFrame(dim=2 * f.dim, a=a2, lam=lam2, range_u=u2, null_u=un2, rank=2 * f.rank,
                  strictly_positive=f.strictly_positive)
