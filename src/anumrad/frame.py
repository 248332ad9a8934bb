# src/anumrad/frame.py

"""Metric frames: a validated positive operator A together with every derived
artifact the A-calculus needs (square root, pseudoinverses, range basis,
orthogonal projector). Frames are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, NotPSD
from .matrixcore import DEFAULT_RANK_TOL, as_cmatrix, frob, herm_part


@dataclass(frozen=True)
class AFrame:
    """A positive semidefinite metric A with precomputed derived matrices.

    Fields:
      dim               matrix dimension n
      a                 the metric itself (Hermitian PSD)
      sqrt_a            A^{1/2}
      pinv_sqrt_a       (A^{1/2})^dagger
      pinv_a            A^dagger
      range_u           n x r orthonormal basis of the range of A
      null_u            n x (n-r) orthonormal basis of the null space of A
      rank              numerical rank r (eigenvalues above DEFAULT_RANK_TOL*||A||)
      projector         orthogonal projector onto the range of A (= U U*)
      strictly_positive r == n
    """

    dim: int
    a: np.ndarray
    sqrt_a: np.ndarray
    pinv_sqrt_a: np.ndarray
    pinv_a: np.ndarray
    range_u: np.ndarray
    null_u: np.ndarray
    rank: int
    projector: np.ndarray
    strictly_positive: bool


def _freeze(*mats: np.ndarray) -> None:
    for m in mats:
        m.setflags(write=False)


def new_frame(a) -> AFrame:
    """Validate a metric operator and eagerly compute its derived artifacts.

    Raises NotHermitian / NotPSD when A fails to be a positive operator.
    A single eigendecomposition feeds every derived matrix, so they are
    mutually consistent by construction.
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
    u = v[:, sel]
    un = v[:, ~mask]
    pos = np.clip(lam[sel], 0.0, None)
    root = np.sqrt(pos)
    sqrt_a = herm_part((u * root) @ u.conj().T)
    pinv_sqrt_a = herm_part((u / root) @ u.conj().T) if r else np.zeros_like(a)
    pinv_a = herm_part((u / pos) @ u.conj().T) if r else np.zeros_like(a)
    projector = herm_part(u @ u.conj().T)
    _freeze(a, sqrt_a, pinv_sqrt_a, pinv_a, u, un, projector)
    return AFrame(
        dim=n,
        a=a,
        sqrt_a=sqrt_a,
        pinv_sqrt_a=pinv_sqrt_a,
        pinv_a=pinv_a,
        range_u=u,
        null_u=un,
        rank=r,
        projector=projector,
        strictly_positive=(r == n),
    )


def direct_sum(f: AFrame) -> AFrame:
    """Doubled frame for the 2x2 diagonal metric diag(A, A) on H + H.

    Derived matrices are assembled blockwise from the parent frame, so the
    block structure of every artifact is exact.
    """

    def blk(m: np.ndarray) -> np.ndarray:
        rows, cols = m.shape
        out = np.zeros((2 * rows, 2 * cols), dtype=m.dtype)
        out[:rows, :cols] = m
        out[rows:, cols:] = m
        return out

    a2 = blk(f.a)
    sqrt2 = blk(f.sqrt_a)
    pinv_sqrt2 = blk(f.pinv_sqrt_a)
    pinv2 = blk(f.pinv_a)
    proj2 = blk(f.projector)
    u2 = blk(f.range_u)
    un2 = blk(f.null_u)
    _freeze(a2, sqrt2, pinv_sqrt2, pinv2, proj2, u2, un2)
    return AFrame(
        dim=2 * f.dim,
        a=a2,
        sqrt_a=sqrt2,
        pinv_sqrt_a=pinv_sqrt2,
        pinv_a=pinv2,
        range_u=u2,
        null_u=un2,
        rank=2 * f.rank,
        projector=proj2,
        strictly_positive=f.strictly_positive,
    )


def frame_scale(f: AFrame, t) -> float:
    """Common relative-tolerance scale 1 + ||T||_F * ||A||_F."""
    return 1.0 + frob(as_cmatrix(t)) * frob(f.a)
