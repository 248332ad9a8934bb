# src/anumrad/frame.py

"""Metric frames: a validated positive operator A stored as its
eigendecomposition A = U diag(lam) U*, with N spanning the null space. Every
A-calculus quantity is read from (lam, U, N). Frames are immutable and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyRange, NotHermitian, NotPSD
from .matrixcore import DEFAULT_RANK_TOL, as_cmatrix, frob, herm_part, tile


@dataclass(frozen=True)
class AFrame:
    """A positive semidefinite metric A = U diag(lam) U* and its null space.

    Fields:
      a                 the metric itself (Hermitian PSD)
      lam               the r kept eigenvalues, positive, in range_u's column order
      range_u           n x r orthonormal basis U of the range of A
      null_u            n x (n-r) orthonormal basis N of the null space of A

    dim (n), rank (r, the number of eigenvalues above DEFAULT_RANK_TOL*||A||)
    and strictly_positive (r == n) are read from these, so no field can
    contradict them.
    """

    a: np.ndarray
    lam: np.ndarray
    range_u: np.ndarray
    null_u: np.ndarray

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def rank(self) -> int:
        return self.lam.size

    @property
    def strictly_positive(self) -> bool:
        return self.rank == self.dim


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
    # the test reads A divided by its largest entry modulus, so it is
    # scale-free and its norms cannot overflow
    unit = a / (float(np.max(np.abs(a))) or 1.0)
    dev = frob(unit - unit.conj().T)
    if dev > DEFAULT_RANK_TOL * (1.0 + frob(unit)):
        raise NotHermitian(f"relative Hermitian deviation {dev:.3e} exceeds tolerance")
    lam, v = np.linalg.eigh(herm_part(a))
    scale = float(np.max(np.abs(lam))) if n else 0.0
    if n and float(lam[0]) < -DEFAULT_RANK_TOL * scale:
        raise NotPSD(f"eigenvalue {lam[0]:.3e} below -tol*||A||")
    mask = lam > DEFAULT_RANK_TOL * scale
    # dominant eigendirection first (stable within ties), so compressions of
    # diagonal metrics keep the natural coordinate order
    sel = np.nonzero(mask)[0]
    sel = sel[np.argsort(-lam[sel], kind="stable")]
    kept, u, un = lam[sel], v[:, sel], v[:, ~mask]
    _freeze(a, kept, u, un)
    return AFrame(a=a, lam=kept, range_u=u, null_u=un)


def require_range(f: AFrame) -> AFrame:
    """``f``, once it is known to have a metric of nonzero rank; A-gauges are
    undefined on a rank-zero metric, so it raises EmptyRange."""
    if f.rank == 0:
        raise EmptyRange("metric has rank zero; A-gauges are undefined")
    return f


def direct_sum(f: AFrame) -> AFrame:
    """Doubled frame for the 2x2 diagonal metric diag(A, A) on H + H.

    A, U and N are tiled blockwise and lam is repeated, so the block
    structure of every field is exact.
    """
    a2, u2, un2 = (tile(m, 0, 0, m) for m in (f.a, f.range_u, f.null_u))
    lam2 = np.concatenate((f.lam, f.lam))
    _freeze(a2, lam2, u2, un2)
    return AFrame(a=a2, lam=lam2, range_u=u2, null_u=un2)
