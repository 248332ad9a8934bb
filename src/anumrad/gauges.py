# src/anumrad/gauges.py

"""Classical and A-weighted operator gauges.

The numerical radius, Crawford number and the refined minimum-modulus
quantity C are all computed from the rotation profile of the Hermitian part
Re(e^{i theta} M): its largest eigenvalue is the support function of the
(convex) numerical range, so

  w(M) = max_theta lambda_max(Re(e^{i theta} M))
  c(M) = max(0, -min_theta lambda_max(Re(e^{i theta} M)))
  C(M) = min_phi sigma_min(Re(e^{i phi} M))

Re(e^{i(theta + pi)} M) = -Re(e^{i theta} M), so the profiles are sampled on
a uniform grid by solving only the first half of it and mirroring the rest.
Local extrema are bracketed with a 3-point stencil and refined by safeguarded
Newton steps: one eigendecomposition at theta gives the tracked eigenvalue
and, by first- and second-order eigenvalue perturbation, its slope and
curvature. Where the tracked eigenvalue is (nearly) multiple it has no
derivatives and golden-section search takes over. The profiles are Lipschitz
in theta with constant ||M||_2, which both guarantees bracketing at the
default grid density and lets non-competitive brackets be pruned.

``sweep_gauges`` returns a ``GaugeSweep`` that scans once and refines each
gauge only when it is first read.

A-weighted gauges are classical gauges of the range compression (see
adjoint.ReducedOp). ``oracle_gauge`` estimates the same quantities straight
from their sup/inf definitions by seeded sampling with a hill-climb, and is
the independent cross-check for the compression route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .adjoint import ReducedOp, admits_a_adjoint, is_a_positive, reduced, sharp
from .errors import EmptyRange, NoAdjoint, NotAPositive, UnsupportedExponent
from .frame import AFrame
from .matrixcore import as_cmatrix, herm_part, singular_values, spec_norm

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Below this eigenvalue gap the perturbation derivatives are unreliable.
_GAP_TOL = 1e-9
# Refinement stops once a step in theta is this small, or after this many steps.
_REFINE_TOL = 1e-12
_REFINE_MAX_ITER = 200


@dataclass(frozen=True)
class SweepConfig:
    """Discretization of the sup-over-theta gauge formulas."""

    grid_points: int = 1024

    def __post_init__(self):
        if self.grid_points < 16:
            raise ValueError("grid_points must be at least 16")
        if self.grid_points % 2:
            raise ValueError("grid_points must be even (the scan mirrors theta + pi)")


DEFAULT_SWEEP = SweepConfig()


def _square(m) -> np.ndarray:
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"gauge requires a square matrix, got {m.shape}")
    return m


def _theta_scan(m: np.ndarray, cfg: SweepConfig):
    """Ascending eigenvalues of Re(e^{i theta} M) on the uniform theta grid;
    the second half of the grid is the first half negated and reversed."""
    thetas = np.linspace(0.0, 2.0 * np.pi, cfg.grid_points, endpoint=False)
    ph = np.exp(1j * thetas[: cfg.grid_points // 2])[:, None, None]
    eigs = np.linalg.eigvalsh(0.5 * (ph * m + ph.conj() * m.conj().T))
    return thetas, np.concatenate((eigs, -eigs[:, ::-1]))


def _golden(fn, a: float, b: float, tol: float, max_iter: int, find_max: bool) -> float:
    """Golden-section extremum of fn on [a, b]; returns the best value seen."""
    sign = 1.0 if find_max else -1.0
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc = sign * fn(c)
    fd = sign * fn(d)
    best = max(fc, fd)
    for _ in range(max_iter):
        if h <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = sign * fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = sign * fn(d)
        best = max(best, fc, fd)
    return sign * best


def _newton(fn, x: float, delta: float, find_max: bool) -> float:
    """Safeguarded Newton extremum of fn on [x - delta, x + delta], starting
    at x; returns the best value seen.

    The slope's sign narrows the bracket. A Newton step that leaves it, or a
    curvature of the wrong sign, gives way to bisection; a zero of the
    tracked eigenvalue predicted inside it is stepped to directly.
    """
    sign = 1.0 if find_max else -1.0
    a, b = x - delta, x + delta
    best = -math.inf
    for _ in range(_REFINE_MAX_ITER):
        f, df, d2f, gap, root = fn(x)
        best = max(best, sign * f)
        if gap < _GAP_TOL:
            v = _golden(lambda t: fn(t)[0], a, b, _REFINE_TOL, _REFINE_MAX_ITER, find_max)
            return sign * max(best, sign * v)
        if sign * df > 0:
            a = x
        else:
            b = x
        if root is not None and a <= root <= b:
            nxt = root
        elif sign * d2f < 0 and a <= x - df / d2f <= b:
            nxt = x - df / d2f
        else:
            nxt = 0.5 * (a + b)
        if abs(nxt - x) <= _REFINE_TOL:
            break
        x = nxt
    return sign * best


def _refine(thetas, vals, fn, find_max, lipschitz, flat_tol) -> float:
    """Grid extremum improved by refining every bracket that could still win.

    A profile whose grid values spread by at most flat_tol is flat to
    rounding (a Jordan block's, for one) and is not refined.
    """
    grid_best = float(vals.max() if find_max else vals.min())
    if float(vals.max() - vals.min()) <= flat_tol:
        return grid_best
    delta = 2.0 * np.pi / thetas.shape[0]
    prev = np.roll(vals, 1)
    nxt = np.roll(vals, -1)
    if find_max:
        cand = np.nonzero((vals >= prev) & (vals >= nxt))[0]
        cand = cand[vals[cand] + lipschitz * delta >= grid_best]
    else:
        cand = np.nonzero((vals <= prev) & (vals <= nxt))[0]
        cand = cand[vals[cand] - lipschitz * delta <= grid_best]
    if cand.size > 64:
        order = np.argsort(vals[cand])
        cand = cand[order[-64:] if find_max else order[:64]]
    best = grid_best
    for i in cand:
        v = _newton(fn, float(thetas[i]), delta, find_max)
        best = max(best, v) if find_max else min(best, v)
    return best


def _make_pointwise(m: np.ndarray):
    """The profiles lambda_max and min |lambda| of H(theta) = Re(e^{i theta} M).

    Each returns (value, slope, curvature, gap, root) at theta. With H' =
    Re(i e^{i theta} M), H'' = -H and the tracked eigenpair (lam_k, v_k) of
    one ``eigh``, the slope is v_k* H' v_k and the curvature is
    -lam_k + 2 sum_{j != k} |v_j* H' v_k|^2 / (lam_k - lam_j). gap is the
    distance from lam_k to the nearest other eigenvalue; root is the Newton
    estimate of the zero of lam_k for min |lambda| and None for lambda_max.
    """
    mh = m.conj().T

    def tracked(theta: float, largest: bool):
        ph = complex(math.cos(theta), math.sin(theta))
        lam, v = np.linalg.eigh(0.5 * (ph * m + ph.conjugate() * mh))
        k = lam.shape[0] - 1 if largest else int(np.argmin(np.abs(lam)))
        coupling = v.conj().T @ (0.5j * (ph * (m @ v[:, k]) - ph.conjugate() * (mh @ v[:, k])))
        diff = lam[k] - lam
        diff[k] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):  # gap 0: unused
            curvature = float(np.sum(np.abs(coupling) ** 2 / diff))
        return (float(lam[k]), float(coupling[k].real), 2.0 * curvature - float(lam[k]),
                float(np.min(np.abs(diff))))

    def lam_max(theta: float):
        return (*tracked(theta, True), None)

    def min_abs(theta: float):
        lam, slope, curvature, gap = tracked(theta, False)
        root = theta - lam / slope if slope else None
        sgn = 1.0 if lam >= 0 else -1.0
        return abs(lam), sgn * slope, sgn * curvature, gap, root

    return lam_max, min_abs


class GaugeSweep:
    """Rotation-profile gauges of one matrix from one shared theta scan.

    The scan runs on construction; each of ``w``, ``crawford`` and
    ``crawford_c`` is refined only when it is first read.
    """

    def __init__(self, m: np.ndarray, cfg: SweepConfig):
        self._thetas, eigs = _theta_scan(m, cfg)
        self._lam_max_grid = eigs[:, -1]
        self._min_abs_grid = np.min(np.abs(eigs), axis=1)
        self._lam_max, self._min_abs = _make_pointwise(m)
        self._lipschitz = spec_norm(m)
        # eigvalsh rounding noise: a few ulps of ||M|| per dimension
        self._flat_tol = 4.0 * m.shape[0] * np.finfo(float).eps * self._lipschitz

    def _refined(self, grid, fn, find_max: bool) -> float:
        return _refine(self._thetas, grid, fn, find_max, self._lipschitz, self._flat_tol)

    @cached_property
    def w(self) -> float:
        """Numerical radius: max over theta of lambda_max(Re(e^{i theta} M))."""
        return max(0.0, self._refined(self._lam_max_grid, self._lam_max, True))

    @cached_property
    def crawford(self) -> float:
        """Crawford number: max(0, -min over theta of lambda_max)."""
        return max(0.0, -self._refined(self._lam_max_grid, self._lam_max, False))

    @cached_property
    def crawford_c(self) -> float:
        """C: min over theta of sigma_min(Re(e^{i theta} M))."""
        return max(0.0, self._refined(self._min_abs_grid, self._min_abs, False))


def sweep_gauges(m, cfg: SweepConfig = DEFAULT_SWEEP) -> GaugeSweep:
    """Numerical radius, Crawford number and C of one matrix from one scan."""
    return GaugeSweep(_square(m), cfg)


def numerical_radius(m, cfg: SweepConfig = DEFAULT_SWEEP) -> float:
    """Classical numerical radius w(M) = sup |<Mx, x>| over unit vectors."""
    return sweep_gauges(m, cfg).w


def crawford(m, cfg: SweepConfig = DEFAULT_SWEEP) -> float:
    """Distance from 0 to the numerical range of M (0 when 0 lies inside)."""
    return sweep_gauges(m, cfg).crawford


def crawford_C(m, cfg: SweepConfig = DEFAULT_SWEEP) -> float:
    """min over phi of sigma_min(Re(e^{i phi} M)): the inner infimum over unit
    vectors at fixed phi is exactly the smallest singular value."""
    return sweep_gauges(m, cfg).crawford_c


def _reduced_checked(f: AFrame, t) -> np.ndarray:
    if f.rank == 0:
        raise EmptyRange("metric has rank zero; A-gauges are undefined")
    return reduced(f, t).mat


def a_seminorm(f: AFrame, t) -> float:
    """Operator seminorm sup ||Tx||_A / ||x||_A over the range of A."""
    return spec_norm(_reduced_checked(f, t))


def a_min_modulus(f: AFrame, t) -> float:
    """Minimum modulus inf ||Tx||_A / ||x||_A over the range of A."""
    return float(singular_values(_reduced_checked(f, t))[-1])


def a_numerical_radius(f: AFrame, t, cfg: SweepConfig = DEFAULT_SWEEP) -> float:
    return numerical_radius(_reduced_checked(f, t), cfg)


def a_crawford(f: AFrame, t, cfg: SweepConfig = DEFAULT_SWEEP) -> float:
    return crawford(_reduced_checked(f, t), cfg)


def a_crawford_C(f: AFrame, t, cfg: SweepConfig = DEFAULT_SWEEP) -> float:
    return crawford_C(_reduced_checked(f, t), cfg)


ORACLE_KINDS = ("w", "c", "norm", "minmod", "C")

# Hill-climb schedule: a short broad phase over every sample, then two
# survivor phases. Only the best chain matters for a sup/inf estimate, so
# the late phases concentrate effort on the leaders; the final phase mixes
# proposal scales spanning several orders of magnitude, which keeps narrow
# ridges climbable without per-instance step tuning.
_PHASE1 = (12, (1.0, 1.0), 0.5, 0.85)
_PHASE2 = (256, 50, (0.6, 0.15, 0.04, 0.01), 0.93)
_PHASE3 = (16, 300, (0.1, 0.025, 6e-3, 1.5e-3, 4e-4, 1e-4, 2.5e-5))


def oracle_gauge(f: AFrame, t, kind: str, samples: int, seed: int) -> float:
    """Direct-definition gauge estimate, independent of the range compression.

    Draws ``samples`` random vectors in the range of A, normalizes them to
    unit A-norm and evaluates the defining quantity (|<Tx, x>_A| for w/c,
    ||Tx||_A for norm/minmod, the phase-minimized A-norm of Re_A(e^{i phi}T)x
    for C), improving the samples with a staged random-perturbation
    hill-climb.

    Every evaluation happens at a feasible point, so the result approaches
    sup-type gauges from below and inf-type gauges from above. The result is
    a pure function of (f, t, kind, samples, seed), stable bit for bit.
    """
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown gauge kind {kind!r}; expected one of {ORACLE_KINDS}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if f.rank == 0:
        raise EmptyRange("metric has rank zero; A-gauges are undefined")
    t = as_cmatrix(t)
    if not admits_a_adjoint(f, t):
        raise NoAdjoint("operator does not satisfy the Douglas range condition")
    s = sharp(f, t) if kind == "C" else None

    u = f.range_u
    w_map = f.sqrt_a @ u  # ||U z||_A = ||w_map z||_2
    at = f.a @ t
    st = f.sqrt_a @ t
    ss = f.sqrt_a @ s if s is not None else None

    rng = np.random.default_rng(seed)
    r = f.rank
    maximize = kind in ("w", "norm")
    sign = 1.0 if maximize else -1.0

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def column_norms(y):
        """np.linalg.norm(y, axis=0), without its argument handling; y is
        overwritten. Summed from (y.conj() * y).real as np.linalg.norm does:
        y.real**2 + y.imag**2 rounds differently."""
        np.multiply(y.conj(), y, out=y)
        return np.sqrt(np.add.reduce(y.real, axis=0))

    def normalize(z):
        """Scale the columns of z to unit A-norm, in place."""
        nrm = column_norms(w_map @ z)
        nrm[nrm == 0.0] = 1.0
        z /= nrm
        return z

    def evaluate(z):
        x = u @ z
        if kind in ("w", "c"):
            return np.abs(np.einsum("ij,ij->j", x.conj(), at @ x))
        if kind in ("norm", "minmod"):
            return column_norms(st @ x)
        # kind == "C": min over phases of ||(e^{i phi} Tx + e^{-i phi} T#x)/2||_A
        tu = st @ x
        tv = ss @ x
        nu2 = np.sum(np.abs(tu) ** 2, axis=0)
        nv2 = np.sum(np.abs(tv) ** 2, axis=0)
        inner = np.einsum("ij,ij->j", tu, tv.conj())  # <Tx, T#x>_A
        val2 = 0.25 * (nu2 + nv2 - 2.0 * np.abs(inner))
        return np.sqrt(np.clip(val2, 0.0, None))

    def climb(z, best, rounds, scales, base, decay):
        # One standard_normal(out=) fill per round draws exactly the numbers
        # of draw((r, props, m)): the real parts, then the imaginary parts.
        props, m = len(scales), z.shape[1]
        scales = np.asarray(scales)[:, None]
        noise = np.empty((2, r, props, m))
        zp = np.empty((r, props, m), dtype=complex)
        flat = zp.reshape(r, props * m)
        cols = np.arange(m)
        for _ in range(rounds):
            rng.standard_normal(out=noise)
            noise *= base * scales
            np.add(z.real[:, None, :], noise[0], out=zp.real)
            np.add(z.imag[:, None, :], noise[1], out=zp.imag)
            vals = evaluate(normalize(flat)).reshape(props, m)
            idx = vals.argmax(axis=0) if maximize else vals.argmin(axis=0)
            vb = vals[idx, cols]
            up = (vb > best if maximize else vb < best).nonzero()[0]
            if up.size:  # false in about half of the last phase's rounds
                z[:, up] = zp[:, idx[up], up]
                best[up] = vb[up]
            base *= decay
        return z, best

    def select(z, best, k):
        order = np.argsort(sign * best)
        keep = order[-min(k, best.size):]
        return z[:, keep].copy(), best[keep].copy()

    z = normalize(draw((r, samples)))
    best = evaluate(z)
    rounds1, scales1, base1, decay1 = _PHASE1
    z, best = climb(z, best, rounds1, scales1, base1, decay1)
    result = sign * float(np.max(sign * best))

    keep2, rounds2, scales2, decay2 = _PHASE2
    z, best = select(z, best, keep2)
    z, best = climb(z, best, rounds2, scales2, 1.0, decay2)
    result = sign * max(sign * result, float(np.max(sign * best)))

    keep3, rounds3, scales3 = _PHASE3
    z, best = select(z, best, keep3)
    z, best = climb(z, best, rounds3, scales3, 1.0, 1.0)
    return sign * max(sign * result, float(np.max(sign * best)))


def _integer_exponent(r: float) -> bool:
    """Whether r is an integer up to rounding, so A^r needs no functional
    calculus beyond the plain matrix power."""
    return abs(r - round(r)) <= 1e-12


def a_positive_power(f: AFrame, s, r: float) -> ReducedOp:
    """Reduced operator of the r-th power of an A-positive operator.

    Computed by eigendecomposition functional calculus on the (Hermitian PSD)
    range compression; for integer r this agrees with the plain matrix power.
    Non-integer exponents require a strictly positive metric: a fractional
    functional calculus on a degenerate frame is not offered.
    """
    if r < 1:
        raise ValueError("exponent must satisfy r >= 1")
    if not is_a_positive(f, s):
        raise NotAPositive("operand is not A-positive")
    if not _integer_exponent(r) and not f.strictly_positive:
        raise UnsupportedExponent(
            "non-integer exponent requires a strictly positive metric"
        )
    k = _reduced_checked(f, s)
    lam, v = np.linalg.eigh(herm_part(k))
    lam = np.clip(lam, 0.0, None)
    mat = (v * lam ** float(r)) @ v.conj().T
    return ReducedOp(herm_part(mat), f.dim)
