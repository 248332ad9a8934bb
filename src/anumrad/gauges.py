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
one uniform 1024-point grid by solving only the first half of it and
mirroring the rest.
Local extrema are bracketed with a 3-point stencil and refined by safeguarded
Newton steps: one eigendecomposition at theta gives the tracked eigenvalue
and, by first- and second-order eigenvalue perturbation, its slope and
curvature. Where the tracked eigenvalue is (nearly) multiple the kernel
alone decides that it has no derivatives: it returns them as NaN, and
golden-section search takes the bracket over. The profiles are Lipschitz
in theta with constant ||M||_2, which both guarantees bracketing at this
grid density and lets non-competitive brackets be pruned.

The smallest matrices need no scan. A 1x1 matrix [z] has the point {z} for
its numerical range, so w = c = |z| and C = 0 exactly. A 2x2 matrix has an
ellipse for its numerical range (the elliptical range theorem, C.-K. Li,
Proc. AMS 124, 1996), and the extrema of lambda_max lie on known
quarter-turns of it (``_pair_near``). So each 2x2 gauge is one Newton
bracket on its quarter-turn, and c and C share one: C is the minimum of
lambda_max when 0 lies inside W, where c = 0, and C = 0 otherwise. With
H(theta) = [[mid + dlt, b], [conj(b), mid - dlt]] the eigenvalues are
mid -+ hypot(dlt, |b|), each entry a fixed combination of cos(theta) and
sin(theta) (``_pair_terms``), so the pointwise profile reads the value,
slope and curvature from scalar formulas. A disk (a scalar matrix, a 2x2
Jordan block) reads its gauges from its centre and radius, with no
pointwise evaluation. Everything else below is for n >= 3.

``sweep_gauges`` returns a ``GaugeSweep``, which admits its matrix (finite
and square), refines each gauge only when it is first read, and solves only
the grid points a gauge can still use. It solves every 16th grid point
first, which cuts the circle into 64 uniform coarse cells [a, b] of span
b - a = pi/32. Each read then bounds the profile from the cells' ends, with
one helper per bound:

  * lambda_max is the support function h of the convex numerical range, so
    Johnson's outer polygon (C. R. Johnson, SIAM J. Numer. Anal. 15, 1978)
    bounds it from above. For theta in [a, b], e^{i theta} is the
    nonnegative combination (sin(b - theta) e^{ia} + sin(theta - a) e^{ib})
    / sin(b - a), so h(theta) is at most the same combination of h_a and
    h_b: the support function of the wedge that the two support lines cut
    out (``_wedge``, the bound for w, read at every grid point);
  * the Lipschitz bound (f_a + f_b - ||M|| (b - a)) / 2 bounds either
    profile from below on a cell (``_floor``, for c and C).

Refinement from a grid point stays within one grid step delta of it, so one
rule per direction (``_can_win``) says whether a value can still reach the
extremum. A read solves only the grid points whose bound passes it against
the coarse extremum, and refines only the local extrema that pass it
against the grid extremum. A skipped point is neither the grid extremum nor
a refinement candidate, and it cannot change the 3-point test of a
candidate next to it, which reads more than the skipped point's bound.
So it is left unsolved and the gauge is bit for bit the full scan's.
Profiles whose coarse values are flat to rounding are scanned in full.

A c read first tries a sign certificate (``_zero_inside``), once, on the
coarse cells only. If the Lipschitz floor keeps lambda_max positive on every
coarse cell, 0 lies inside the numerical range and c = 0 without
refinement. Every eigenvalue the full scan and its refinement would compute
is then positive as well, so theirs is 0 too.
Each test clears its threshold by _PRUNE_MARGIN ||M||, far above the
rounding of either scan.

A-weighted gauges are classical gauges of the range compression (see
adjoint.reduced). ``oracle_gauge`` is the independent cross-check for that
route: it never compresses. It reads each gauge as a ratio of the forms
that <x, y>_A = y* A x defines on the range of A, and takes its sup or inf
by a seeded random hill-climb.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .adjoint import reduced, require_adjoint, sharp
from .frame import AFrame, require_range
from .matrixcore import as_cmatrix, pow2_unit, singular_values, spec_norm
from .seeding import check_integer, check_seed

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Below this eigenvalue gap the perturbation derivatives are unreliable.
_GAP_TOL = 1e-9
# Refinement stops once a step in theta is this small, or after this many steps.
_REFINE_TOL = 1e-12
_REFINE_MAX_ITER = 200
# The lazy scan solves every _COARSE_STRIDE-th grid point first.
_COARSE_STRIDE = 16
# Every pruning test (a skipped cell, a dropped refinement candidate, the sign
# certificate for c) clears its threshold by this much times ||M||: far above
# scan rounding (a few ulps of ||M|| per dimension).
_PRUNE_MARGIN = 1e-10


@dataclass(frozen=True)
class _Grid:
    """The uniform theta grid every gauge samples."""

    grid_points: int
    thetas: np.ndarray
    phases: np.ndarray  # e^{i theta} on the first half


_THETAS = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
_GRID = _Grid(_THETAS.size, _THETAS, np.exp(1j * _THETAS[: _THETAS.size // 2]))
_GRID.thetas.flags.writeable = _GRID.phases.flags.writeable = False  # shared
# The grid step, and the span of a coarse cell: pi/32, well short of the pi
# that the outer-polygon bound needs.
_DELTA = 2.0 * np.pi / _GRID.grid_points
_CELL = _COARSE_STRIDE * _DELTA
# The first-half rows of the coarse points (their mirrors are coarse points
# too), which the sweep solves first.
_HALF = _GRID.grid_points // 2
_COARSE_ROWS = np.arange(0, _HALF, _COARSE_STRIDE)
_COARSE_ROWS.flags.writeable = False
# The weights of a cell's two ends in ``_wedge``, at its points a + j delta.
_STEPS = np.arange(_COARSE_STRIDE) * _DELTA
_WEDGE_A = np.sin(_CELL - _STEPS) / math.sin(_CELL)
_WEDGE_B = np.sin(_STEPS) / math.sin(_CELL)
_EPS = float(np.finfo(float).eps)
# The half-width of a 2x2 sweep's bracket: a quarter-turn about its centre.
_QUARTER = 0.25 * math.pi


def _pair_terms(m: np.ndarray):
    """The entries of H(theta) = Re(e^{i theta} M) for 2x2 M, as (x, y) pairs.

    H = [[mid + dlt, b], [conj(b), mid - dlt]], and each of mid, dlt, Re b
    and Im b is Re(e^{i theta} z) = x cos(theta) - y sin(theta) for one z
    of (p + q, p - q, u + w, -i (u - w)) / 2, where M = [[p, u], [w, q]].
    Its slope is -x sin(theta) - y cos(theta). The eigenvalues of H are
    mid -+ hypot(dlt, |b|).
    """
    (p, u), (w, q) = (0.5 * m).tolist()
    z = (p + q, p - q, u + w, complex((u - w).imag, -(u - w).real))
    return [(v.real, v.imag) for v in z]


def _theta_scan(m: np.ndarray, grid: _Grid, rows=None):
    """Ascending eigenvalues of Re(e^{i theta} M) at the first-half rows
    ``rows`` of the grid (default: all), then at their mirrors theta + pi:
    the same eigenvalues negated and reversed.

    One stacked ``eigvalsh`` solves every row as the full stack does, so a
    subset agrees with it bit for bit. A sweep scans only n >= 3: the
    gauges of a 1x1 or 2x2 matrix need no scan.
    """
    # grid is always _GRID; bench/tracing.py reads its grid_points per call
    ph = (grid.phases if rows is None else grid.phases[rows])[:, None, None]
    eigs = np.linalg.eigvalsh(0.5 * (ph * m + ph.conj() * m.conj().T))
    return np.concatenate((eigs, -eigs[:, ::-1]))


def _golden(fn, a: float, b: float, find_max: bool) -> float:
    """Golden-section extremum of fn on [a, b], to _REFINE_TOL within
    _REFINE_MAX_ITER steps; returns the best value seen."""
    sign = 1.0 if find_max else -1.0
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc = sign * fn(c)
    fd = sign * fn(d)
    best = max(fc, fd)
    for _ in range(_REFINE_MAX_ITER):
        if h <= _REFINE_TOL:
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

    A NaN slope (no derivatives at a crossing) hands the bracket to
    ``_golden``. Otherwise the slope's sign narrows the bracket. A Newton
    step that leaves it, or a curvature of the wrong sign, gives way to
    bisection; a zero of the tracked eigenvalue predicted inside it is
    stepped to directly. A target equal to the point before x bisects too:
    at a crossing of two eigenvalue branches the steps alternate exactly
    between the branches' own extrema, and the bracket would never shrink.
    """
    sign = 1.0 if find_max else -1.0
    a, b = x - delta, x + delta
    best = -math.inf
    before = None
    for _ in range(_REFINE_MAX_ITER):
        f, df, d2f, root = fn(x)
        best = max(best, sign * f)
        if math.isnan(df):
            v = _golden(lambda t: fn(t)[0], a, b, find_max)
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
        if nxt == before:
            nxt = 0.5 * (a + b)
        if abs(nxt - x) <= _REFINE_TOL:
            break
        before, x = x, nxt
    return sign * best


def _wedge(lo, hi):
    """Johnson's outer-polygon bound on lambda_max at every grid point, from
    the coarse values lo and the next coarse values hi = roll(lo, -1): the
    point a + j delta of the cell [a, b] reads at most
    (sin(b - a - j delta) h_a + sin(j delta) h_b) / sin(b - a)."""
    return (np.multiply.outer(lo, _WEDGE_A) + np.multiply.outer(hi, _WEDGE_B)).ravel()


def _floor(fa, fb, lipschitz: float):
    """The Lipschitz lower bound on a profile over a coarse cell whose ends
    read fa and fb."""
    return 0.5 * (fa + fb - lipschitz * _CELL)


def _can_win(v, best, lipschitz: float, find_max: bool):
    """Whether refining from a grid value v can still reach best.

    Within one grid step delta of v, lambda_max reads at most v / cos(delta
    / 2) (v if v < 0) by the outer polygon, and a profile at least
    v - ||M|| delta by the Lipschitz bound. Monotone in v, so it also
    applies to a bound on v (upper for maxima, lower for minima).
    """
    if find_max:
        return np.maximum(v, v / math.cos(0.5 * _DELTA)) + _PRUNE_MARGIN * lipschitz >= best
    return v - lipschitz * (_DELTA + _PRUNE_MARGIN) <= best


def _refine(vals, fn, find_max, lipschitz, flat_tol) -> float:
    """Grid extremum improved by refining every bracket that could still win.

    A profile whose grid values spread by at most flat_tol is flat to
    rounding (a Jordan block's, for one) and is not refined.
    """
    grid_best = float(vals.max() if find_max else vals.min())
    if float(vals.max() - vals.min()) <= flat_tol:
        return grid_best
    prev = np.concatenate((vals[-1:], vals[:-1]))  # np.roll(vals, 1)
    nxt = np.concatenate((vals[1:], vals[:1]))  # np.roll(vals, -1)
    if find_max:
        cand = np.nonzero((vals >= prev) & (vals >= nxt))[0]
    else:
        cand = np.nonzero((vals <= prev) & (vals <= nxt))[0]
    cand = cand[_can_win(vals[cand], grid_best, lipschitz, find_max)]
    if cand.size > 64:
        order = np.argsort(vals[cand])
        cand = cand[order[-64:] if find_max else order[:64]]
    best = grid_best
    for i in cand:
        v = _newton(fn, float(_GRID.thetas[i]), _DELTA, find_max)
        best = max(best, v) if find_max else min(best, v)
    return best


def _eigh_tracked(m: np.ndarray):
    """tracked(theta, largest) from one ``eigh`` of H(theta) and eigenvalue
    perturbation; see ``_make_pointwise``."""
    mh = m.conj().T

    def tracked(theta: float, largest: bool):
        ph = complex(math.cos(theta), math.sin(theta))
        lam, v = np.linalg.eigh(0.5 * (ph * m + ph.conjugate() * mh))
        k = lam.shape[0] - 1 if largest else int(np.abs(lam).argmin())
        diff = lam[k] - lam
        diff[k] = np.inf
        if np.abs(diff).min() < _GAP_TOL:  # no derivatives: _newton goes to _golden
            return float(lam[k]), math.nan, math.nan
        vk = v[:, k]
        coupling = v.conj().T @ (0.5j * (ph * (m @ vk) - ph.conjugate() * (mh @ vk)))
        curvature = float((np.abs(coupling) ** 2 / diff).sum())
        return float(lam[k]), float(coupling[k].real), 2.0 * curvature - float(lam[k])

    return tracked


def _pair_tracked(m: np.ndarray):
    """tracked(theta, largest) for 2x2 M in closed form (``_pair_terms``).

    The tracked eigenvalue is mid + sgn mu, with mu = hypot(dlt, |b|) and
    sgn = 1 for the larger one. Its slope is mid' + sgn mu' and, with
    H'' = -H, its curvature is -mid + sgn mu'', where
    mu' = (dlt dlt' + Re(conj(b) b')) / mu and
    mu'' = (dlt'^2 + |b'|^2 - mu^2 - mu'^2) / mu. The gap is 2 mu.
    """
    (mx, my), (dx, dy), (rx, ry), (ix, iy) = _pair_terms(m)

    def tracked(theta: float, largest: bool):
        c, s = math.cos(theta), math.sin(theta)
        mid, dlt, re_b, im_b = mx * c - my * s, dx * c - dy * s, rx * c - ry * s, ix * c - iy * s
        mu = math.hypot(dlt, re_b, im_b)
        # min |lambda| tracks the eigenvalue nearer 0, the lower one on a tie
        sgn = 1.0 if largest or mid < 0.0 else -1.0
        lam = mid + sgn * mu
        if 2.0 * mu < _GAP_TOL:  # no derivatives: _newton goes to _golden
            return lam, math.nan, math.nan
        d_mid, d_dlt = -mx * s - my * c, -dx * s - dy * c
        d_re_b, d_im_b = -rx * s - ry * c, -ix * s - iy * c
        # each term is divided by mu before it is multiplied, so no square
        # overflows where the entries pass 1e154
        d_mu = (dlt / mu) * d_dlt + (re_b / mu) * d_re_b + (im_b / mu) * d_im_b
        d2_mu = ((d_dlt / mu) * d_dlt + (d_re_b / mu) * d_re_b + (d_im_b / mu) * d_im_b
                 - mu - (d_mu / mu) * d_mu)
        return lam, d_mid + sgn * d_mu, -mid + sgn * d2_mu

    return tracked


def _pair_near(m: np.ndarray):
    """For 2x2 M, the centre of the quarter-turn of theta on which
    lambda_max(Re(e^{i theta} M)) reaches its minimum; the maximum lies on
    the quarter-turn opposite. None when W(M) is a disk.

    With M = [[p, u], [v, q]], s = (p + q) / 2, d = (p - q) / 2 and
    eps = sqrt(d^2 + uv), W(M) is the ellipse with foci s -+ eps, and its
    major axis points along psi = arg eps. lambda_max(theta) is attained at
    the boundary point with outward normal e^{-i theta}, and on an ellipse
    that normal points the way of its point, quadrant for quadrant. The
    nearest boundary point to 0 lies in the quadrant of the ellipse's own
    axes that holds zeta = -s e^{-i psi}, and the farthest in the opposite
    one (D. Eberly, Distance from a Point to an Ellipse, 2013). A closed
    quadrant serves when zeta lies on an axis. Read at unit peak
    (``pow2_unit``), so nothing overflows at any scale. Where eps is too
    small to fix psi, W is nearly a circle, and its extremum lies near the
    line through 0 and s, inside the quadrant chosen.
    """
    (p, u), (v, q) = pow2_unit(m).tolist()
    s, d = 0.5 * (p + q), 0.5 * (p - q)
    eps = cmath.sqrt(d * d + u * v)
    if eps == 0.0:
        return None
    zeta = -s * eps.conjugate()  # -s e^{-i psi}, up to the factor |eps|
    quadrant = math.atan2(math.copysign(1.0, zeta.imag), math.copysign(1.0, zeta.real))
    return -(cmath.phase(eps) + quadrant)


def _make_pointwise(m: np.ndarray):
    """The profiles lambda_max and min |lambda| of H(theta) = Re(e^{i theta} M).

    Each returns (value, slope, curvature, root) at theta. With H' =
    Re(i e^{i theta} M), H'' = -H and the tracked eigenpair (lam_k, v_k) of
    one ``eigh``, the slope is v_k* H' v_k and the curvature is
    -lam_k + 2 sum_{j != k} |v_j* H' v_k|^2 / (lam_k - lam_j). A 2x2 M
    reads the same quantities from scalar formulas (``_pair_tracked``).
    root is the Newton estimate of the zero of lam_k for min |lambda| and
    None for lambda_max. Within _GAP_TOL of another eigenvalue the kernel
    forms no derivatives: slope and curvature read NaN (``_newton``).
    """
    tracked = _pair_tracked(m) if m.shape[0] == 2 else _eigh_tracked(m)

    def lam_max(theta: float):
        return (*tracked(theta, True), None)

    def min_abs(theta: float):
        lam, slope, curvature = tracked(theta, False)
        root = theta - lam / slope if slope else None
        sgn = 1.0 if lam >= 0 else -1.0
        return abs(lam), sgn * slope, sgn * curvature, root

    return lam_max, min_abs


class GaugeSweep:
    """Rotation-profile gauges of one matrix from one shared, lazy theta scan.

    Construction admits the matrix (finite, square). A 1x1 matrix [z] has
    the point {z} for its numerical range, so w = c = |z| and C = 0 are set
    at once, with no scan. A 2x2 matrix scans nothing either: a disk sets
    all three at once, and otherwise ``w`` refines lambda_max on the far
    quarter-turn and the first of ``crawford`` and ``crawford_c`` on the
    near one (``_pair_near``, ``_quarter``). A larger matrix solves the
    coarse grid points, the ends of the 64 uniform cells, at construction.
    Each of ``w``, ``crawford`` and ``crawford_c`` is refined only when it
    is first read, after solving the fine points whose bound can still win
    (``_can_win`` on ``_wedge`` for ``w``, on ``_floor`` for the others). A
    grid point reads NaN until some read solves it. ``crawford`` returns 0
    without refining when the sign certificate (``_zero_inside``) holds on
    the coarse cells.
    """

    def __init__(self, m):
        m = as_cmatrix(m)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"gauge requires a square matrix, got {m.shape}")
        self._m = m
        if m.shape[0] == 1:
            # each cached_property reads the instance dict first
            radius = float(abs(m[0, 0]))
            self.__dict__.update(w=radius, crawford=radius, crawford_c=0.0)
            return
        if m.shape[0] == 2:
            self._near = _pair_near(m)
            if self._near is None:
                # W is the disk about s of radius sqrt(alpha), with alpha =
                # |d|^2 / 2 + (|u|^2 + |v|^2) / 4 in _pair_near's names, read
                # from the halves of M's entries so that nothing overflows
                (p, u), (v, q) = (0.5 * m).tolist()
                centre, half_d = abs(p + q), 0.5 * abs(p - q)
                radius = math.hypot(half_d, half_d, abs(u), abs(v))
                self.__dict__.update(w=centre + radius, crawford=max(0.0, centre - radius),
                                     crawford_c=max(0.0, radius - centre))
            else:
                self._lam_max = _make_pointwise(m)[0]
            return
        self._lam_max_grid = np.full(_GRID.grid_points, np.nan)
        self._min_abs_grid = np.full(_GRID.grid_points, np.nan)
        self._lam_max, self._min_abs = _make_pointwise(m)
        self._lipschitz = spec_norm(m)
        # scan rounding noise: a few ulps of ||M|| per dimension
        self._flat_tol = 4.0 * m.shape[0] * _EPS * self._lipschitz
        self._solve(_COARSE_ROWS)

    def _solve(self, rows: np.ndarray) -> None:
        """Solve the first-half rows ``rows`` and store them and their mirrors."""
        idx = np.concatenate((rows, rows + _HALF))
        eigs = _theta_scan(self._m, _GRID, rows)
        self._lam_max_grid[idx] = eigs[:, -1]
        self._min_abs_grid[idx] = np.abs(eigs).min(axis=1)

    def _read(self, grid, fn, find_max: bool) -> float:
        """The read's extremum: solve the fine points its bound keeps, then
        refine from every solved point.

        Coarse values that spread by less than the margin keep every point,
        so a profile flat to rounding is scanned in full and _refine's flat
        test sees the same grid as the full scan.
        """
        unsolved = np.isnan(grid)
        if unsolved.any():
            lip = self._lipschitz
            lo = grid[::_COARSE_STRIDE]
            hi = np.concatenate((lo[1:], lo[:1]))  # np.roll(lo, -1)
            if find_max:
                # each point reads at most its wedge bound, up to scan rounding
                fine = _can_win(_wedge(lo, hi) + _PRUNE_MARGIN * lip, lo.max(), lip, True)
            else:
                fine = np.repeat(_can_win(_floor(lo, hi, lip), lo.min(), lip, False),
                                 _COARSE_STRIDE)
            rows = np.nonzero((fine[:_HALF] | fine[_HALF:]) & unsolved[:_HALF])[0]
            if rows.size:
                self._solve(rows)
            # an unsolved point can be no candidate and loses every 3-point test
            grid = np.where(np.isnan(grid), -np.inf if find_max else np.inf, grid)
        return _refine(grid, fn, find_max, self._lipschitz, self._flat_tol)

    def _zero_inside(self) -> bool:
        """The sign certificate for c: whether lambda_max provably stays above
        _PRUNE_MARGIN ||M|| all round the circle, so that 0 lies inside the
        numerical range.

        On each coarse cell ``_floor`` bounds the profile from below. Every
        eigenvalue of the profile that the full scan or its refinement
        computes then lies a few ulps of ||M|| from a value above the
        margin, so it is positive, and c is 0.
        """
        lo = self._lam_max_grid[::_COARSE_STRIDE]
        hi = np.concatenate((lo[1:], lo[:1]))  # np.roll(lo, -1)
        floor = _floor(lo, hi, self._lipschitz)
        return bool(floor.min() > _PRUNE_MARGIN * self._lipschitz)

    def _quarter(self, centre: float, find_max: bool) -> float:
        """The extremum of lambda_max on the quarter-turn about centre
        (2x2 M): one ``_newton`` bracket, and its two ends, where the
        extremum of a normal M sits on a kink."""
        fn = self._lam_max
        ends = (fn(centre - _QUARTER)[0], fn(centre + _QUARTER)[0])
        best = _newton(fn, centre, _QUARTER, find_max)
        return max(best, *ends) if find_max else min(best, *ends)

    @cached_property
    def _pair_min(self) -> float:
        """min over theta of lambda_max for 2x2 M.

        If 0 lies inside W(M), every H(theta) is indefinite, so its least
        |eigenvalue| is min(lambda_max(theta), lambda_max(theta + pi)) and
        C is this minimum. Otherwise det H(theta) has a zero on the circle,
        and C = 0. So one read serves both c and C, and c C = 0.
        """
        return self._quarter(self._near, False)

    @cached_property
    def w(self) -> float:
        """Numerical radius: max over theta of lambda_max(Re(e^{i theta} M))."""
        if self._m.shape[0] == 2:
            return max(0.0, self._quarter(self._near + math.pi, True))
        return max(0.0, self._read(self._lam_max_grid, self._lam_max, True))

    @cached_property
    def crawford(self) -> float:
        """Crawford number: max(0, -min over theta of lambda_max)."""
        if self._m.shape[0] == 2:
            return max(0.0, -self._pair_min)
        if self._zero_inside():
            return 0.0
        return max(0.0, -self._read(self._lam_max_grid, self._lam_max, False))

    @cached_property
    def crawford_c(self) -> float:
        """C: min over theta of sigma_min(Re(e^{i theta} M))."""
        if self._m.shape[0] == 2:
            return max(0.0, self._pair_min)
        return max(0.0, self._read(self._min_abs_grid, self._min_abs, False))


def sweep_gauges(m) -> GaugeSweep:
    """Numerical radius, Crawford number and C of one matrix from one scan."""
    return GaugeSweep(m)


def numerical_radius(m) -> float:
    """Classical numerical radius w(M) = sup |<Mx, x>| over unit vectors."""
    return sweep_gauges(m).w


def crawford(m) -> float:
    """Distance from 0 to the numerical range of M (0 when 0 lies inside)."""
    return sweep_gauges(m).crawford


def crawford_C(m) -> float:
    """min over phi of sigma_min(Re(e^{i phi} M)): the inner infimum over unit
    vectors at fixed phi is exactly the smallest singular value."""
    return sweep_gauges(m).crawford_c


def a_seminorm(f: AFrame, t) -> float:
    """Operator seminorm sup ||Tx||_A / ||x||_A over the range of A."""
    return spec_norm(reduced(require_range(f), t))


def a_min_modulus(f: AFrame, t) -> float:
    """Minimum modulus inf ||Tx||_A / ||x||_A over the range of A."""
    return float(singular_values(reduced(require_range(f), t))[-1])


def a_numerical_radius(f: AFrame, t) -> float:
    return numerical_radius(reduced(require_range(f), t))


def a_crawford(f: AFrame, t) -> float:
    return crawford(reduced(require_range(f), t))


def a_crawford_C(f: AFrame, t) -> float:
    return crawford_C(reduced(require_range(f), t))


ORACLE_KINDS = ("w", "c", "norm", "minmod", "C")

# Hill-climb schedule, one (chains kept, rounds, proposal scales, base step,
# decay) row per phase: a short broad phase over every sample, then two
# survivor phases. Only the best chain matters for a sup/inf estimate, so the
# late phases concentrate effort on the leaders; the final phase mixes
# proposal scales spanning several orders of magnitude, which keeps narrow
# ridges climbable without per-instance step tuning. Every phase draws each
# real coordinate of a proposal step uniform on [-sqrt(3), sqrt(3)] (mean 0,
# variance 1 before the base * scale factor), a fifth of the cost of a
# Gaussian draw.
_PHASES = (
    (None, 12, (1.0, 1.0), 0.5, 0.85),
    (256, 50, (0.6, 0.15, 0.04, 0.01), 1.0, 0.93),
    (16, 300, (0.1, 0.025, 6e-3, 1.5e-3, 4e-4, 1e-4, 2.5e-5), 1.0, 1.0),
)
# For w, a truncation first keeps the best chain of each of _SECTORS equal
# sectors of arg <Tx, x>_A, then fills the other slots by value. A chain of w
# can stop on a point of the numerical range that is only locally farthest
# from 0; one survivor per direction keeps a chain near the global maximum
# too. On criterion 3's instance 108 (n = 6) at oracle seeds
# splitmix64(777, 108) + k, k = 0..31, truncation by value alone stopped on a
# local maximum (w missed by 1.7e-2) on 21 of the 32 seeds with uniform steps
# in every phase and on 7 with Gaussian broad steps; with the sector
# survivors it misses on none. The other kinds truncate by value alone; norm
# and minmod are Rayleigh quotients, with no spurious local extrema.
_SECTORS = 8
_UNIFORM_SPREAD = 2.0 * math.sqrt(3.0)  # U(-1/2, 1/2) * this has variance 1
# Doubles of proposal noise drawn per fill (512 KB): a phase draws
# max(1, _NOISE_CHUNK // (2 r props m)) rounds at a time, so at rank 6 with
# 2000 samples the broad phase draws 1 round per fill, the 256-chain phase 5
# and the 16-chain phase 48, without raising the peak memory of the broad
# phase.
_NOISE_CHUNK = 2 ** 16


def oracle_gauge(f: AFrame, t, kind: str, samples: int, seed: int) -> float:
    """Direct-definition gauge estimate, independent of the range compression.

    Every kind is a ratio of forms in range coordinates z, x = U z, read from
    <x, y>_A = y* A x: |<Tx, x>_A| / ||x||_A^2 for w and c, ||Tx||_A /
    ||x||_A for norm and minmod, and for C the phase-minimized
    ||Re_A(e^{i phi} T) x||_A / ||x||_A from ||Tx||_A^2, ||T#x||_A^2 and
    <Tx, T#x>_A. A enters at unit peak (``pow2_unit``), an exact power of
    two that leaves every ratio unchanged and makes the fixed steps of
    ``_PHASES`` independent of the metric's scale. A squared-norm form
    carries absolute rounding of about eps ||T||_A^2.

    ``samples`` Gaussian starts climb by uniform random steps; proposals are
    evaluated unnormalised, and accepted chains are rescaled to unit A-norm.
    For w each truncation first keeps the best chain of each phase sector
    (``_SECTORS``). Every value is attained, so sup-type estimates approach
    from below and inf-type ones from above. The result is a pure function
    of (f, t, kind, samples, seed): chunked noise draws (``_NOISE_CHUNK``)
    give the same numbers in the same order as one draw per round.
    """
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown gauge kind {kind!r}; expected one of {ORACLE_KINDS}")
    samples, seed = check_integer(samples, "samples", 1), check_seed(seed)
    t = require_adjoint(require_range(f), t)

    u, r = f.range_u, f.rank
    a = pow2_unit(f.a)

    def form(y, x):  # the matrix of <Xz, Yz>_A = (Yz)* A (Xz) from y = YU, x = XU
        return y.conj().T @ (a @ x)

    tu = t @ u
    forms = [form(u, u), form(u, tu) if kind in ("w", "c") else form(tu, tu)]
    if kind == "C":
        su = sharp(f, t) @ u
        forms += [form(su, su), form(su, tu)]
    forms = np.concatenate(forms)  # k forms stacked as one (k r) x r matrix
    maximize = kind in ("w", "norm")
    sign = 1.0 if maximize else -1.0

    def evaluate(z):
        """Each column's value, and the forms at it (q[0] = ||x||_A^2)."""
        q = np.einsum("ij,kij->kj", z.conj(), (forms @ z).reshape(-1, r, z.shape[1]))
        if kind in ("w", "c"):
            return np.abs(q[1]) / q[0].real, q
        sq = q[1].real
        if kind == "C":  # min over phi of ||e^{i phi} Tx + e^{-i phi} T#x||_A^2 / 4
            sq = 0.25 * (sq + q[2].real - 2.0 * np.abs(q[3]))
        return np.sqrt(np.maximum(sq, 0.0) / q[0].real), q

    def climb(z, best, rounds, scales, base, decay):
        # One fill draws a chunk of rounds, each round's real parts and then
        # its imaginary parts.
        props, m = len(scales), z.shape[1]
        scales = np.asarray(scales)[:, None]
        chunk = min(rounds, max(1, _NOISE_CHUNK // (2 * r * props * m)))
        noise = np.empty((chunk, 2, r, props, m))
        factor = np.empty((chunk, props, 1))
        zp = np.empty((r, props, m), dtype=complex)
        cols = np.arange(m)
        for done in range(0, rounds, chunk):
            k = min(chunk, rounds - done)
            block, fac = noise[:k], factor[:k]
            rng.random(out=block)
            block -= 0.5
            for row in fac:
                row[...] = (_UNIFORM_SPREAD * base) * scales
                base *= decay
            block *= fac[:, None, None]
            for step in block:
                np.add(z.real[:, None, :], step[0], out=zp.real)
                np.add(z.imag[:, None, :], step[1], out=zp.imag)
                vals, q = evaluate(zp.reshape(r, props * m))
                vals = vals.reshape(props, m)
                idx = vals.argmax(axis=0) if maximize else vals.argmin(axis=0)
                vb = vals[idx, cols]
                up = (vb > best if maximize else vb < best).nonzero()[0]
                if up.size:  # false in about half of the last phase's rounds
                    pick = idx[up]
                    q = q.reshape(-1, props, m)[:, pick, up]
                    z[:, up] = zp[:, pick, up] / np.sqrt(q[0].real)
                    best[up] = vb[up]
        return z, best

    def select(z, best, k):
        order = np.argsort(sign * best)[::-1]  # best first
        if kind != "w":
            keep = order[:k]
        else:
            # the best chain of each occupied sector of arg <Tx, x>_A, then
            # the rest by value
            lead = evaluate(z[:, order])[1][1]
            sector = np.floor(np.angle(lead) * (_SECTORS / (2.0 * math.pi))) % _SECTORS
            _, first = np.unique(sector, return_index=True)
            taken = np.zeros(order.size, dtype=bool)
            taken[first] = True
            keep = np.concatenate((order[first], order[~taken][:k - first.size]))
        return z[:, keep], best[keep]

    # each phase keeps the leading chain and climbing never worsens a
    # chain, so the last phase's best is the estimate
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((r, samples)) + 1j * rng.standard_normal((r, samples))
    best, q = evaluate(z)
    z /= np.sqrt(q[0].real)
    for keep, rounds, scales, base, decay in _PHASES:
        if keep is not None:
            z, best = select(z, best, keep)
        z, best = climb(z, best, rounds, scales, base, decay)
    return sign * float(np.max(sign * best))
