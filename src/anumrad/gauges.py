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
curvature. Where the tracked eigenvalue is (nearly) multiple it has no
derivatives and golden-section search takes over. The profiles are Lipschitz
in theta with constant ||M||_2, which both guarantees bracketing at this
grid density and lets non-competitive brackets be pruned.

``sweep_gauges`` returns a ``GaugeSweep`` that refines each gauge only when
it is first read, and solves only the grid points a gauge can still use. It
solves every 16th grid point first. Each read then bounds the profile on
every coarse cell [a, b] between two solved points:

  * lambda_max is the support function h of the convex numerical range, so
    Johnson's outer polygon (C. R. Johnson, SIAM J. Numer. Anal. 15, 1978)
    bounds it from above: h <= max(h_a, h_b) / cos((b - a) / 2) on the cell
    when that max is >= 0, and h <= max(h_a, h_b) otherwise (this is the
    bound for w);
  * the Lipschitz bound (f_a + f_b - ||M|| (b - a)) / 2 bounds either
    profile from below (for c and C).

Refinement from a grid point stays within one grid step delta of it, where
the outer polygon bounds lambda_max by v / cos(delta / 2) from a local
maximum v. So a w read refines only the maxima that can still win: those
whose bound reaches the grid maximum. It skips a cell when the same test,
applied to the cell's own outer bound, fails against the coarse maximum. A
c or C read skips a cell whose Lipschitz bound stays more than ||M|| delta
above the coarse minimum. A skipped cell holds neither the grid extremum nor
a refinement candidate, and it cannot change the 3-point test of a
neighbouring candidate. So its points are left unsolved and the gauge is bit
for bit the full scan's. 1x1 matrices and profiles whose coarse values
are flat to rounding are scanned in full.

A c read first tries a sign certificate. If the Lipschitz bound keeps
lambda_max positive between every pair of adjacent solved points, on the
coarse cells and then on the solved fine ones, 0 lies inside the numerical
range and c = 0 without refinement. Every eigenvalue the full scan and its
refinement would compute is then positive as well, so theirs is 0 too.
Each test clears its threshold by _PRUNE_MARGIN ||M||, far above eigvalsh
rounding.

A-weighted gauges are classical gauges of the range compression (see
adjoint.reduced). ``oracle_gauge`` estimates the same quantities straight
from their sup/inf definitions by seeded sampling with a hill-climb, and is
the independent cross-check for the compression route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .adjoint import admits_a_adjoint, reduced, sharp
from .errors import EmptyRange, NoAdjoint, UnsupportedExponent
from .frame import AFrame
from .matrixcore import as_cmatrix, herm_part, singular_values, spec_norm

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
# eigvalsh rounding (a few ulps of ||M|| per dimension).
_PRUNE_MARGIN = 1e-10


def _square(m) -> np.ndarray:
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"gauge requires a square matrix, got {m.shape}")
    return m


@dataclass(frozen=True)
class _Grid:
    """The uniform theta grid every gauge samples, and the lazy scan's cells.

    The coarse points are every _COARSE_STRIDE-th row of the first half and
    their mirrors; cell k runs from points[k] to the next coarse point.
    """

    grid_points: int
    thetas: np.ndarray
    phases: np.ndarray  # e^{i theta} on the first half
    coarse_rows: np.ndarray  # first-half rows of the coarse points, as a mask
    points: np.ndarray  # coarse grid indices, ascending
    ends: np.ndarray  # grid index of each cell's far end (mod N)
    span: np.ndarray  # angular length of each cell
    cos_half: np.ndarray  # cos(span / 2)
    cell_of: np.ndarray  # per grid index: its cell, or -1 at a coarse point


def _uniform_grid(grid_points: int) -> _Grid:
    thetas = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    rows = np.zeros(grid_points // 2, dtype=bool)
    rows[::_COARSE_STRIDE] = True
    points = np.nonzero(np.tile(rows, 2))[0]
    length = np.diff(np.append(points, grid_points))
    span = length * (2.0 * np.pi / grid_points)
    cell_of = np.repeat(np.arange(points.size), length)
    cell_of[points] = -1
    grid = _Grid(grid_points, thetas, np.exp(1j * thetas[: grid_points // 2]), rows,
                 points, np.roll(points, -1), span, np.cos(0.5 * span), cell_of)
    for arr in vars(grid).values():  # shared by every sweep
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return grid


# Cells span pi/32, well short of the pi that the outer-polygon bound needs.
_GRID = _uniform_grid(1024)


def _theta_scan(m: np.ndarray, grid: _Grid, rows=None):
    """Ascending eigenvalues of Re(e^{i theta} M) on the uniform theta grid;
    the second half of the grid is the first half negated and reversed.

    With ``rows``, only those rows of the first half are solved and returned.
    Each matrix is built exactly as in the full stack, so for n >= 2 its
    eigenvalues agree bit for bit; for n = 1 numpy coalesces the loop and
    rounds differently, so 1x1 callers ask for every row.
    """
    # grid is always _GRID; bench/tracing.py reads its grid_points per call
    ph = grid.phases if rows is None else grid.phases[rows]
    ph = ph[:, None, None]
    eigs = np.linalg.eigvalsh(0.5 * (ph * m + ph.conj() * m.conj().T))
    if rows is not None:
        return grid.thetas, eigs
    return grid.thetas, np.concatenate((eigs, -eigs[:, ::-1]))


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


def _can_win(v, best, grid_points: int, lipschitz: float):
    """Whether refining a local maximum v of the lambda_max grid can reach best.

    Refinement stays within one grid step delta of the maximum, where the
    outer polygon bounds the profile by v / cos(delta / 2) if v >= 0 and by
    v otherwise. Monotone in v, so it also applies to an upper bound on v.
    """
    cos_half = math.cos(math.pi / grid_points)
    return np.maximum(v, v / cos_half) + _PRUNE_MARGIN * lipschitz >= best


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
        cand = cand[_can_win(vals[cand], grid_best, vals.shape[0], lipschitz)]
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
    """Rotation-profile gauges of one matrix from one shared, lazy theta scan.

    Construction solves the coarse grid points. Each of ``w``, ``crawford``
    and ``crawford_c`` is refined only when it is first read, after solving
    the fine points of the cells its bound cannot rule out; the points any
    read solved are kept for the others. ``w`` refines only the maxima that
    can still win (``_can_win``). ``crawford`` returns 0 without refining
    when the sign certificate (``_zero_inside``) holds on the coarse cells,
    or on the fine ones once they are solved.
    """

    def __init__(self, m: np.ndarray):
        self._m = m
        self._lam_max_grid = np.full(_GRID.grid_points, np.nan)
        self._min_abs_grid = np.full(_GRID.grid_points, np.nan)
        self._solved = np.zeros(_GRID.grid_points, dtype=bool)  # mirrored halves
        self._lam_max, self._min_abs = _make_pointwise(m)
        self._lipschitz = spec_norm(m)
        # eigvalsh rounding noise: a few ulps of ||M|| per dimension
        self._flat_tol = 4.0 * m.shape[0] * np.finfo(float).eps * self._lipschitz
        # a 1x1 row subset rounds differently from the full stack (_theta_scan)
        self._solve(np.ones_like(_GRID.coarse_rows) if m.shape[0] == 1 else _GRID.coarse_rows)

    def _solve(self, rows: np.ndarray) -> None:
        """Solve the first-half rows marked in ``rows`` that are not yet solved."""
        half = self._solved.size // 2
        rows = np.nonzero(rows & ~self._solved[:half])[0]
        if rows.size == 0:
            return
        eigs = _theta_scan(self._m, _GRID, rows)[1]
        self._lam_max_grid[rows] = eigs[:, -1]
        self._lam_max_grid[rows + half] = -eigs[:, 0]
        self._min_abs_grid[rows] = self._min_abs_grid[rows + half] = np.min(
            np.abs(eigs), axis=1)
        self._solved[rows] = self._solved[rows + half] = True

    def _cells_needed(self, grid, find_max: bool) -> np.ndarray:
        """Per coarse cell: whether its fine points can still matter.

        Coarse values that spread by less than the margin keep every cell,
        so a profile flat to rounding is scanned in full and _refine's flat
        test sees the same grid as before.
        """
        lip = self._lipschitz
        lo, hi = grid[_GRID.points], grid[_GRID.ends]
        if find_max:
            top = np.maximum(lo, hi)
            # outer polygon: top / cos(span / 2) if top >= 0, else top
            outer = np.maximum(top, top / _GRID.cos_half)
            # the cell's points read at most outer, up to eigvalsh rounding
            return _can_win(outer + _PRUNE_MARGIN * lip, lo.max(), grid.shape[0], lip)
        reach = lip * (2.0 * np.pi / grid.shape[0] + _PRUNE_MARGIN)
        bound = 0.5 * (lo + hi - lip * _GRID.span)  # Lipschitz
        return bound <= lo.min() + reach

    def _solve_cells(self, grid, find_max: bool) -> None:
        """Solve the fine points of the cells a read cannot rule out."""
        if not self._solved.all():
            fine = (_GRID.cell_of >= 0) & self._cells_needed(grid, find_max)[_GRID.cell_of]
            half = self._solved.size // 2
            self._solve(fine[:half] | fine[half:])

    def _zero_inside(self) -> bool:
        """The sign certificate for c: whether lambda_max provably stays above
        _PRUNE_MARGIN ||M|| all round the circle, so that 0 lies inside the
        numerical range.

        Between adjacent solved points a and b, (h_a + h_b - ||M|| (b - a)) / 2
        bounds the profile from below. Every eigenvalue of the profile that
        the full scan or its refinement computes then lies a few ulps of ||M||
        from a value above the margin, so it is positive, and c is 0.
        """
        solved = np.nonzero(self._solved)[0]
        steps = np.diff(solved, append=solved[0] + self._solved.size)
        h = self._lam_max_grid
        floor = 0.5 * (h[solved] + h[np.roll(solved, -1)]
                       - self._lipschitz * (2.0 * np.pi / self._solved.size) * steps)
        return bool(floor.min() > _PRUNE_MARGIN * self._lipschitz)

    def _refined(self, grid, fn, find_max: bool) -> float:
        """The read's extremum, refined from the points solved so far."""
        if not self._solved.all():
            # an unsolved point can be no candidate and loses every 3-point test
            grid = np.where(self._solved, grid, -np.inf if find_max else np.inf)
        return _refine(_GRID.thetas, grid, fn, find_max, self._lipschitz, self._flat_tol)

    @cached_property
    def w(self) -> float:
        """Numerical radius: max over theta of lambda_max(Re(e^{i theta} M))."""
        self._solve_cells(self._lam_max_grid, True)
        return max(0.0, self._refined(self._lam_max_grid, self._lam_max, True))

    @cached_property
    def crawford(self) -> float:
        """Crawford number: max(0, -min over theta of lambda_max)."""
        if self._zero_inside():
            return 0.0
        self._solve_cells(self._lam_max_grid, False)
        if self._zero_inside():
            return 0.0
        return max(0.0, -self._refined(self._lam_max_grid, self._lam_max, False))

    @cached_property
    def crawford_c(self) -> float:
        """C: min over theta of sigma_min(Re(e^{i theta} M))."""
        self._solve_cells(self._min_abs_grid, False)
        return max(0.0, self._refined(self._min_abs_grid, self._min_abs, False))


def sweep_gauges(m) -> GaugeSweep:
    """Numerical radius, Crawford number and C of one matrix from one scan."""
    return GaugeSweep(_square(m))


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


def _reduced_checked(f: AFrame, t) -> np.ndarray:
    if f.rank == 0:
        raise EmptyRange("metric has rank zero; A-gauges are undefined")
    return reduced(f, t)


def a_seminorm(f: AFrame, t) -> float:
    """Operator seminorm sup ||Tx||_A / ||x||_A over the range of A."""
    return spec_norm(_reduced_checked(f, t))


def a_min_modulus(f: AFrame, t) -> float:
    """Minimum modulus inf ||Tx||_A / ||x||_A over the range of A."""
    return float(singular_values(_reduced_checked(f, t))[-1])


def a_numerical_radius(f: AFrame, t) -> float:
    return numerical_radius(_reduced_checked(f, t))


def a_crawford(f: AFrame, t) -> float:
    return crawford(_reduced_checked(f, t))


def a_crawford_C(f: AFrame, t) -> float:
    return crawford_C(_reduced_checked(f, t))


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
    sqrt_a = herm_part((u * np.sqrt(f.lam)) @ u.conj().T)  # A^{1/2}, formed on H
    w_map = sqrt_a @ u  # ||U z||_A = ||w_map z||_2
    at = f.a @ t
    st = sqrt_a @ t
    ss = sqrt_a @ s if s is not None else None

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


def positive_power(f: AFrame, eig: tuple, r: float) -> np.ndarray:
    """The r-th power v diag(lam^r) v* of a PSD compression on ``f``, given
    its eigendecomposition (lam, v) with lam >= 0; a caller can reuse one
    decomposition across exponents.

    Non-integer exponents require a strictly positive metric: a fractional
    functional calculus on a degenerate frame is not offered.
    """
    if r < 1:
        raise ValueError("exponent must satisfy r >= 1")
    if not _integer_exponent(r) and not f.strictly_positive:
        raise UnsupportedExponent(
            "non-integer exponent requires a strictly positive metric"
        )
    if f.rank == 0:
        raise EmptyRange("metric has rank zero; A-gauges are undefined")
    lam, v = eig
    return herm_part((v * lam ** float(r)) @ v.conj().T)
