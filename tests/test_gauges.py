import itertools
import warnings

import numpy as np
import pytest

from anumrad import adjoint, gauges
from anumrad import (
    a_crawford,
    a_crawford_C,
    a_min_modulus,
    a_numerical_radius,
    a_seminorm,
    check_instance,
    crawford,
    crawford_C,
    gen_compatible,
    gen_psd,
    Instance,
    new_frame,
    numerical_radius,
    oracle_gauge,
    reduced,
    run_all,
    run_check,
    sharp,
)
from anumrad.catalog import _Ctx
from anumrad.errors import (
    EmptyRange,
    NoAdjoint,
)
from anumrad.matrixcore import frob, spec_norm

NILP = np.array([[0.0, 2.0], [0.0, 0.0]])


def re_a(f, t):
    """A-real part (T + T#)/2."""
    return 0.5 * (t + sharp(f, t))


def rand_complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_frame(rng, n=None, rank=None):
    n = n or int(rng.integers(2, 6))
    rank = rank if rank is not None else int(rng.integers(1, n + 1))
    return new_frame(gen_psd(n, rank, int(rng.integers(0, 2**63))))


def test_numerical_radius_examples():
    # w of [[0, a], [0, 0]] is |a| / 2
    assert numerical_radius(NILP) == pytest.approx(1.0, abs=1e-11)
    assert numerical_radius(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    t = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    assert numerical_radius(t) == pytest.approx(np.sqrt(5.0) / 2.0, abs=1e-10)
    assert numerical_radius(np.array([[3j]])) == pytest.approx(3.0, abs=1e-11)
    assert numerical_radius(np.zeros((3, 3))) == 0.0


def test_crawford_examples():
    assert crawford(np.eye(3)) == pytest.approx(1.0, abs=1e-11)
    assert crawford(np.diag([1.0, -1.0])) == pytest.approx(0.0, abs=1e-11)
    assert crawford(NILP) == pytest.approx(0.0, abs=1e-11)


def test_crawford_bounded_by_diagonal_entries():
    rng = np.random.default_rng(30)
    for _ in range(10):
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert crawford(np.diag(d)) <= np.abs(d).min() + 1e-9


def test_crawford_C_examples():
    # phase pi/2 sends Re(e^{i phi} I) to zero
    assert crawford_C(np.eye(3)) == pytest.approx(0.0, abs=1e-11)
    assert crawford_C(np.zeros((2, 2))) == 0.0
    # Re(e^{i phi} [[0,2],[0,0]]) has both singular values equal to 1
    assert crawford_C(NILP) == pytest.approx(1.0, abs=1e-11)


def test_crawford_C_brute_force_cross_check():
    rng = np.random.default_rng(31)
    m = rand_complex(rng, (3, 3))
    fine = crawford_C(m)
    brute = np.inf
    for phi in np.linspace(0, np.pi, 720, endpoint=False):
        h = 0.5 * (np.exp(1j * phi) * m + np.exp(-1j * phi) * m.conj().T)
        for _ in range(40):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            x /= np.linalg.norm(x)
            brute = min(brute, np.linalg.norm(h @ x))
    assert fine <= brute + 1e-9  # brute force approaches from above


def test_radius_error_contract_vs_fine_grid():
    # sweep accuracy must beat max(_REFINE_TOL, (pi ||M|| / grid)^2) against
    # a dense 8192-point scan; |lambda| has kinks where an eigenvalue crosses
    # zero, so for C the dense scan is only first-order accurate
    rng = np.random.default_rng(42)
    thetas = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    ph = np.exp(1j * thetas)[:, None, None]
    for _ in range(5):
        m = rand_complex(rng, (5, 5))
        eigs = np.linalg.eigvalsh(0.5 * (ph * m + ph.conj() * m.conj().T))
        lam_max = eigs[:, -1]
        norm = spec_norm(m)
        bound = max(1e-12, (np.pi * norm / 1024.0) ** 2)
        assert abs(numerical_radius(m) - max(0.0, lam_max.max())) <= bound
        assert abs(crawford(m) - max(0.0, -lam_max.min())) <= bound
        c_dense = np.abs(eigs).min()
        assert crawford_C(m) <= c_dense <= crawford_C(m) + np.pi * norm / 8192


def _golden_refined(monkeypatch, gauge, m):
    """The gauge with every bracket refined by golden section instead of Newton."""
    def golden(fn, x, delta, find_max):
        return gauges._golden(lambda t: fn(t)[0], x - delta, x + delta, find_max)

    with monkeypatch.context() as mp:
        mp.setattr(gauges, "_newton", golden)
        return gauge(m)


def _fragile_profiles():
    rng = np.random.default_rng(44)
    out = []
    for _ in range(4):
        # normal, 0 outside W: the minimum of lambda_max sits on a kink
        u, _ = np.linalg.qr(rand_complex(rng, (4, 4)))
        z = np.exp(1j * rng.uniform(0, 2 * np.pi)) * (
            1.0 + rng.uniform(0, 1, 4) + 1j * rng.uniform(-1, 1, 4))
        out.append(u @ np.diag(z) @ u.conj().T)
        # repeated eigenvalue at the maximizer
        out.append(u @ np.diag([3 * z[0], 3 * z[0], z[1], -z[2]]) @ u.conj().T)
        # odd size: an eigenvalue of Re(e^{i phi} M) must cross zero, so C = 0
        out.append(rand_complex(rng, (3, 3)))
        out.append(rand_complex(rng, (5, 5)))
    for n in (2, 3, 5):
        jordan = np.diag(np.ones(n - 1), 1)
        out.append(jordan)  # flat profile, W a disk
        out.append(np.eye(n) + 0.3 * jordan)
    return out


def test_newton_refinement_matches_golden_section(monkeypatch):
    for m in _fragile_profiles():
        for gauge in (numerical_radius, crawford, crawford_C):
            newton = gauge(m)
            golden = _golden_refined(monkeypatch, gauge, m)
            assert abs(newton - golden) <= 1e-12 * max(1.0, golden), (gauge.__name__, m)


def test_newton_needs_few_evaluations_per_bracket(monkeypatch):
    # golden section spends ~50 evaluations on a bracket, bisection ~33
    count = {"evals": 0, "brackets": 0}
    pointwise, newton = gauges._make_pointwise, gauges._newton

    def counted(fn):
        def inner(theta):
            count["evals"] += 1
            return fn(theta)
        return inner

    def counted_newton(*args):
        count["brackets"] += 1
        return newton(*args)

    monkeypatch.setattr(gauges, "_make_pointwise", lambda m: tuple(map(counted, pointwise(m))))
    monkeypatch.setattr(gauges, "_newton", counted_newton)
    rng = np.random.default_rng(48)
    for gauge in (numerical_radius, crawford, crawford_C):
        count.update(evals=0, brackets=0)
        # 0 lies inside W of a random 3x3 or 4x4 matrix, so c is certified 0
        # without refinement; the shift moves 0 outside W
        shift = 3.0 if gauge is crawford else 0.0
        for n in (3, 4):
            for _ in range(5):
                gauge(rand_complex(rng, (n, n)) + shift * np.eye(n))
        assert count["brackets"] > 0
        assert count["evals"] <= 6 * count["brackets"], gauge.__name__


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _dist_to_hull(z):
    """dist(0, conv{z}): 0 when 0 lies in a triangle of the points, else the
    least distance from 0 to a segment between two of them."""
    n = z.size
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # 0 lies in the triangle when it is on one side of all three edges
                sides = [(b.conjugate() * a).imag for a, b in
                         ((z[i], z[j]), (z[j], z[k]), (z[k], z[i]))]
                if min(sides) >= 0.0 or max(sides) <= 0.0:
                    return 0.0
    best = np.abs(z).min()
    for i in range(n):
        for j in range(i + 1, n):
            d = z[j] - z[i]
            s = np.clip(-(z[i] * d.conjugate()).real / abs(d) ** 2, 0.0, 1.0)
            best = min(best, abs(z[i] + s * d))
    return float(best)


def test_crawford_is_exact_where_eigenvalue_branches_cross():
    # M ~ diag(e^{ia}, e^{i(a+D)}, 1.5 e^{i(a+D/2)}) has c = cos(D/2), which
    # lambda_max attains at a V-shaped crossing of two eigenvalue branches,
    # where Newton steps can alternate exactly between the two branches' own
    # minima without shrinking the bracket
    rng = np.random.default_rng(141)
    for delta in (1e-4, 1e-3, 6e-3):
        for _ in range(200):
            a = rng.uniform(0.0, 2.0 * np.pi)
            d = np.exp(1j * (a + np.array([0.0, delta, 0.5 * delta]))) * [1.0, 1.0, 1.5]
            q = _haar_unitary(rng, 3)
            c = crawford((q * d) @ q.conj().T)
            assert abs(c - np.cos(0.5 * delta)) <= 1e-12, (delta, a, c)
    # on a normal matrix, c is the distance from 0 to the hull of its spectrum
    for i in range(150):
        n = 2 + i % 5
        z = rand_complex(rng, n) + rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        q = _haar_unitary(rng, n)
        m = (q * z) @ q.conj().T
        assert abs(crawford(m) - _dist_to_hull(z)) <= 1e-12 * spec_norm(m), (i, z)


def test_pointwise_derivatives_match_finite_differences():
    rng = np.random.default_rng(45)
    m = rand_complex(rng, (4, 4))
    h = 1e-4
    for fn in gauges._make_pointwise(m):
        for theta in rng.uniform(0, 2 * np.pi, 5):
            f0, df, d2f, _ = fn(theta)
            fp, fm = fn(theta + h)[0], fn(theta - h)[0]
            ph = np.exp(1j * theta)
            lam = np.linalg.eigvalsh(0.5 * (ph * m + np.conj(ph) * m.conj().T))
            assert np.diff(lam).min() > 1e-3
            assert df == pytest.approx((fp - fm) / (2 * h), abs=1e-6)
            assert d2f == pytest.approx((fp - 2 * f0 + fm) / h**2, abs=1e-4)


def _eigh_profiles(m, theta):
    """(value, slope, curvature, gap) of lambda_max and of min |lambda| at
    theta, from one eigh of H(theta) and the eigenvalue perturbation
    formulas: the reference for the 2x2 closed form."""
    ph = np.exp(1j * theta)
    lam, v = np.linalg.eigh(0.5 * (ph * m + np.conj(ph) * m.conj().T))
    dh = v.conj().T @ (0.5j * (ph * m - np.conj(ph) * m.conj().T)) @ v  # H' in the eigenbasis
    out = []
    k_min = int(np.abs(lam).argmin())
    for k, sgn in ((lam.size - 1, 1.0), (k_min, 1.0 if lam[k_min] >= 0 else -1.0)):
        others = np.delete(np.arange(lam.size), k)
        diff = lam[k] - lam[others]
        curvature = -lam[k] + 2.0 * np.sum(np.abs(dh[others, k]) ** 2 / diff)
        out.append((sgn * lam[k], sgn * dh[k, k].real, sgn * curvature, np.abs(diff).min()))
    return out


def test_pair_pointwise_matches_the_eigh_formulas():
    rng = np.random.default_rng(52)
    cases = [rand_complex(rng, (2, 2)) for _ in range(40)]
    cases += [rand_complex(rng, (2, 2)) + 3.0 * np.eye(2), np.array([[0.0, 2.0], [0.0, 0.0]])]
    for m in cases:
        scale = spec_norm(m)
        for theta in rng.uniform(0.0, 2.0 * np.pi, 5):
            for fn, want in zip(gauges._make_pointwise(m), _eigh_profiles(m, theta)):
                value, slope, curvature, _ = fn(theta)
                # the kernel forms derivatives exactly where the eigh gap allows
                assert np.isnan(slope) == (want[3] < gauges._GAP_TOL)
                assert np.isnan(curvature) == (want[3] < gauges._GAP_TOL)
                if want[3] < 1e-6 * scale:
                    continue  # the derivatives lose digits as 1 / gap
                got = np.array([value, slope, curvature])
                np.testing.assert_allclose(got, want[:3], rtol=0, atol=1e-12 * scale)


def test_pair_crossings_read_nan_derivatives_and_hand_over_to_golden(monkeypatch):
    # at an exact crossing of the two eigenvalues of H(theta) the derivatives
    # read NaN, and golden-section search refines the bracket: (2 + i) I
    # crosses at every theta, and U diag(i, -i) U* at theta = 0 and pi
    calls = []
    golden = gauges._golden
    monkeypatch.setattr(gauges, "_golden", lambda *a: calls.append(a[1:]) or golden(*a))
    u = _haar_unitary(np.random.default_rng(53), 2)
    for m, exact, crossing in (((2 + 1j) * np.eye(2), (np.sqrt(5.0), np.sqrt(5.0), 0.0), 0.7),
                               (u @ np.diag([1j, -1j]) @ u.conj().T, (1.0, 0.0, 0.0), 0.0)):
        ph = np.exp(1j * crossing)
        lam = np.linalg.eigvalsh(0.5 * (ph * m + np.conj(ph) * m.conj().T))
        assert lam[1] - lam[0] < gauges._GAP_TOL
        for fn in gauges._make_pointwise(m):
            value, slope, curvature, _ = fn(crossing)
            assert np.isnan(slope) and np.isnan(curvature)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = gauges.sweep_gauges(m)
            got = (sweep.w, sweep.crawford, sweep.crawford_c)
        assert calls, m
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12)


def _ellipse_gauges(l1, l2, minor):
    """w and c of the ellipse with foci l1, l2 and minor axis ``minor``: the
    numerical range of a 2x2 matrix (elliptical range theorem, C.-K. Li,
    Proc. AMS 124, 1996), sampled densely on its boundary and then again
    around the extreme samples."""
    centre, half_gap = 0.5 * (l1 + l2), 0.5 * abs(l2 - l1)
    axis = np.exp(1j * np.angle(l2 - l1))
    b = 0.5 * minor
    a = np.hypot(b, half_gap)

    def boundary(t):
        return centre + axis * (a * np.cos(t) + 1j * b * np.sin(t))

    def extreme(pick):
        t = np.linspace(0.0, 2.0 * np.pi, 1 << 14, endpoint=False)
        t0 = t[pick(np.abs(boundary(t)))]
        t = np.linspace(t0 - 1e-3, t0 + 1e-3, 1 << 12)
        return float(np.abs(boundary(t))[pick(np.abs(boundary(t)))])

    w = extreme(np.argmax)
    inside = abs(l1) + abs(l2) <= 2.0 * a  # 0 in the ellipse: sum of focal distances
    return w, 0.0 if inside else extreme(np.argmin)


def test_pair_gauges_match_the_elliptical_range_theorem():
    rng = np.random.default_rng(54)
    for i in range(300):
        kind = i % 3
        if kind == 2:  # normal: W is the segment between the eigenvalues
            lam = rand_complex(rng, 2) + rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            u = _haar_unitary(rng, 2)
            m, minor = (u * lam) @ u.conj().T, 0.0
        else:  # random, and shifted so that 0 may lie outside W
            shift = 0.0 if kind == 0 else rng.uniform(0.5, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            m = rand_complex(rng, (2, 2)) + shift * np.eye(2)
            lam = np.linalg.eigvals(m)
            minor = np.sqrt(max(0.0, frob(m) ** 2 - np.sum(np.abs(lam) ** 2)))
        w, c = _ellipse_gauges(lam[0], lam[1], minor)
        sweep = gauges.sweep_gauges(m)
        assert abs(sweep.w - w) <= 1e-9 * w, (i, m)
        assert abs(sweep.crawford - c) <= 1e-9 * w, (i, m)


def test_one_by_one_gauges_are_exact():
    for z in (3j, -2.5, 0.0, 1e-300 - 4e-300j, 7e200 + 1e200j, 0.1 + 0.2j):
        sweep = gauges.sweep_gauges([[z]])
        assert sweep.w == abs(z) and sweep.crawford == abs(z), z
        assert sweep.crawford_c == 0.0, z


def test_jordan_block_profiles_are_flat(monkeypatch):
    # the spectrum of Re(e^{i theta} J) does not depend on theta, so the grid
    # values differ by rounding only and no bracket is refined
    evals = []
    pointwise = gauges._make_pointwise
    monkeypatch.setattr(gauges, "_make_pointwise", lambda m: tuple(
        (lambda theta, fn=fn: evals.append(theta) or fn(theta)) for fn in pointwise(m)))
    for n in range(2, 9):
        sweep = gauges.sweep_gauges(np.diag(np.ones(n - 1), 1))
        eigs = np.cos(np.arange(1, n + 1) * np.pi / (n + 1))  # spectrum of Re J
        assert sweep.w == pytest.approx(eigs[0], abs=1e-14)
        assert sweep.crawford == 0.0
        assert sweep.crawford_c == pytest.approx(np.min(np.abs(eigs)), abs=1e-14)
        assert evals == [], n


def test_sweep_refines_only_the_gauges_read(monkeypatch):
    calls = []
    refine = gauges._refine
    monkeypatch.setattr(gauges, "_refine", lambda *a: calls.append(a) or refine(*a))
    m = rand_complex(np.random.default_rng(46), (4, 4))
    sweep = gauges.sweep_gauges(m)
    assert calls == []
    w = sweep.w
    assert sweep.w == w
    assert len(calls) == 1


def test_half_circle_scan_matches_full_circle():
    # every 2x2 input goes through the closed form; its pair must match the
    # eigvalsh stack at every scale
    rng = np.random.default_rng(47)
    pairs = [np.asarray(m, dtype=complex) for m in _structured(2, rng)]
    pairs += [s * rand_complex(rng, (2, 2)) for s in (1e-150, 1e30)]
    pairs += [s * np.array([[1.0, 2.0], [0.0, -1j]]) for s in (1e-150, 1e30)]
    for m in [rand_complex(rng, (n, n)) for n in (1, 2, 5)] + pairs:
        eigs = gauges._theta_scan(m, gauges._GRID)
        ph = np.exp(1j * gauges._GRID.thetas)[:, None, None]
        full = np.linalg.eigvalsh(0.5 * (ph * m + ph.conj() * m.conj().T))
        np.testing.assert_allclose(eigs, full, rtol=0, atol=1e-13 * spec_norm(m))


def _shifted_across_boundary(m, rng):
    """M shifted by multiples of I that put 0 at the centroid of W(M),
    1e-9 ||M|| inside and outside its boundary, and 3 ||M|| outside it."""
    n = m.shape[0]
    theta = rng.uniform(0.0, 2.0 * np.pi)
    ph = np.exp(1j * theta)
    v = np.linalg.eigh(0.5 * (ph * m + ph.conj() * m.conj().T))[1][:, -1]
    base = m - (v.conj() @ m @ v) * np.eye(n)  # 0 is the support point at theta
    size = spec_norm(base)
    # W(base + s e^{-i theta} I) is W(base) moved by s along its outer normal
    # at 0, so s > 0 puts 0 inside it and s < 0 puts 0 at distance |s|
    out = [m - np.trace(m) / n * np.eye(n)]  # the centroid of W to 0
    out += [base + s * size * ph.conj() * np.eye(n) for s in (1e-9, -1e-9, -3.0)]
    return out


def _apex_mid_cell(u, n):
    """A normal matrix whose two outer eigenvalues have near-equal modulus.

    1 has its apex at the fine point 5 delta; 1 + 2e-6 has its apex at
    24.5 delta, mid-cell and mid-step, where every grid point reads below 1.
    So only the outer-polygon factors 1 / cos(span / 2) (for the cell) and
    1 / cos(delta / 2) (for the candidate) keep the higher apex in play.
    """
    delta = 2.0 * np.pi / 1024
    inner = 0.5 * np.exp(1j * (0.3 + np.linspace(0.0, 2.0 * np.pi, n - 2, endpoint=False)))
    lam = np.concatenate(([np.exp(-5j * delta), (1.0 + 2e-6) * np.exp(-24.5j * delta)], inner))
    return u @ np.diag(lam) @ u.conj().T


def _structured(n, rng):
    """Matrices whose profiles are generic, symmetric, flat or tiny,
    matrices whose W has 0 inside, near its boundary or outside, and (for
    n >= 2) one whose highest apex sits between the coarse points."""
    jordan = np.diag(np.ones(n - 1), 1)
    u, _ = np.linalg.qr(rand_complex(rng, (n, n)))
    h = rand_complex(rng, (n, n))
    apex = [_apex_mid_cell(u, n)] if n >= 2 else []
    return apex + _shifted_across_boundary(rand_complex(rng, (n, n)), rng) + [
        rand_complex(rng, (n, n)),
        u @ np.diag(rand_complex(rng, n)) @ u.conj().T,  # normal
        h + h.conj().T,  # Hermitian
        jordan,
        np.eye(n) + 0.3 * jordan,
        (1.7 - 0.4j) * np.eye(n),
        np.zeros((n, n)),
        1e-8 * rand_complex(rng, (n, n)),
        rand_complex(rng, (n, n)) + 3.0 * np.eye(n),  # 0 outside W: c > 0
    ]


def _reference_refine(thetas, vals, fn, find_max, lipschitz, flat_tol):
    """The grid extremum refined from every local extremum within ||M|| delta
    of it, at most 64 of them: the candidate rule that the sweep's tighter
    rules must reproduce bit for bit."""
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
        v = gauges._newton(fn, float(thetas[i]), delta, find_max)
        best = max(best, v) if find_max else min(best, v)
    return best


def _full_scan_gauges(m):
    """w, c and C from the full theta scan, every local extremum within
    ||M|| delta of the grid's refined, and no sign certificate."""
    thetas, eigs = gauges._GRID.thetas, gauges._theta_scan(m, gauges._GRID)
    lam_max, min_abs = gauges._make_pointwise(m)
    lip = spec_norm(m)
    flat_tol = 4.0 * m.shape[0] * np.finfo(float).eps * lip

    def refined(grid, fn, find_max):
        return _reference_refine(thetas, grid, fn, find_max, lip, flat_tol)

    return (max(0.0, refined(eigs[:, -1], lam_max, True)),
            max(0.0, -refined(eigs[:, -1], lam_max, False)),
            max(0.0, refined(np.min(np.abs(eigs), axis=1), min_abs, False)))


def test_pruned_scan_is_bit_identical_to_full_scan():
    # the cell bounds skip only grid points that can change nothing, in
    # whichever order the gauges are read: each of the six orders reads a
    # fresh sweep; a 1x1 sweep scans nothing and must read the exact values
    rng = np.random.default_rng(1024)
    names = ("w", "crawford", "crawford_c")
    for n in range(1, 13):
        for m in _structured(n, rng):
            m = np.asarray(m, dtype=complex)
            exact = (abs(m[0, 0]), abs(m[0, 0]), 0.0) if n == 1 else _full_scan_gauges(m)
            want = dict(zip(names, (float(v).hex() for v in exact)))
            for order in itertools.permutations(names):
                sweep = gauges.sweep_gauges(m)
                got = {name: getattr(sweep, name).hex() for name in order}
                assert got == want, (n, order, m)


def test_golden_hand_over_matches_full_scan_without_warnings(monkeypatch):
    # lambda_max is double at the peak of each profile, so Newton meets a gap
    # below _GAP_TOL and hands the bracket to golden-section search, which
    # reads only the value; no curvature is formed there, so nothing divides
    # by the zero gap
    calls = []
    golden = gauges._golden
    monkeypatch.setattr(gauges, "_golden", lambda *a: calls.append(a[1:]) or golden(*a))
    cases = ((np.diag([1, 1, 0.5j]), 4),
             (np.diag([1, 1, -1 + 0.2j, 0.3]), 3),
             ((2 + 1j) * np.eye(2), 4))
    for m, golden_runs in cases:
        m = np.asarray(m, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = _full_scan_gauges(m)
            calls.clear()
            sweep = gauges.sweep_gauges(m)
            got = [sweep.w, sweep.crawford, sweep.crawford_c]
        assert len(calls) == golden_runs, m
        assert [v.hex() for v in got] == [v.hex() for v in want], m


def test_structured_sweeps_raise_no_warning():
    rng = np.random.default_rng(1025)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(1, 9):
            for m in _structured(n, rng):
                sweep = gauges.sweep_gauges(m)
                sweep.w, sweep.crawford, sweep.crawford_c


def test_outer_polygon_keeps_a_peak_between_coarse_points():
    # W is the segment [1, 1.001 e^{-i theta0}]; the higher apex sits mid-cell
    # at theta0, where both coarse ends read 1.001 cos(8 delta) < 1, below the
    # grid maximum even after _can_win's 1 / cos(delta / 2) factor, so only
    # the wedge bound at the cell's fine points (``_wedge``), which reaches
    # 1.001 at theta0, keeps that cell
    theta0 = 24 * 2 * np.pi / 1024
    m = np.diag([1.0, 1.001 * np.exp(-1j * theta0)])
    assert numerical_radius(m) == pytest.approx(1.001, abs=1e-14)
    assert numerical_radius(m).hex() == _full_scan_gauges(m)[0].hex()


def test_wedge_bounds_lambda_max_at_every_grid_point():
    # the support lines at the two ends of a coarse cell cut out a wedge
    # that contains W(M), so its support function bounds every point of the
    # cell from above and reads the coarse value itself at the cell's start
    rng = np.random.default_rng(1026)
    for n in range(2, 9):
        for m in _structured(n, rng):
            m = np.asarray(m, dtype=complex)
            lam_max = gauges._theta_scan(m, gauges._GRID)[:, -1]
            lo = lam_max[::16]
            bound = gauges._wedge(lo, np.roll(lo, -1))
            assert np.all(bound >= lam_max - 1e-13 * spec_norm(m)), (n, m)
            assert np.array_equal(bound[::16], lo)


def _count_scan_rows(monkeypatch):
    solved = []
    scan = gauges._theta_scan
    monkeypatch.setattr(gauges, "_theta_scan", lambda m, grid, rows=None: solved.append(
        grid.grid_points // 2 if rows is None else len(rows)) or scan(m, grid, rows))
    return solved


def test_w_read_prunes_most_of_the_scan(monkeypatch):
    # the full scan solves 512 rows; the 32 coarse rows and at most three
    # cells of 15 fine rows are left once a cell must be able to win, while
    # the looser ||M|| delta reach keeps up to six cells here
    solved = _count_scan_rows(monkeypatch)
    rng = np.random.default_rng(49)
    for _ in range(10):
        solved.clear()
        gauges.sweep_gauges(rand_complex(rng, (4, 4))).w
        assert 0 < sum(solved) <= 32 + 3 * 15


def test_min_reads_solve_the_pinned_rows(monkeypatch):
    # a c or C read solves the cells whose Lipschitz floor can still reach
    # the coarse minimum (``_can_win``); pinning the row counts makes any
    # loosening or tightening of that rule show. The 3I shift moves 0
    # outside W, so the c read is not certified 0 on the coarse cells
    solved = _count_scan_rows(monkeypatch)
    rng = np.random.default_rng(49)
    rows_c, rows_cc = [], []
    for _ in range(10):
        solved.clear()
        gauges.sweep_gauges(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                            ).crawford_c
        rows_cc.append(sum(solved))
        solved.clear()
        gauges.sweep_gauges(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                            + 3.0 * np.eye(4)).crawford
        rows_c.append(sum(solved))
    assert rows_cc == [512, 242, 287, 317, 182, 242, 212, 137, 122, 107]
    assert rows_c == [182, 197, 32, 167, 137, 182, 167, 107, 137, 152]


def test_crawford_certified_zero_solves_only_the_coarse_rows(monkeypatch):
    # 0 is the centroid of the triangle W(diag(1, omega, omega^2)), 1/2 from
    # its boundary: the coarse cells alone prove lambda_max > 0, so c = 0
    # with no fine row and no pointwise evaluation
    solved = _count_scan_rows(monkeypatch)
    evals = []
    pointwise = gauges._make_pointwise
    monkeypatch.setattr(gauges, "_make_pointwise", lambda m: tuple(
        (lambda theta, fn=fn: evals.append(theta) or fn(theta)) for fn in pointwise(m)))
    u, _ = np.linalg.qr(rand_complex(np.random.default_rng(51), (3, 3)))
    m = u @ np.diag(np.exp(2j * np.pi * np.arange(3) / 3)) @ u.conj().T
    assert gauges.sweep_gauges(m).crawford == 0.0
    assert solved == [gauges._GRID.grid_points // 2 // 16]
    assert evals == []
    assert _full_scan_gauges(m)[1] == 0.0


def test_w_refines_only_the_peak_that_can_win(monkeypatch):
    # two peaks 1e-3 apart: the lower one is within ||M|| delta of the grid
    # maximum but below it even after the outer-polygon factor, so only the
    # higher one is refined
    brackets = []
    newton = gauges._newton
    monkeypatch.setattr(gauges, "_newton", lambda *a: brackets.append(a[1]) or newton(*a))
    m = np.diag([1.0, 0.999 * np.exp(2j * np.pi / 3), 0.2])
    thetas, eigs = gauges._GRID.thetas, gauges._theta_scan(m, gauges._GRID)
    want = _reference_refine(thetas, eigs[:, -1], gauges._make_pointwise(m)[0], True,
                             spec_norm(m), 0.0)
    assert len(brackets) == 2  # the looser rule refines both peaks
    brackets.clear()
    assert numerical_radius(m).hex() == want.hex()
    assert len(brackets) == 1


def test_row_subset_scan_matches_full_stack():
    rng = np.random.default_rng(50)
    for n in range(1, 13):
        m = rand_complex(rng, (n, n))
        full = gauges._theta_scan(m, gauges._GRID)
        assert full.shape == (1024, n)
        every = np.arange(512)
        assert np.array_equal(gauges._theta_scan(m, gauges._GRID, every), full)
        # a sweep never scans a 1x1 matrix (its gauges are exact), so only
        # the whole half grid is pinned for n = 1
        if n == 1:
            continue
        for _ in range(20):
            rows = np.sort(rng.choice(512, size=int(rng.integers(1, 100)), replace=False))
            sub = gauges._theta_scan(m, gauges._GRID, rows)
            # the requested rows, then their mirrors theta + pi
            assert np.array_equal(sub, full[np.concatenate((rows, rows + 512))])


def test_a_seminorm_and_min_modulus():
    rng = np.random.default_rng(32)
    t = rand_complex(rng, (3, 3))
    f = new_frame(np.eye(3))
    assert a_seminorm(f, t) == pytest.approx(spec_norm(t), abs=1e-12)
    assert a_min_modulus(f, t) == pytest.approx(np.linalg.svd(t, compute_uv=False)[-1], abs=1e-12)

    f = new_frame(np.diag([4.0, 1.0]))
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert a_seminorm(f, t) == pytest.approx(2.0, abs=1e-12)
    assert a_min_modulus(f, t) == pytest.approx(0.0, abs=1e-12)

    f = new_frame(np.diag([0.0, 1.0]))
    assert a_seminorm(f, np.eye(2)) == pytest.approx(1.0)
    assert a_min_modulus(f, np.eye(2)) == pytest.approx(1.0)


def test_a_gauges_raise_on_empty_range_and_missing_adjoint():
    # a rank-zero metric raises one EmptyRange at every entry point, before
    # any gauge or check row is computed
    f0 = new_frame(np.zeros((2, 2)))
    for gauge in (a_seminorm, a_min_modulus, a_numerical_radius, a_crawford, a_crawford_C):
        with pytest.raises(EmptyRange):
            gauge(f0, np.eye(2))
    with pytest.raises(EmptyRange):
        oracle_gauge(f0, np.eye(2), "w", 10, seed=0)
    with pytest.raises(EmptyRange):
        run_all(f0, {"T": np.eye(2)})
    with pytest.raises(EmptyRange):
        run_check("lem_sup_theta", f0, {"T": np.eye(2)})
    with pytest.raises(EmptyRange):
        check_instance(Instance(dim=2, a=np.zeros((2, 2)), operators={"T": np.eye(2)},
                                seed=0))
    f = new_frame(np.diag([0.0, 1.0]))
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NoAdjoint):
        a_numerical_radius(f, t)
    with pytest.raises(NoAdjoint):
        oracle_gauge(f, t, "w", 10, seed=0)


def test_a_numerical_radius_examples():
    f = new_frame(np.eye(3))
    t = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert a_numerical_radius(f, t) == pytest.approx(1.0, abs=1e-10)

    f = new_frame(np.diag([4.0, 1.0]))
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert a_numerical_radius(f, t) == pytest.approx(1.0, abs=1e-10)

    f = new_frame(np.diag([0.0, 2.0, 1.0]))
    assert a_numerical_radius(f, np.eye(3)) == pytest.approx(1.0, abs=1e-10)
    assert a_crawford(f, np.eye(3)) == pytest.approx(1.0, abs=1e-10)


def test_oracle_examples():
    f = new_frame(np.eye(2))
    o = oracle_gauge(f, NILP, "w", 2000, seed=5)
    assert 0.999 <= o <= 1.0 + 1e-9
    assert oracle_gauge(f, np.eye(2), "norm", 64, seed=1) == pytest.approx(1.0, abs=1e-12)
    assert oracle_gauge(f, np.eye(2), "c", 64, seed=1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        oracle_gauge(f, NILP, "bogus", 10, seed=0)
    with pytest.raises(ValueError):
        oracle_gauge(f, NILP, "w", 0, seed=0)
    for samples in (2.5, 3.0, "3", True, None):
        with pytest.raises(ValueError):
            oracle_gauge(f, NILP, "w", samples, seed=0)
    # samples is checked before the Douglas test
    f_cut = new_frame(np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        oracle_gauge(f_cut, np.array([[0.0, 1.0], [1.0, 0.0]]), "w", 2.5, seed=0)
    assert oracle_gauge(f, np.eye(2), "norm", np.int64(3), seed=1) == \
        oracle_gauge(f, np.eye(2), "norm", 3, seed=1)


def test_oracle_reduction_soundness():
    rng = np.random.default_rng(33)
    for i in range(8):
        f = random_frame(rng, n=int(rng.integers(2, 6)))
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        t = t / max(spec_norm(t), 1.0)
        w = a_numerical_radius(f, t)
        o = oracle_gauge(f, t, "w", 2000, seed=100 + i)
        assert o <= w + 1e-9
        assert abs(w - o) <= 2e-3


def test_oracle_inf_kinds_from_above():
    rng = np.random.default_rng(34)
    for i in range(6):
        f = random_frame(rng, n=3, rank=3)
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        c_sweep = a_crawford(f, t)
        c_oracle = oracle_gauge(f, t, "c", 1500, seed=200 + i)
        assert c_oracle >= c_sweep - 1e-9
        assert abs(c_oracle - c_sweep) <= 2e-3
        mm = a_min_modulus(f, t)
        mo = oracle_gauge(f, t, "minmod", 1500, seed=300 + i)
        assert mo >= mm - 1e-9
        assert abs(mo - mm) <= 1e-6  # one-sided alone would let +inf pass
        cc = a_crawford_C(f, t)
        co = oracle_gauge(f, t, "C", 1500, seed=400 + i)
        assert co >= cc - 1e-9
        assert abs(co - cc) <= 1e-3


def test_oracle_never_touches_the_compression_or_the_sweep(monkeypatch):
    """The oracle is the cross-check for the range compression and the sweep
    engine, so it must reach every estimate without either."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the compression route")
    for module, name in ((adjoint, "reduced"), (gauges, "reduced"), (gauges, "GaugeSweep"),
                         (gauges, "_theta_scan")):
        monkeypatch.setattr(module, name, forbidden)
    for rank in (4, 2):
        f, t = _oracle_golden_frame(rank)
        for kind in gauges.ORACLE_KINDS:
            assert np.isfinite(oracle_gauge(f, t, kind, 8, seed=1)), (rank, kind)


def test_oracle_C_converges_near_zero():
    """C of the rank-4 golden frame is 0 up to rounding, and there the climb
    approaches C slowest of the five kinds; at 300 samples it must still
    come within 1e-3."""
    f, t = _oracle_golden_frame(4)
    C = a_crawford_C(f, t)
    assert C <= 1e-15
    est = oracle_gauge(f, t, "C", 300, seed=63)
    assert C - 1e-9 <= est <= C + 1e-3


# oracle_gauge(f, t, kind, samples, seed=63) for samples 1, 37 and 300 on the
# frames of _oracle_golden_frame, as float.hex. The estimates are a pure
# function of their inputs, so any change to the random stream or to the
# hill-climb arithmetic shows up here. Re-captured when every phase moved to
# uniform proposal steps and the w truncations began to keep one chain per
# phase sector, and again when each kind became a ratio of A-forms in range
# coordinates (the arithmetic moved, not the random stream). Captured with
# numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64; another numpy or BLAS may round
# differently.
_ORACLE_GOLDEN = {
    (4, 'w'): ('0x1.601fbba40eba2p+2', '0x1.601fbbafdf15bp+2', '0x1.601fbbafcfbd9p+2'),
    (4, 'c'): ('0x1.e6b2413c65453p-20', '0x1.64181c53da6a8p-21', '0x1.0d2febe18f0a5p-20'),
    (4, 'norm'): ('0x1.38392a108a372p+3', '0x1.38392a1861213p+3', '0x1.38392a17dea6bp+3'),
    (4, 'minmod'): ('0x1.f0a7565b43d70p-3', '0x1.f0a7560adcf01p-3', '0x1.f0a75606d9d35p-3'),
    (4, 'C'): ('0x1.a9d5691f36e1dp-7', '0x1.a4f00a9b14674p-10', '0x1.33bf75eccacc8p-12'),
    (2, 'w'): ('0x1.ef8fc809c1d6fp+0', '0x1.ef8fc809c844fp+0', '0x1.ef8fc809c80b9p+0'),
    (2, 'c'): ('0x1.1981c6d7e62abp-20', '0x1.42fff22d9773ep-20', '0x1.b041bbfc1c295p-21'),
    (2, 'norm'): ('0x1.0a212c2819824p+1', '0x1.0a212c2819aa9p+1', '0x1.0a212c28197bap+1'),
    (2, 'minmod'): ('0x1.1170a05d79023p+0', '0x1.1170a05d74244p+0', '0x1.1170a05d748f6p+0'),
    (2, 'C'): ('0x1.dab1aaa3b1c71p-5', '0x1.dab1aaa357c8fp-5', '0x1.dab1aaa35bfd8p-5'),
}

# The same estimates with only the broad first phase run (_PHASES cut to its
# first row), as float.hex. They pin the broad phase's own bits, apart from
# the survivor phases: its random stream, its step sizes and its
# arithmetic. No truncation runs here, so the sector survivors do not reach
# them. Re-captured when the broad phase moved from Gaussian to uniform
# proposal steps, and when each kind became a ratio of A-forms.
_ORACLE_BROAD_PHASE = {
    (4, 'w'): ('0x1.424d5abd75acep+1', '0x1.3342312d26788p+2', '0x1.4e8585ec697ffp+2'),
    (4, 'c'): ('0x1.1e120d0f942d0p-3', '0x1.5e558b74d9eaap-6', '0x1.3136f9f5bc471p-8'),
    (4, 'norm'): ('0x1.8da3470a61f68p+1', '0x1.e53f1496888ccp+2', '0x1.0d61b931e4c5fp+3'),
    (4, 'minmod'): ('0x1.ce88ce0437598p-1', '0x1.7786c05a3da10p-2', '0x1.52f45e5655d4bp-2'),
    (4, 'C'): ('0x1.6ed634f9ef1ecp-1', '0x1.9401195dced0fp-2', '0x1.165e327dc1752p-2'),
    (2, 'w'): ('0x1.2e31605795e57p+0', '0x1.ef88779f65b91p+0', '0x1.ef8ec13c48b4bp+0'),
    (2, 'c'): ('0x1.3798390c0ce6dp-5', '0x1.e0fe15306b140p-7', '0x1.ac5fce92d157ap-8'),
    (2, 'norm'): ('0x1.099b93b8b63dfp+1', '0x1.0a1fa938fcd91p+1', '0x1.0a2075b2d3b31p+1'),
    (2, 'minmod'): ('0x1.12d4453f57e05p+0', '0x1.118340091399fp+0', '0x1.11710d05f4370p+0'),
    (2, 'C'): ('0x1.ee3bb25275d6ap-5', '0x1.dbdc354024cd2p-5', '0x1.dad5b501e3bf0p-5'),
}


def _oracle_golden_frame(rank):
    f = new_frame(gen_psd(4, rank, 61))
    return f, gen_compatible(f, 62)


@pytest.mark.parametrize("rank", [4, 2])
def test_oracle_golden_values(rank):
    f, t = _oracle_golden_frame(rank)
    for kind in gauges.ORACLE_KINDS:
        got = tuple(float(oracle_gauge(f, t, kind, s, seed=63)).hex() for s in (1, 37, 300))
        assert got == _ORACLE_GOLDEN[(rank, kind)], kind


@pytest.mark.parametrize("rank", [4, 2])
def test_oracle_exploration_phase_is_bit_identical(rank, monkeypatch):
    monkeypatch.setattr(gauges, "_PHASES", gauges._PHASES[:1])
    f, t = _oracle_golden_frame(rank)
    for kind in gauges.ORACLE_KINDS:
        got = tuple(float(oracle_gauge(f, t, kind, s, seed=63)).hex() for s in (1, 37, 300))
        assert got == _ORACLE_BROAD_PHASE[(rank, kind)], kind


def _power_norm(f, t, r):
    ctx = _Ctx(f, {"T": t}, 0)
    return ctx.power_norm(ctx.k("T"), r)


def test_power_norm_examples():
    # ||(T#T)^r + (TT#)^r||_A in closed form: T = I gives 2 at every r,
    # T = diag(2, 3) gives 2 * 9^r, NILP has T#T = diag(0, 4) and
    # TT# = diag(4, 0), so 4^r, and [[0, 3], [2, 0]] has T#T = diag(4, 9)
    # and TT# = diag(9, 4), so 4^r + 9^r
    f = new_frame(np.eye(2))
    assert _power_norm(f, np.eye(2), 3.7) == pytest.approx(2.0, abs=1e-12)
    for r in (1, 1.5, 2, 3):
        assert _power_norm(f, np.diag([2.0, 3.0]), r) == pytest.approx(2.0 * 9.0 ** r,
                                                                       rel=1e-12)
        assert _power_norm(f, NILP, r) == pytest.approx(4.0 ** r, rel=1e-12)
        assert _power_norm(f, np.array([[0.0, 3.0], [2.0, 0.0]]), r) == pytest.approx(
            4.0 ** r + 9.0 ** r, rel=1e-12)
    # on a degenerate frame the term is taken on the compression:
    # A = diag(0, 1) and T = diag(3, 2) give K(T) = [2], so 2 * 4^r
    f_sing = new_frame(np.diag([0.0, 1.0]))
    for r in (1, 2, 3):
        assert _power_norm(f_sing, np.diag([3.0, 2.0]), r) == pytest.approx(
            2.0 * 4.0 ** r, abs=1e-10)


def test_power_norm_compresses_the_power():
    # one SVD of K(T) serves every exponent, bit for bit against a fresh
    # context, and S^r compresses to K(S)^r: T = diag(2, 3) commutes with
    # A = diag(4, 1), so T#T = TT# = S = diag(4, 9)
    f = new_frame(np.diag([4.0, 1.0]))
    t = np.diag([2.0, 3.0])
    ctx = _Ctx(f, {"T": t}, 0)
    for r in (1, 1.5, 2, 3):
        got = ctx.power_norm(ctx.k("T"), r)
        assert got.hex() == _power_norm(f, t, r).hex()
        want = spec_norm(2.0 * reduced(f, np.diag([4.0 ** r, 9.0 ** r])))
        assert abs(got - want) <= 1e-10 * (1.0 + want)
    # the same on strictly positive metrics, with S^r formed on H from the
    # eigendecomposition of the A-selfadjoint S
    rng = np.random.default_rng(34)
    for _ in range(10):
        f = random_frame(rng, n=3, rank=3)
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        s = sharp(f, t)
        for r in (1, 1.5, 2, 3):
            powers = []
            for m in (s @ t, t @ s):
                mu, p = np.linalg.eig(m)
                powers.append(reduced(f, (p * np.clip(mu.real, 0.0, None) ** r)
                                      @ np.linalg.inv(p)))
            want = spec_norm(powers[0] + powers[1])
            assert abs(_power_norm(f, t, r) - want) <= 1e-11 * want, r


def test_integer_power_matches_matrix_product():
    # at an integer r the term is the norm of plain matrix powers of the
    # compressions of T#T and TT#
    rng = np.random.default_rng(35)
    for _ in range(10):
        f = random_frame(rng)
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        s = sharp(f, t)
        k1, k2 = reduced(f, s @ t), reduced(f, t @ s)
        for r in (1, 2, 3):
            want = spec_norm(np.linalg.matrix_power(k1, r) + np.linalg.matrix_power(k2, r))
            assert abs(_power_norm(f, t, r) - want) <= 1e-12 * (1.0 + want), r


def test_equivalence_bounds():
    rng = np.random.default_rng(36)
    for _ in range(25):
        f = random_frame(rng)
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        w = a_numerical_radius(f, t)
        n = a_seminorm(f, t)
        assert 0.5 * n <= w + 1e-8 * (1 + n)
        assert w <= n + 1e-8 * (1 + n)


def test_a_selfadjoint_radius_equals_seminorm():
    rng = np.random.default_rng(37)
    for _ in range(15):
        f = random_frame(rng)
        s = re_a(f, gen_compatible(f, int(rng.integers(0, 2**63))))
        w, n = a_numerical_radius(f, s), a_seminorm(f, s)
        assert abs(w - n) <= 1e-8 * (1.0 + n)


def test_sup_theta_formula():
    rng = np.random.default_rng(38)
    for _ in range(10):
        f = random_frame(rng)
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        w = a_numerical_radius(f, t)
        grid_max = max(
            a_seminorm(f, re_a(f, np.exp(1j * th) * t))
            for th in np.linspace(0, 2 * np.pi, 64, endpoint=False)
        )
        assert grid_max <= w + 1e-8 * (1.0 + w)


def test_two_block_nilpotent_radius_identity():
    rng = np.random.default_rng(39)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n))
        t = np.zeros((n, n), dtype=complex)
        t[:p, p:] = rand_complex(rng, (p, n - p))
        f = random_frame(rng, n=n, rank=n)
        s = sharp(f, t)
        w = a_numerical_radius(f, t)
        rhs = 0.5 * np.sqrt(a_seminorm(f, t @ s + s @ t))
        assert abs(w - rhs) <= 1e-8


def test_seminorm_monotone_on_a_positive_order():
    rng = np.random.default_rng(40)
    for _ in range(15):
        f = random_frame(rng)
        x = gen_compatible(f, int(rng.integers(0, 2**63)))
        y = gen_compatible(f, int(rng.integers(0, 2**63)))
        s1 = sharp(f, x) @ x
        s2 = sharp(f, y) @ y
        assert a_seminorm(f, s1 + s2) >= a_seminorm(f, s1) - 1e-8
