import sys

import numpy as np
import pytest

import anumrad
from anumrad import adjoint, catalog
from anumrad import (
    a_numerical_radius,
    gen_compatible,
    gen_psd,
    is_a_positive,
    make_instance,
    new_frame,
    reduced,
    registry_ids,
    repro_paper,
    resolve_ids,
    run_all,
    run_check,
    sharp,
)
from anumrad.catalog import REGISTRY, _Ctx, _verdict, missing_operands, operands_needed
from anumrad.matrixcore import frob, spec_norm
from anumrad.errors import UnknownCheckId
from anumrad.seeding import label_seed

T39 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])


def random_operands(f, rng):
    return {name: gen_compatible(f, int(rng.integers(0, 2**63))) for name in "TXYPQ"}


def test_registry_shape():
    ids = registry_ids()
    assert len(ids) == 40
    assert len(set(ids)) == len(ids)
    for cid, cd in REGISTRY.items():
        assert cd.check_id == cid
        assert cd.mode in ("le", "eq")


def test_resolve_ids_prefix_families():
    assert resolve_ids(["cor_kittaneh_A"]) == [
        "cor_kittaneh_A_lower",
        "cor_kittaneh_A_upper",
    ]
    assert resolve_ids(["thm_power_r"]) == [
        "thm_power_r_1",
        "thm_power_r_1p5",
        "thm_power_r_2",
        "thm_power_r_3",
    ]
    # an exact id that is also a family prefix selects the whole family
    assert resolve_ids(["thm_cubic"]) == [
        "thm_cubic",
        "thm_cubic_cube_zero",
        "thm_cubic_sq_zero",
    ]
    # a prefix ends at a word boundary: a full id selects itself, not the
    # longer ids it is a string prefix of
    assert resolve_ids(["thm_block_lower_i"]) == ["thm_block_lower_i"]
    assert resolve_ids(["thm_block_lower_ii"]) == ["thm_block_lower_ii"]
    assert resolve_ids(["thm_power_r_1"]) == ["thm_power_r_1"]
    assert resolve_ids(None) == registry_ids()
    for pat in ("no_such_check", "thm_pro"):
        with pytest.raises(UnknownCheckId):
            resolve_ids([pat])


def test_run_all_takes_resolved_ids():
    f = new_frame(gen_psd(3, 3, 21))
    ops = random_operands(f, np.random.default_rng(22))
    checks = ["thm_cubic", "lem_pointwise", "equiv_half"]
    by_checks = run_all(f, ops, seed=5, checks=checks)
    by_ids = run_all(f, ops, seed=5, ids=resolve_ids(checks))
    assert [r.check_id for r in by_ids] == resolve_ids(checks)
    def fields(results):  # repr: skipped rows carry nan
        return [repr((r.check_id, r.lhs, r.rhs, r.passed, r.skipped)) for r in results]

    assert fields(by_ids) == fields(by_checks)
    with pytest.raises(ValueError):
        run_all(f, ops, checks=checks, ids=resolve_ids(checks))


def test_unknown_check_id():
    with pytest.raises(UnknownCheckId):
        run_check("no_such_check", new_frame(np.eye(2)), {"T": np.eye(2)})


def test_verdict_rules():
    assert _verdict(1.0, 2.0, "le", 1e-8, None) is True
    assert _verdict(2.0 + 1e-6, 2.0, "le", 1e-8, None) is False
    assert _verdict(2.0 + 1e-10, 2.0, "le", 1e-8, None) is True  # inside tolerance
    assert _verdict(1.0, 1.0 + 5e-9, "eq", 1e-8, None) is True
    assert _verdict(1.0, 1.1, "eq", 1e-8, None) is False
    assert _verdict(1.0, 2.0, "eq", 1e-8, None) is False  # eq is two-sided
    assert _verdict(1.0, 1.0 + 5e-8, "eq", 1e-8, 1e-7) is True  # absolute override


def test_kittaneh_derived_example():
    # A = diag(4,1), T = [[0,1],[0,0]]: TT# + T#T = 4I, w_A = 1
    f = new_frame(np.diag([4.0, 1.0]))
    ops = {"T": np.array([[0.0, 1.0], [0.0, 0.0]])}
    lower = run_check("cor_kittaneh_A_lower", f, ops)
    upper = run_check("cor_kittaneh_A_upper", f, ops)
    assert lower.lhs == pytest.approx(1.0, abs=1e-9)
    assert lower.rhs == pytest.approx(1.0, abs=1e-9)  # left equality
    assert lower.passed
    assert upper.lhs == pytest.approx(1.0, abs=1e-9)
    assert upper.rhs == pytest.approx(2.0, abs=1e-9)
    assert upper.passed


def test_refined_fourth_reference_metadata():
    f = new_frame(np.eye(3))
    res = run_check("thm_refined_fourth", f, {"T": T39})
    assert res.passed and res.hypothesis_met
    assert res.rhs == pytest.approx(39.0 / 16.0, abs=1e-9)
    assert res.metadata["w_T2"] == pytest.approx(1.0, abs=1e-9)
    assert res.metadata["w_T2P_PT2"] == pytest.approx(5.0, abs=1e-9)
    assert res.metadata["nrm_P"] == pytest.approx(5.0, abs=1e-9)
    assert res.metadata["comparison_rhs"] == pytest.approx(49.0 / 16.0, abs=1e-9)


def test_zero_operator_run_all():
    f = new_frame(np.eye(3))
    zero = np.zeros((3, 3))
    results = run_all(f, {name: zero for name in "TXYPQ"})
    assert len(results) == 40
    for res in results:
        if res.check_id.startswith("thm_wa_lower"):
            assert res.skipped  # seminorm of T vanishes
        else:
            assert res.passed


def test_singular_frame_skip_accounting():
    rng = np.random.default_rng(60)
    f = new_frame(gen_psd(4, 2, 3))
    results = run_all(f, random_operands(f, rng), seed=1)
    skipped = {r.check_id for r in results if r.skipped}
    expected = set()
    for cid, cd in REGISTRY.items():
        if cd.hypothesis in ("nilpotent2", "nilpotent3", "strict", "strict_nonzero_t"):
            expected.add(cid)
    assert skipped == expected
    assert not any((not r.passed and not r.skipped) for r in results)


def test_strict_frame_runs_everything_but_nilpotent_equalities():
    rng = np.random.default_rng(61)
    f = new_frame(gen_psd(4, 4, 5))
    results = run_all(f, random_operands(f, rng), seed=2)
    skipped = {r.check_id for r in results if r.skipped}
    assert skipped == {"thm_cubic_sq_zero", "thm_cubic_cube_zero"}
    assert not any((not r.passed and not r.skipped) for r in results)


def test_nilpotent_equality_checks():
    rng = np.random.default_rng(62)
    f = new_frame(gen_psd(4, 4, 8))
    t = np.zeros((4, 4), dtype=complex)
    t[:2, 2:] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    res = run_check("thm_cubic_sq_zero", f, {"T": t})
    assert res.hypothesis_met and res.passed
    assert abs(res.slack) <= 1e-8

    t3 = np.triu(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), k=1)
    f3 = new_frame(gen_psd(3, 3, 9))
    res3 = run_check("thm_cubic_cube_zero", f3, {"T": t3})
    assert res3.hypothesis_met and res3.passed
    assert abs(res3.slack) <= 1e-7


def _a_nilpotent_not_nilpotent(n, rank, r_block, seed):
    # T = basis [[R, 0], [S, N]] basis* in the basis [range | null] of A: the
    # zero block keeps the null space invariant, and A T^k = 0 exactly when
    # R^k = 0, whatever S and N are
    f = new_frame(gen_psd(n, rank, seed))
    basis = np.hstack([f.range_u, f.null_u])
    g = np.zeros((n, n), dtype=complex)
    g[:rank, :rank] = r_block
    g[rank:, :rank] = 1.0
    g[rank:, rank:] = 2.0 * np.eye(n - rank)
    return f, basis @ g @ basis.conj().T


@pytest.mark.parametrize("cid,order,n,rank,r_block", [
    ("thm_cubic_sq_zero", 2, 3, 2, np.array([[0.0, 1.0], [0.0, 0.0]])),
    ("thm_cubic_cube_zero", 3, 4, 3, np.eye(3, k=1)),
], ids=["sq", "cube"])
def test_nilpotency_hypothesis_reads_the_compression(cid, order, n, rank, r_block):
    # the equalities hold whenever A T^k = 0 (then K(T)^k = K(T^k) = 0), even
    # though T^k itself is far from zero; a test of T^k on H skipped these
    f, t = _a_nilpotent_not_nilpotent(n, rank, r_block, 19)
    tk = np.linalg.matrix_power(t, order)
    assert frob(tk) > 1.0
    assert frob(f.a @ tk) <= 1e-12
    res = run_check(cid, f, {"T": t})
    assert res.hypothesis_met and res.passed, res
    assert res.metadata["nilpotency_defect"] <= 1e-12


def test_power_check_dynamic_exponent():
    # only the registered exponents exist; a caller-supplied r is no check id
    f = new_frame(gen_psd(3, 3, 11))
    t = gen_compatible(f, 12)
    with pytest.raises(UnknownCheckId):
        run_check("thm_power_r", f, {"T": t})  # no r supplied
    with pytest.raises(TypeError):  # nor is there a free-form params dict
        run_check("thm_power_r_2", f, {"T": t}, params={"r": 2.5})


def test_power_non_integer_skipped_on_degenerate_frame():
    f = new_frame(gen_psd(4, 2, 13))
    t = gen_compatible(f, 14)
    res = run_check("thm_power_r_1p5", f, {"T": t})
    assert res.skipped
    res_int = run_check("thm_power_r_2", f, {"T": t})
    assert res_int.hypothesis_met and res_int.passed


def test_run_all_folds_errors_per_check():
    # an operator without an adjoint poisons evaluation but not the batch
    f = new_frame(np.diag([0.0, 1.0]))
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    results = run_all(f, {"T": bad}, checks=["equiv_half"])
    assert len(results) == 2
    for res in results:
        assert not res.passed and not res.skipped
        assert "NoAdjoint" in res.metadata["error"]


def test_run_check_propagates_errors():
    from anumrad.errors import NoAdjoint

    f = new_frame(np.diag([0.0, 1.0]))
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NoAdjoint):
        run_check("equiv_half_lower", f, {"T": bad})


def test_operand_defaults():
    # X, Y default to T; P, Q default to the identity
    f = new_frame(gen_psd(3, 3, 16))
    t = gen_compatible(f, 17)
    res = run_check("thm_prod_pm_plus", f, {"T": t})
    assert res.passed
    full = run_check(
        "thm_prod_pm_plus", f, {"T": t, "X": t, "Y": t, "P": np.eye(3), "Q": np.eye(3)}
    )
    assert res.lhs == pytest.approx(full.lhs, rel=1e-12)
    assert res.rhs == pytest.approx(full.rhs, rel=1e-12)


def _bits(res):
    return (float(res.lhs).hex(), float(res.rhs).hex(), res.passed, res.skipped)


def test_roles_name_every_operand_a_check_reads():
    # missing_operands and fuzz trust CheckDef.roles: a check given only its
    # roles must give the same result, bit for bit, as with all five operands,
    # so it cannot fall back to an operand it does not declare (X = T, P = I)
    for n, rank, seed in ((3, 3, 18), (4, 2, 20)):
        f = new_frame(gen_psd(n, rank, seed))
        ops = random_operands(f, np.random.default_rng(seed + 1))
        for cid, cd in REGISTRY.items():
            res = run_check(cid, f, {name: ops[name] for name in cd.roles})
            assert _bits(res) == _bits(run_check(cid, f, ops)), cid
            assert res.passed or res.skipped, cid
    assert missing_operands(ops) == []
    assert missing_operands({"X": ops["X"], "Y": ops["Y"]}) == ["T"]
    assert missing_operands({"X": ops["X"]}) == ["T", "Y"]
    assert missing_operands({"X": ops["X"]}, ["thm_prod_particular"]) == []


def test_operands_needed_is_the_role_union():
    assert operands_needed(resolve_ids(["equiv_half"])) == {"T"}
    assert operands_needed(resolve_ids(["thm_block_lower"])) == {"X", "Y"}
    assert operands_needed(resolve_ids(["thm_prod"])) == {"P", "Q", "X", "Y"}
    assert operands_needed(resolve_ids(["lem_pointwise", "cor_commutator"])) == {
        "T", "Q", "X", "Y"}
    assert operands_needed(registry_ids()) == set("TXYPQ")
    assert operands_needed([]) == set()


def _uncached_power_norm(f, t, r):
    # the power term on the full-space route the checks took before they ran
    # in compressed coordinates: A-adjoint, A-positivity check, compression,
    # eigh and clip of T#T and TT# per call
    s = sharp(f, t)
    parts = []
    for m in (s @ t, t @ s):
        assert is_a_positive(f, m)
        k = reduced(f, m)
        lam, v = np.linalg.eigh(0.5 * (k + k.conj().T))
        lam = np.clip(lam, 0.0, None)
        p = (v * lam ** float(r)) @ v.conj().T
        parts.append(0.5 * (p + p.conj().T))
    return spec_norm(parts[0] + parts[1])


@pytest.mark.parametrize("rank", [4, 2])
def test_cached_power_norm_matches_uncached(rank):
    # one decomposition per factor serves every exponent, bit for bit against
    # a fresh context, and K*K, KK* agree with the full-space T#T, TT#
    rng = np.random.default_rng(67 + rank)
    for _ in range(5):
        f = new_frame(gen_psd(4, rank, int(rng.integers(0, 2**63))))
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        ctx = _Ctx(f, {"T": t}, 0)
        exponents = (1.0, 1.5, 2.0, 3.0) if rank == 4 else (1.0, 2.0, 3.0)
        for r in exponents + exponents:
            got = ctx.power_norm(ctx.k("T"), r)
            fresh = _Ctx(f, {"T": t}, 0)
            assert got.hex() == fresh.power_norm(fresh.k("T"), r).hex(), r
            want = _uncached_power_norm(f, t, r)
            assert abs(got - want) <= 1e-12 * abs(want), r


def test_power_checks_decompose_each_factor_once(monkeypatch):
    calls = []
    psd_eig = catalog._psd_eig

    def counting(m):
        calls.append(m.tobytes())
        return psd_eig(m)

    monkeypatch.setattr(catalog, "_psd_eig", counting)
    f = new_frame(gen_psd(3, 3, 71))
    t = gen_compatible(f, 72)
    results = run_all(f, {"T": t}, checks=["thm_power_r"])
    assert len(results) == 4 and all(r.passed for r in results)
    assert len(calls) == 2 and len(set(calls)) == 2


def test_improvement_orderings():
    rng = np.random.default_rng(64)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        f = new_frame(gen_psd(n, n, int(rng.integers(0, 2**63))))
        ops = random_operands(f, rng)
        refined = run_check("thm_refined_fourth", f, ops)
        assert refined.rhs <= refined.metadata["comparison_rhs"] + 1e-9
        for cid in ("cor_prod_improved_1", "cor_prod_improved_2"):
            res = run_check(cid, f, ops)
            assert res.rhs <= res.metadata["plain_rhs"] + 1e-9
        lower = run_check("thm_wa_lower_max", f, ops)
        assert lower.lhs >= lower.metadata["nrm_T"] / 2.0 - 1e-9


def test_lower_fourth_dominates_kittaneh_lower():
    rng = np.random.default_rng(65)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        f = new_frame(gen_psd(n, n, int(rng.integers(0, 2**63))))
        ops = {"T": gen_compatible(f, int(rng.integers(0, 2**63)))}
        res = run_check("thm_lower_fourth", f, ops)
        nrm_p = res.metadata["nrm_P"]
        assert res.lhs >= nrm_p**2 / 16.0 - 1e-8
        nrm_t = run_check("equiv_half_upper", f, ops).rhs
        assert nrm_p**2 / 16.0 >= nrm_t**4 / 16.0 - 1e-8


def test_power_r1_term_matches_direct_sum_norm():
    # the functional-calculus power at r=1 reproduces the plain operator sum
    rng = np.random.default_rng(66)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        f = new_frame(gen_psd(n, n, int(rng.integers(0, 2**63))))
        ops = {"T": gen_compatible(f, int(rng.integers(0, 2**63)))}
        power = run_check("thm_power_r_1", f, ops)
        kittaneh = run_check("cor_kittaneh_A_upper", f, ops)
        # power_term = ||(T#T)^1 + (TT#)^1||_A computed through the
        # functional calculus; the direct route is 2 * kittaneh_rhs
        lhs = power.metadata["power_term"]
        rhs = 2.0 * kittaneh.rhs
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))
        assert power.rhs <= kittaneh.rhs + 1e-10 * (1.0 + kittaneh.rhs)


def test_sharpness_equalities():
    # left Kittaneh equality at the 2x2 nilpotent
    f = new_frame(np.eye(2))
    res = run_check("cor_kittaneh_A_lower", f, {"T": np.array([[0.0, 1.0], [0.0, 0.0]])})
    assert abs(res.slack) <= 1e-9
    # lower bound equality at T = I
    res = run_check("thm_wa_lower_1", f, {"T": np.eye(2)})
    assert abs(res.slack) <= 1e-9


def _ill_conditioned_metric(n, ratio, rng):
    # A = Q diag(ratio, ..., 1) Q* with a Haar-like unitary Q and the inner
    # eigenvalues log-uniform between the two ends
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    lam = np.concatenate(([ratio], ratio ** rng.uniform(0.0, 1.0, n - 2), [1.0]))
    return (q * lam) @ q.conj().T


@pytest.mark.parametrize("ratio", [1e-7, 1e-8, 1e-9])
def test_ill_conditioned_metrics_report_no_violation(ratio):
    # lambda_min / lambda_max far below gen_psd's clamp: T#T and TT# are
    # A-positive by construction, and the compressed route keeps every check
    # sound where forming them on H loses the ~cond(A) eps of A A^dagger
    rng = np.random.default_rng(int(round(-np.log10(ratio))))
    for i in range(20):
        f = new_frame(_ill_conditioned_metric(2 + i % 4, ratio, rng))
        assert f.strictly_positive
        results = run_all(f, random_operands(f, rng), seed=i)
        assert len(results) == 40
        bad = [(r.check_id, r.lhs, r.rhs, r.metadata.get("error")) for r in results
               if "error" in r.metadata or not (r.passed or r.skipped)]
        assert bad == [], (i, f.dim)


def _pointwise_on_h(f, ops, seed):
    # lem_pointwise as it sampled on H from the definitions before it moved
    # to compressed coordinates: A-adjoints, A and A^{1/2} on the full space
    x_op, t, y_op = ops["X"], ops["T"], ops["Y"]
    g1 = sharp(f, x_op) @ t @ y_op
    g2 = sharp(f, y_op) @ t @ x_op
    wt = a_numerical_radius(f, t)
    n, samples = f.dim, catalog._POINTWISE_SAMPLES
    rng = np.random.default_rng(label_seed(seed, "lem_pointwise"))
    xs = rng.standard_normal((n, samples)) + 1j * rng.standard_normal((n, samples))
    xs /= np.linalg.norm(xs, axis=0)
    quad1 = np.abs(np.einsum("ij,ij->j", xs.conj(), f.a @ g1 @ xs))
    quad2 = np.abs(np.einsum("ij,ij->j", xs.conj(), f.a @ g2 @ xs))
    sqrt_a = (f.range_u * np.sqrt(f.lam)) @ f.range_u.conj().T
    nx = np.linalg.norm(sqrt_a @ x_op @ xs, axis=0)
    ny = np.linalg.norm(sqrt_a @ y_op @ xs, axis=0)
    lhs_all = quad1 + quad2
    rhs_all = 2.0 * wt * nx * ny
    worst = int(np.argmax((lhs_all - rhs_all) / (1.0 + np.abs(rhs_all))))
    return float(lhs_all[worst]), float(rhs_all[worst])


def test_pointwise_matches_the_full_space_route():
    # the full-space route forms A^dagger X* A, so it carries an error of about
    # cond(A) eps on top of the compressed route's; on the worst instance here
    # (cond(A) = 1.8e5) a 40-digit evaluation puts the compressed lhs 1.6e-16
    # and the full-space lhs 2.3e-11 from the exact value
    rng = np.random.default_rng(73)
    for i in range(200):
        n = 2 + i % 5
        f = new_frame(gen_psd(n, n, int(rng.integers(0, 2**63))))
        ops = {name: gen_compatible(f, int(rng.integers(0, 2**63))) for name in "XTY"}
        res = run_check("lem_pointwise", f, ops, seed=i)
        lhs, rhs = _pointwise_on_h(f, ops, i)
        tol = 1e-11 + np.finfo(float).eps * np.linalg.cond(f.a)
        assert abs(res.lhs - lhs) <= tol * abs(lhs), (i, res.lhs, lhs)
        assert abs(res.rhs - rhs) <= tol * abs(rhs), (i, res.rhs, rhs)


def test_checks_and_repro_never_call_sharp(monkeypatch):
    # every A-quantity of a check or of repro comes from compressions, so an
    # A-adjoint formed on H is never needed
    def no_sharp(f, t):
        raise AssertionError("sharp called")

    orig = adjoint.sharp
    for name, module in list(sys.modules.items()):
        if name == "anumrad" or name.startswith("anumrad."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, attr, no_sharp)
    assert anumrad.sharp is no_sharp
    for n, rank, seed in ((4, 4, 31), (5, 2, 32), (3, 3, 33)):
        inst = make_instance(n, rank, seed)
        results = run_all(inst.frame, inst.operators, seed=seed)
        assert len(results) == 40
        assert [r.check_id for r in results if "error" in r.metadata] == []
        assert all(r.passed for r in results)
    report = repro_paper()
    assert [r["check_id"] for r in report.rows if not r["pass"]] == []
