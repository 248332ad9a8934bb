import dataclasses
import hashlib
import json
import math
import sys

import numpy as np
import pytest

import anumrad
from anumrad import adjoint, catalog, gauges
from anumrad import (
    CheckResult,
    FuzzConfig,
    a_numerical_radius,
    direct_sum,
    fuzz,
    gen_compatible,
    gen_psd,
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
from anumrad.catalog import REGISTRY, _Ctx, _verdict, errored_result, operands_needed
from anumrad.matrixcore import frob, spec_norm, tile
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


def test_run_all_rejects_unknown_ids_before_any_check_runs(monkeypatch):
    f = new_frame(gen_psd(3, 3, 21))
    ops = random_operands(f, np.random.default_rng(22))
    ran = []
    monkeypatch.setattr(catalog, "_run_one", lambda cd, ctx, tol: ran.append(cd))
    for checks in (["nope"], ["equiv_half_lower", "nope"]):
        with pytest.raises(UnknownCheckId, match=repr(checks[-1])):
            run_all(f, ops, checks=checks)
    assert ran == []


@pytest.mark.parametrize("seed", [1.9, True, "7", None, -3, 2**64])
def test_run_check_and_run_all_reject_seeds_they_would_coerce(monkeypatch, seed):
    # int() would run 1.9, True and "7" as seeds 1, 1 and 7, and splitmix64
    # would run -3 as its residue mod 2**64, so lem_pointwise would sample
    # under another seed than the one given
    f = new_frame(gen_psd(3, 3, 21))
    ops = random_operands(f, np.random.default_rng(22))
    monkeypatch.setattr(catalog, "_run_one", lambda cd, ctx, tol: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match="seed must"):
        run_check("lem_pointwise", f, ops, seed=seed)
    with pytest.raises(ValueError, match="seed must"):
        run_all(f, ops, seed=seed)


def test_numpy_integer_seeds_give_the_same_row():
    f = new_frame(gen_psd(3, 3, 21))
    ops = random_operands(f, np.random.default_rng(22))
    for seed, same in ((5, np.int64(5)), (5, np.uint64(5)), (2**64 - 1, np.uint64(2**64 - 1))):
        row = run_check("lem_pointwise", f, ops, seed=seed)
        assert run_check("lem_pointwise", f, ops, seed=same) == row
        assert run_all(f, ops, seed=same, checks=["lem_pointwise"]) == [row]


def test_slack_is_read_from_lhs_and_rhs():
    assert CheckResult("x", 1.0, 3.0, True, True).slack == 2.0
    with pytest.raises(TypeError):
        CheckResult("x", 1.0, 3.0, True, True, slack=2.0)
    assert math.isnan(errored_result("x", "boom").slack)


def test_unknown_check_id():
    with pytest.raises(UnknownCheckId):
        run_check("no_such_check", new_frame(np.eye(2)), {"T": np.eye(2)})


def test_verdict_rules():
    assert _verdict(1.0, 2.0, "le", 1e-8) is True
    assert _verdict(2.0 + 1e-6, 2.0, "le", 1e-8) is False
    assert _verdict(2.0 + 1e-10, 2.0, "le", 1e-8) is True  # inside tolerance
    assert _verdict(1.0, 1.0 + 5e-9, "eq", 1e-8) is True
    assert _verdict(1.0, 1.1, "eq", 1e-8) is False
    assert _verdict(1.0, 2.0, "eq", 1e-8) is False  # eq is two-sided


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


# A = diag(4, 2, 1) and T with K(T)^2 = 0, resp. K(T)^3 = 0 but K(T)^2 != 0
_A421 = np.diag([4.0, 2.0, 1.0])
_SQ_ZERO = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2j], [0.0, 0.0, 0.0]])
_CUBE_ZERO = np.array([[0.0, 1.0, 0.5j], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("cid,t,exponents", [
    ("thm_cubic_sq_zero", _SQ_ZERO, range(-3, 13)),
    ("thm_cubic_cube_zero", _CUBE_ZERO, range(-2, 6)),
], ids=["sq", "cube"])
def test_nilpotent_equalities_hold_at_every_scale(cid, t, exponents):
    # rhs grows as s^1 and s^3 and the slack stays a few ulps of it; absolute
    # gaps of 1e-8 and 1e-7 failed these rows from s = 1e8 and s = 1e3
    f = new_frame(_A421)
    for e in exponents:
        res = run_check(cid, f, {"T": 10.0 ** e * t})
        assert res.hypothesis_met and res.passed, (e, res)


def test_cube_zero_verdict_sees_a_one_percent_error_at_small_scale(monkeypatch):
    # at s = 0.01 rhs is 6.0e-6: a 1% error (6e-8) hid inside an absolute
    # gap of 1e-7, while tol * (1 + |rhs|) is about 1e-8
    cid = "thm_cubic_cube_zero"
    cd = REGISTRY[cid]
    f = new_frame(_A421)
    ops = {"T": 0.01 * _CUBE_ZERO}

    def off_by_one_percent(ctx):
        lhs, rhs, meta = cd.evaluate(ctx)
        return lhs, 0.99 * rhs, meta

    monkeypatch.setitem(REGISTRY, cid, dataclasses.replace(cd, evaluate=off_by_one_percent))
    res = run_check(cid, f, ops)
    assert res.hypothesis_met and not res.passed, res
    lhs, rhs, _ = cd.evaluate(_Ctx(f, ops, 0))
    assert _verdict(lhs, 0.99 * rhs, cd.mode, catalog.DEFAULT_TOL) is False


def test_small_random_operands_are_not_nilpotent():
    # ||K^k||_F against 1e-12 * (1 + ||K||_F^k) was an absolute test below
    # unit scale: at 1e-6 every K^3 passed it, and the equalities were
    # judged on operands they say nothing about. At 1e-150, ||K||_F^3
    # underflows to zero, so the defect is taken on K / ||K||_F
    for seed in range(12):
        n = 2 + seed % 5
        inst = make_instance(n, n - seed % 2, seed, names=("T",))
        for scale in (1e-6, 1e-150):
            ops = {"T": scale * inst.operators["T"]}
            for cid in ("thm_cubic_sq_zero", "thm_cubic_cube_zero"):
                assert run_check(cid, inst.frame, ops).skipped, (seed, scale, cid)
    shift = 1e-150 * np.eye(3, k=1)
    assert catalog._nilpotency_defect(shift, 2) == pytest.approx(0.5)
    assert catalog._nilpotency_defect(shift, 3) == 0.0
    assert catalog._nilpotency_defect(np.zeros((3, 3)), 2) == 0.0


def test_power_check_dynamic_exponent():
    # only the registered exponents exist; a caller-supplied r is no check id
    f = new_frame(gen_psd(3, 3, 11))
    t = gen_compatible(f, 12)
    with pytest.raises(UnknownCheckId):
        run_check("thm_power_r", f, {"T": t})  # no r supplied
    with pytest.raises(TypeError):  # nor is there a free-form params dict
        run_check("thm_power_r_2", f, {"T": t}, params={"r": 2.5})


def test_power_non_integer_evaluated_on_degenerate_frame():
    # the fractional power is taken on K(T), so it is defined at every rank
    f = new_frame(gen_psd(4, 2, 13))
    t = gen_compatible(f, 14)
    res = run_check("thm_power_r_1p5", f, {"T": t})
    assert res.hypothesis_met and res.passed and res.slack >= 0.0
    res_int = run_check("thm_power_r_2", f, {"T": t})
    assert res_int.hypothesis_met and res_int.passed


def _diverging(monkeypatch, check_id):
    """Patch the registry row ``check_id`` to raise while it evaluates."""
    def diverge(ctx):
        raise np.linalg.LinAlgError("SVD did not converge")

    cd = REGISTRY[check_id]
    monkeypatch.setitem(REGISTRY, check_id, dataclasses.replace(cd, evaluate=diverge))


def test_run_all_folds_errors_per_check(monkeypatch):
    # an error raised while a check evaluates fails its row, not the batch
    f = new_frame(gen_psd(3, 3, 16))
    ops = {"T": gen_compatible(f, 17)}
    upper = run_check("equiv_half_upper", f, ops)
    _diverging(monkeypatch, "equiv_half_lower")
    lower, upper_again = run_all(f, ops, checks=["equiv_half"])
    assert not lower.passed and not lower.skipped
    assert lower.metadata == {"error": "LinAlgError: SVD did not converge"}
    assert upper_again == upper
    # an input fault is no evaluation error: it raises before any check runs
    from anumrad.errors import NoAdjoint

    with pytest.raises(NoAdjoint):
        run_all(new_frame(np.diag([0.0, 1.0])), {"T": np.array([[0.0, 1.0], [1.0, 0.0]])},
                checks=["equiv_half"])


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
    # admission and fuzz trust CheckDef.roles: a check given only its
    # roles must give the same result, bit for bit, as with all five operands,
    # so it cannot fall back to an operand it does not declare (X = T, P = I)
    for n, rank, seed in ((3, 3, 18), (4, 2, 20)):
        f = new_frame(gen_psd(n, rank, seed))
        ops = random_operands(f, np.random.default_rng(seed + 1))
        for cid, cd in REGISTRY.items():
            res = run_check(cid, f, {name: ops[name] for name in cd.roles})
            assert _bits(res) == _bits(run_check(cid, f, ops)), cid
            assert res.passed or res.skipped, cid
    assert len(run_all(f, ops)) == len(REGISTRY)
    # without T nothing stands in for it: X and Y never do, and Y falls back to T
    for supplied in ({"X": ops["X"], "Y": ops["Y"]}, {"X": ops["X"]}):
        with pytest.raises(ValueError, match="^operand 'T' not supplied$"):
            run_all(f, supplied)
    assert len(run_all(f, {"X": ops["X"]}, checks=["thm_prod_particular"])) == 2


def test_operands_needed_is_the_role_union():
    assert operands_needed(resolve_ids(["equiv_half"])) == {"T"}
    assert operands_needed(resolve_ids(["thm_block_lower"])) == {"X", "Y"}
    assert operands_needed(resolve_ids(["thm_prod"])) == {"P", "Q", "X", "Y"}
    assert operands_needed(resolve_ids(["lem_pointwise", "cor_commutator"])) == {
        "T", "Q", "X", "Y"}
    assert operands_needed(registry_ids()) == set("TXYPQ")
    assert operands_needed([]) == set()


def _is_a_positive(f, m, tol=1e-9):
    # A m Hermitian PSD, within tol relative
    am = f.a @ m
    if frob(am - am.conj().T) > tol * (1.0 + frob(am)):
        return False
    return np.linalg.eigvalsh(0.5 * (am + am.conj().T))[0] >= -tol * (1.0 + spec_norm(am))


def _uncached_power_norm(f, t, r):
    # the power term on the full-space route the checks took before they ran
    # in compressed coordinates: A-adjoint, A-positivity check, compression,
    # eigh and clip of T#T and TT# per call
    s = sharp(f, t)
    parts = []
    for m in (s @ t, t @ s):
        assert _is_a_positive(f, m)
        k = reduced(f, m)
        lam, v = np.linalg.eigh(0.5 * (k + k.conj().T))
        lam = np.clip(lam, 0.0, None)
        p = (v * lam ** float(r)) @ v.conj().T
        parts.append(0.5 * (p + p.conj().T))
    return spec_norm(parts[0] + parts[1])


def test_power_rows_hold_with_equality_at_a_witness():
    # A = diag(1, 4), T = diag(2, 1): w_A(T) = 2, w_A(T^2) = 4 and
    # T#T = TT# = diag(4, 1), so lhs = 4^r = 4^r/2 + 2 * 4^r/4. Moving either
    # constant (1/2 on w_A(T^2)^r, 1/4 on the power term) or the exponent of
    # the power term off the statement leaves a nonzero slack here
    f = new_frame(np.diag([1.0, 4.0]))
    results = run_all(f, {"T": np.diag([2.0, 1.0])}, checks=["thm_power_r"])
    assert [res.metadata["r"] for res in results] == [1.0, 1.5, 2.0, 3.0]
    for res in results:
        r = res.metadata["r"]
        assert res.hypothesis_met and res.passed, res.check_id
        assert res.lhs != 0.0 and res.lhs == pytest.approx(4.0 ** r, rel=1e-12)
        assert abs(res.slack) <= 1e-12 * (1.0 + abs(res.rhs)), res.check_id


@pytest.mark.parametrize("rank", [4, 2])
def test_cached_power_norm_matches_uncached(rank):
    # one SVD of K(T) serves every exponent, bit for bit against
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


def test_power_checks_decompose_k_once_per_instance(monkeypatch):
    # the four power rows share one SVD of K(T) per instance; the other
    # svd calls (singular values only) belong to the seminorm cache
    calls = []
    svd = np.linalg.svd

    def counting(m, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            calls.append(m.tobytes())
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for seed in (71, 73):
        calls.clear()
        f = new_frame(gen_psd(3, 3, seed))
        t = gen_compatible(f, seed + 1)
        results = run_all(f, {"T": t}, checks=["thm_power_r"])
        assert len(results) == 4 and all(r.passed for r in results)
        assert calls == [reduced(f, t).tobytes()]


def test_run_all_tiles_the_antidiagonal_once(monkeypatch):
    # the antidiagonal compression is kept on the context, so the block
    # checks of one instance share one tiling
    tile = catalog.tile
    calls = []

    def counting(*blocks):
        calls.append(blocks)
        return tile(*blocks)

    monkeypatch.setattr(catalog, "tile", counting)
    rng = np.random.default_rng(75)
    f = new_frame(gen_psd(3, 3, 75))
    results = run_all(f, random_operands(f, rng), seed=75)
    assert len(results) == 40 and f.strictly_positive
    assert len(calls) == 1


def test_wb_of_the_compressed_antidiagonal_matches_the_doubled_frame():
    # the checks read wB from [[0, K(X)], [K(Y), 0]], built from the
    # compressions; the doubled-frame route compresses the block operator
    # [[0, X], [Y, 0]] under diag(A, A) instead. n 1..6, every rank, 10 seeds
    for n in range(1, 7):
        for rank in range(1, n + 1):
            for seed in range(10):
                inst = make_instance(n, rank, 1000 * n + 100 * rank + seed, names=("X", "Y"))
                x, y = inst.operators["X"], inst.operators["Y"]
                ctx = _Ctx(inst.frame, inst.operators, 0)
                wb = ctx.wb(ctx.antidiag())
                zero = np.zeros_like(x)
                doubled = a_numerical_radius(direct_sum(inst.frame), tile(zero, x, y, zero))
                assert abs(wb - doubled) <= 1e-12 * (1.0 + doubled), (n, rank, seed)


_E11 = np.diag([1.0, 0.0])
_E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
_ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])

# Equality witnesses at A = I_2: operands (T, X, Y) with P = X and Q = Y
# (None leaves the operand out), and the checks that reach lhs = rhs != 0
# there. Every operand is scaled by 3 in the test, so that no gauge is 1 and
# the exponents of the nonzero terms are guarded as well. Every check has at
# least one witness. thm_wa_lower_1, thm_refined_fourth and thm_cubic have a
# second one at T = I, where T^2 and T^3 do not vanish. The last ten rows are
# second witnesses too: at them a flipped variant field of a family (a sign,
# use_x, use_minmod, w_of_x) misses equality, which the first witnesses hide
# (QT = 0, w(E11) = w(-E11), X = Y, and the two operand orders tie at
# (E12, E21)). E12 squares to zero, and I, E21 and the rotation make several
# terms vanish, so these witnesses leave unguarded: the 4 on Re_A(T^2)^2 and
# Re_A(XY)^2 (cor_fourth_lower, thm_fourth_antidiag_lower); the 1/4 on
# C_A(T^2)^2, its exponent and the 1/8 on c_A(T^2 P + P T^2)
# (thm_lower_fourth, whose C_A(T^2) vanishes at T = I as well); the exponent
# on m_A(T) (thm_wa_lower_max); and a decrease of the 4 or of an exponent in
# one branch of thm_fourth_antidiag_upper (its two branches tie). The
# sampling parameters of lem_sup_theta and lem_pointwise and metadata are
# not constants of a statement;
# test_power_rows_hold_with_equality_at_a_witness guards the constants and
# the exponent r of thm_power_r_*.
_WITNESSES = (
    ((_E12, _E12, _E12), (
        "equiv_half_lower", "lem_selfadj_eq", "lem_sup_theta", "thm_antidiag_lower",
        "thm_fourth_antidiag_lower", "cor_kittaneh_A_lower", "cor_fourth_lower",
        "cor_commutator_plus", "cor_commutator_minus", "thm_block_lower_i",
        "thm_block_lower_iii", "thm_cubic", "thm_cubic_sq_zero", "thm_cubic_cube_zero",
        "thm_lower_fourth", "thm_power_r_1", "thm_refined_fourth", "thm_wa_lower_1",
        "thm_wa_lower_max")),
    ((np.eye(2), _E12, _E12), (
        "equiv_half_upper", "cor_kittaneh_A_upper", "cor_fourth_upper", "thm_power_r_1p5",
        "thm_power_r_2", "thm_power_r_3", "thm_wa_lower_1", "thm_wa_lower_2",
        "thm_refined_fourth", "thm_cubic")),
    ((_E12, _E12, _E12.T), (
        "cor_prod_improved_1", "cor_prod_improved_2", "lem_pointwise",
        "lem_positivity_mono", "thm_antidiag_upper", "thm_fourth_antidiag_upper")),
    ((_E12, _E12, np.eye(2)), (
        "thm_crawford_prod_wc", "thm_prod_particular_plus", "thm_prod_particular_minus")),
    ((_E12, _E12.T, np.eye(2)), ("thm_crawford_prod_cw",)),
    ((None, np.eye(2), np.eye(2)), ("thm_block_lower_ii", "thm_prod_pm_plus")),
    ((None, _E12, _ROTATION), ("thm_block_lower_iv",)),
    ((None, np.eye(2), np.diag([1.0, -1.0])), ("thm_prod_pm_minus",)),
    ((np.eye(2), None, None), ("cor_commutator_plus",)),
    ((np.eye(2), None, 1j * np.eye(2)), ("cor_commutator_minus",)),
    ((None, np.eye(2), None), ("thm_prod_particular_plus",)),
    ((None, np.eye(2), 1j * np.eye(2)), ("thm_prod_particular_minus",)),
    ((None, np.eye(2), -np.eye(2)), ("thm_prod_pm_minus",)),
    ((None, 2.0 * _E12, _E12), ("thm_block_lower_i",)),
    ((None, _E12, 2.0 * _E12), ("thm_block_lower_iii",)),
    ((None, np.eye(2), _E11), ("thm_block_lower_ii",)),
    ((None, _E12, _ROTATION), ("cor_prod_improved_1",)),
    ((None, _ROTATION, _E12), ("cor_prod_improved_2",)),
)


def _witness_operands(t, x, y):
    return {name: 3.0 * m for name, m in (("T", t), ("X", x), ("Y", y), ("P", x), ("Q", y))
            if m is not None}


def test_every_check_holds_with_equality_at_its_witness():
    # random fuzz rarely lands on an equality case, so a constant that made a
    # bound looser would go unseen there; at a witness it moves the slack
    f = new_frame(np.eye(2))
    covered = []
    for operands, ids in _WITNESSES:
        ops = _witness_operands(*operands)
        for cid in ids:
            res = run_check(cid, f, ops)
            assert res.hypothesis_met and res.lhs != 0.0, cid
            assert abs(res.slack) <= 1e-12 * (1.0 + abs(res.rhs)), (cid, res.slack)
            covered.append(cid)
    assert set(covered) == set(registry_ids())


_FLIPS = {"sign": lambda v: -v, "use_x": lambda v: not v, "use_minmod": lambda v: not v,
          "c_first": lambda v: not v, "upper": lambda v: not v, "w_of_x": lambda v: not v}


def test_flipping_a_variant_field_misses_equality_at_a_witness():
    # a family registers one evaluator per row with its variant fields bound;
    # a row whose sign or flag were flipped would read another statement (the
    # other side of a two-sided bound, the other operand order), and some
    # witness of the row must tell the two apart
    f = new_frame(np.eye(2))
    probed = set()
    for cid, cd in REGISTRY.items():
        fields = getattr(cd.evaluate, "keywords", {})
        for name in fields.keys() & _FLIPS.keys():
            flipped = dict(fields, **{name: _FLIPS[name](fields[name])})
            worst = 0.0
            for operands, ids in _WITNESSES:
                if cid in ids:
                    lhs, rhs, _ = cd.evaluate.func(_Ctx(f, _witness_operands(*operands), 0),
                                                   **flipped)
                    worst = max(worst, abs(rhs - lhs) / (1.0 + abs(rhs)))
            assert worst > 1e-6, (cid, name)
            probed.add(cid)
    assert probed == set(resolve_ids(["thm_prod_pm", "thm_prod_particular", "cor_commutator",
                                      "thm_crawford_prod", "thm_block_lower", "equiv_half",
                                      "cor_kittaneh_A", "thm_antidiag", "cor_prod_improved"]))


def test_registry_table_is_pinned():
    # ids, modes, hypotheses, roles and descriptions of all 40 rows;
    # bench/workloads.py derives its expected skips from the hypotheses. Last
    # re-captured when the per-row absolute tolerance of the two nilpotent
    # equalities was deleted and its column left the table; every row is now
    # judged by the one gap tol * (1 + |rhs|), and no lhs or rhs moved
    rows = [[cd.check_id, cd.mode, cd.hypothesis, list(cd.roles), cd.description]
            for _, cd in sorted(REGISTRY.items())]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert len(rows) == 40
    assert digest == "de5ab43cc9d5a5b1c9465661a905c589fa188debcdab05e3fe10fde480c0bdff"


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
    # lem_pointwise from the definitions on H: the row's unit vectors y of
    # C^r, drawn from the same seed, mapped to the x = U diag(lam)^{-1/2} y
    # of unit A-norm, with A-adjoints, A and A^{1/2} on the full space
    x_op, t, y_op = ops["X"], ops["T"], ops["Y"]
    g1 = sharp(f, x_op) @ t @ y_op
    g2 = sharp(f, y_op) @ t @ x_op
    wt = a_numerical_radius(f, t)
    shape = (f.rank, catalog._POINTWISE_SAMPLES)
    rng = np.random.default_rng(label_seed(seed, "lem_pointwise"))
    ys = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ys /= np.linalg.norm(ys, axis=0)
    xs = f.range_u @ (ys / np.sqrt(f.lam)[:, None])
    quad1 = np.abs(np.einsum("ij,ij->j", xs.conj(), f.a @ g1 @ xs))
    quad2 = np.abs(np.einsum("ij,ij->j", xs.conj(), f.a @ g2 @ xs))
    sqrt_a = (f.range_u * np.sqrt(f.lam)) @ f.range_u.conj().T
    nx = np.linalg.norm(sqrt_a @ x_op @ xs, axis=0)
    ny = np.linalg.norm(sqrt_a @ y_op @ xs, axis=0)
    lhs_all = quad1 + quad2
    rhs_all = 2.0 * wt * nx * ny
    worst = int(np.argmax(lhs_all - rhs_all))
    return float(lhs_all[worst]), float(rhs_all[worst])


def test_pointwise_matches_the_full_space_route():
    # the full-space route forms A^dagger X* A, so it carries an error of about
    # cond(A) eps on top of the compressed route's (cond(A) reaches 1.8e5 here)
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


def test_pointwise_is_scale_free():
    # the row samples the unit sphere of the range and reports the sample
    # that maximizes lhs - rhs, so it reads the same under A -> alpha A, and
    # both sides scale by s^3 under (T, X, Y) -> s (T, X, Y); an exact power
    # of two s scales every product exactly
    rng = np.random.default_rng(151)
    for i in range(60):
        n = 2 + i % 4
        a = gen_psd(n, n, int(rng.integers(0, 2**63)))
        f = new_frame(a)
        ops = {name: gen_compatible(f, int(rng.integers(0, 2**63))) for name in "XTY"}
        base = run_check("lem_pointwise", f, ops, seed=i)
        assert base.hypothesis_met
        for alpha in (1e-2, 3.0, 1e2):
            res = run_check("lem_pointwise", new_frame(alpha * a), ops, seed=i)
            gap = 1e-11 * (1.0 + abs(base.lhs) + abs(base.rhs))
            assert abs(res.lhs - base.lhs) <= gap, (i, alpha, res.lhs, base.lhs)
            assert abs(res.rhs - base.rhs) <= gap, (i, alpha, res.rhs, base.rhs)
        for s in (8.0, 0.25):
            res = run_check("lem_pointwise", f, {k: s * v for k, v in ops.items()}, seed=i)
            assert (res.lhs, res.rhs) == (s ** 3 * base.lhs, s ** 3 * base.rhs), (i, s)


def test_sup_theta_probes_the_refinement(monkeypatch):
    # the row's angles are drawn off the engine's theta grid, so a sampled
    # Re(e^{i theta} T) can exceed a w that stopped at the grid maximum
    def unrefined(vals, fn, find_max, lipschitz, flat_tol):
        return float(vals.max() if find_max else vals.min())

    monkeypatch.setattr(gauges, "_refine", unrefined)
    report = fuzz(FuzzConfig(trials=300, master_seed=1, checks=["lem_sup_theta"]))
    assert report.summary["violations"] > 0


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


# The metadata keys each evaluated row carries: the terms criteria 6 and 7,
# repro and the tests read. Every other row carries none.
_ROW_KEYS = {
    "thm_refined_fourth": {"w_T2", "w_T2P_PT2", "nrm_P", "comparison_rhs"},
    "thm_lower_fourth": {"nrm_P"},
    "cor_prod_improved_1": {"plain_rhs"},
    "cor_prod_improved_2": {"plain_rhs"},
    "thm_wa_lower_max": {"nrm_T"},
    **{f"thm_power_r_{s}": {"r", "power_term"} for s in ("1", "1p5", "2", "3")},
    "thm_cubic_sq_zero": {"nilpotency_defect"},
    "thm_cubic_cube_zero": {"nilpotency_defect"},
}


def test_rows_carry_only_the_metadata_a_reader_uses(monkeypatch):
    # a skipped row's reason is its registry hypothesis, so it carries
    # nothing; an errored row carries its error text alone
    rng = np.random.default_rng(67)
    full = new_frame(gen_psd(4, 4, 11))
    degenerate = new_frame(gen_psd(4, 2, 12))
    evaluated = set()
    for f, ops in ((full, random_operands(full, rng)),
                   (degenerate, random_operands(degenerate, rng)),
                   (new_frame(_A421), {"T": _SQ_ZERO})):
        for res in run_all(f, ops, seed=3):
            if res.skipped:
                assert res.metadata == {}, res
            else:
                assert set(res.metadata) == _ROW_KEYS.get(res.check_id, set()), res
                evaluated.add(res.check_id)
    assert evaluated == set(REGISTRY)
    for cid in ("equiv_half_upper", "thm_refined_fourth"):
        _diverging(monkeypatch, cid)
    rows = run_all(full, random_operands(full, rng))
    errored = [res for res in rows if "error" in res.metadata]
    assert [res.check_id for res in errored] == ["equiv_half_upper", "thm_refined_fourth"]
    assert all(set(res.metadata) == {"error"} for res in errored)


_T0 = np.array([[1.0, 2.0, 0.5j], [0.0, -1.0, 1.0], [0.3, 0.0, 2.0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [_T0, _SQ_ZERO], ids=["generic", "sq_zero"])
def test_hypotheses_hold_at_every_scale(t):
    # an absolute ||K|| > 1e-12 (1 + ||K||_F) skipped thm_wa_lower_* at
    # s = 1e-13, an underflowed ||K||_F read the nilpotency defect as 0 and
    # ran both nilpotent equalities on K^2 != 0 at s = 1e-170, and a division
    # by a subnormal peak overflowed and errored every row at s = 1e-310
    f = new_frame(_A421)

    def skips(s):
        results = run_all(f, {"T": s * t})
        assert all(res.passed for res in results), s
        return {res.check_id: res.skipped for res in results}

    at_one = skips(1.0)
    for s in (1e-13, 1e-170, 1e-300, 1e-310, 1e-320):
        assert skips(s) == at_one, s
