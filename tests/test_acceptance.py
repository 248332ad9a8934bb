"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from anumrad import (
    FuzzConfig,
    a_crawford,
    a_crawford_C,
    a_min_modulus,
    a_numerical_radius,
    a_seminorm,
    admits_a_adjoint,
    b_sharp_blockwise_check,
    assemble,
    block_gauge,
    crawford,
    crawford_C,
    fuzz,
    gen_compatible,
    gen_psd,
    new_frame,
    numerical_radius,
    oracle_gauge,
    repro_paper,
    run_all,
    run_check,
    sharp,
    splitmix64,
)
from anumrad.catalog import REGISTRY
from anumrad.harness import violation_count
from anumrad.matrixcore import frob, spec_norm


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _mild_spd_frame(rng, n):
    """Strictly positive metric with spectrum in [1/4, 4]."""
    lam = np.exp(rng.uniform(np.log(0.25), np.log(4.0), n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = (q * lam) @ q.conj().T
    return new_frame(0.5 * (a + a.conj().T))


def _gauss(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _criterion_3_instances(count):
    """Criterion 3's first ``count`` instances (f, T), in its order: n
    uniform in 2..6, a mild SPD metric and a Gaussian T of unit norm."""
    rng = np.random.default_rng(314159)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        f = _mild_spd_frame(rng, n)
        t = _gauss(rng, (n, n))
        yield f, t / spec_norm(t)


def test_criterion_1_reference_reproduction():
    t0 = time.perf_counter()
    report = repro_paper()  # a quantity outside its window is a failed row
    elapsed = time.perf_counter() - t0

    by_id = {r["check_id"]: r for r in report.rows}
    ok = (
        all(r["pass"] for r in report.rows)
        and abs(by_id["repro_refined_rhs_39_16"]["lhs"] - 39.0 / 16.0) <= 1e-9
        and abs(by_id["repro_comparison_49_16"]["lhs"] - 49.0 / 16.0) <= 1e-9
        and abs(by_id["repro_w_equals_one"]["lhs"] - 1.0) <= 1e-9
        and abs(by_id["repro_half_sqrt_norm_one"]["lhs"] - 1.0) <= 1e-9
        and by_id["repro_t2_frobenius_one"]["lhs"] > 0.0
        and elapsed < 1.0
    )
    _report(1, ok, f"no-adjoint pair, 39/16 vs 49/16, w=1 with T^2 != 0 "
                   f"({elapsed:.2f}s)")


def test_criterion_2_soundness_fuzz():
    t0 = time.perf_counter()
    config = FuzzConfig(trials=500, master_seed=20240901, n_min=2, n_max=6,
                        rank_policy="mixed", tol=1e-8)
    report = fuzz(config)
    elapsed = time.perf_counter() - t0

    violations = violation_count(report)

    # exact skip accounting, reconstructed from the seed derivation
    gated = set()
    for cid, cd in REGISTRY.items():
        if cd.hypothesis in ("strict", "strict_nonzero_t"):
            gated.add(cid)
    nilpotent = {cid for cid, cd in REGISTRY.items()
                 if cd.hypothesis in ("nilpotent2", "nilpotent3")}
    accounting_ok = True
    rows_by_trial = {}
    for row in report.rows:
        rows_by_trial.setdefault(row["trial"], set())
        if row["skipped"]:
            rows_by_trial[row["trial"]].add(row["check_id"])
    for trial in range(config.trials):
        child = splitmix64(config.master_seed, trial)
        trng = np.random.default_rng(child)
        n = int(trng.integers(2, 7))
        rank = int(trng.integers(1, n + 1))
        expected = set(nilpotent) if rank == n else gated | nilpotent
        if rows_by_trial.get(trial, set()) != expected:
            accounting_ok = False
            break

    ok = (violations == 0 and accounting_ok
          and len(report.rows) == 500 * len(REGISTRY) and elapsed < 180.0)
    _report(2, ok, f"500 trials, {len(report.rows)} rows, {violations} violations, "
                   f"skip accounting exact ({elapsed:.1f}s)")


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    worst = {"w": 0.0, "norm": 0.0, "c": 0.0}
    overshoot = {"w": 0.0, "norm": 0.0, "c": 0.0}
    for i, (f, t) in enumerate(_criterion_3_instances(200)):
        sweep = {
            "w": a_numerical_radius(f, t),
            "norm": a_seminorm(f, t),
            "c": a_crawford(f, t),
        }
        for kind in ("w", "norm", "c"):
            est = oracle_gauge(f, t, kind, 2000, seed=splitmix64(777, i))
            worst[kind] = max(worst[kind], abs(sweep[kind] - est))
            if kind == "c":
                overshoot[kind] = max(overshoot[kind], sweep[kind] - est)
            else:
                overshoot[kind] = max(overshoot[kind], est - sweep[kind])
    elapsed = time.perf_counter() - t0

    ok = (all(v <= 2e-3 for v in worst.values())
          and all(v <= 1e-9 for v in overshoot.values())
          and elapsed < 120.0)
    _report(3, ok, "200 instances, worst gaps "
                   + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
                   + f", one-sided ok ({elapsed:.1f}s)")


def test_oracle_converges_on_first_criterion_3_instances():
    """A fast guard on criterion 3's first 10 instances, drawn as it draws
    them: every estimate within 1e-5 of the compression value and on its
    one-sided side."""
    for i, (f, t) in enumerate(_criterion_3_instances(10)):
        sweep = {"w": a_numerical_radius(f, t), "norm": a_seminorm(f, t), "c": a_crawford(f, t)}
        for kind, value in sweep.items():
            est = oracle_gauge(f, t, kind, 2000, seed=splitmix64(777, i))
            assert abs(value - est) <= 1e-5, (i, kind, value, est)
            over = value - est if kind == "c" else est - value
            assert over <= 1e-9, (i, kind, value, est)


def test_oracle_w_does_not_need_its_one_seed():
    """Criterion 3's instance 108 (n = 6) has a local maximum of |<Tx, x>_A|
    1.7e-2 below w. Chains truncated by value alone stopped there at 7 of
    the oracle seeds splitmix64(777, 108) + k, k = 0..31: k = 2, 14, 17,
    19, 20, 23 and 26. The estimate must reach w at those seeds and at
    criterion 3's own, k = 0."""
    *_, (f, t) = _criterion_3_instances(109)
    w = a_numerical_radius(f, t)
    for k in (0, 2, 14, 17, 19, 20, 23, 26):
        est = oracle_gauge(f, t, "w", 2000, seed=splitmix64(777, 108) + k)
        assert abs(w - est) <= 2e-3, (k, w, est)
        assert est <= w + 1e-9, (k, w, est)


def test_oracle_does_not_depend_on_the_metric_scale():
    """w_A, ||.||_A and c_A are the same for A and sA, s > 0, and so must
    their estimates be: criterion 3's gap and one-sided bounds hold on its
    first 4 instances with A scaled by 1e-6, 1e-3, 1e3 and 1e6. Steps sized
    against A as given, not at unit peak, missed w by up to 0.33 at 1e-6."""
    for i, (f, t) in enumerate(_criterion_3_instances(4)):
        for s in (1e-6, 1e-3, 1e3, 1e6):
            g = new_frame(s * f.a)
            sweep = {"w": a_numerical_radius(g, t), "norm": a_seminorm(g, t),
                     "c": a_crawford(g, t)}
            for kind, value in sweep.items():
                est = oracle_gauge(g, t, kind, 2000, seed=splitmix64(777, i))
                assert abs(value - est) <= 2e-3, (i, s, kind, value, est)
                over = value - est if kind == "c" else est - value
                assert over <= 1e-9, (i, s, kind, value, est)


# float.hex of oracle_gauge(f, t, kind, 2000, seed=splitmix64(777, i)) on
# criterion 3's first three instances, and of the minmod and C estimates at
# 500 samples (seed 63) on the rank-2 golden frame of test_gauges. Above 256
# samples `select` truncates the chains, so these pin the 2000 -> 256 -> 16
# path that criterion 3 and the oracle benchmark run, with its sector
# survivors for w. Re-captured when every phase moved to uniform proposal
# steps and the w truncations began to keep one chain per phase sector, and
# when each kind became a ratio of A-forms (the arithmetic moved, not the
# random stream).
# Captured with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64; another numpy or
# BLAS may round differently.
_ORACLE_TRUNCATION_GOLDEN = {
    0: ('0x1.854076d16a8b4p-1', '0x1.301f2a84cde4ap+0', '0x1.158da56285939p-22'),
    1: ('0x1.e14fd008597dep-1', '0x1.8f909f7c22786p+0', '0x1.a33a9df79b3dap-22'),
    2: ('0x1.86c0e9265484fp+0', '0x1.45f5d8b2ae247p+1', '0x1.964b11c8a8b3bp-24'),
    "golden_rank2": ('0x1.1170a05d75672p+0', '0x1.dab1aaa358edap-5'),
}


def test_oracle_truncation_path_is_bit_identical():
    for i, (f, t) in enumerate(_criterion_3_instances(3)):
        got = tuple(float(oracle_gauge(f, t, kind, 2000, seed=splitmix64(777, i))).hex()
                    for kind in ("w", "norm", "c"))
        assert got == _ORACLE_TRUNCATION_GOLDEN[i], i
    f = new_frame(gen_psd(4, 2, 61))
    t = gen_compatible(f, 62)
    got = tuple(float(oracle_gauge(f, t, kind, 500, seed=63)).hex() for kind in ("minmod", "C"))
    assert got == _ORACLE_TRUNCATION_GOLDEN["golden_rank2"]


def test_criterion_4_block_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(271828)
    worst = {p: 0.0 for p in ("diag", "antidiag", "antidiag_phase", "symmetric")}
    worst_sharp = 0.0
    for pattern in worst:
        for _ in range(200):
            n = int(rng.integers(2, 5))
            rank = int(rng.integers(1, n + 1)) if pattern == "diag" else n
            f = new_frame(gen_psd(n, rank, int(rng.integers(0, 2**63))))
            x = gen_compatible(f, int(rng.integers(0, 2**63)))
            y = gen_compatible(f, int(rng.integers(0, 2**63)))
            kwargs = {}
            if pattern == "antidiag_phase":
                kwargs["theta"] = float(rng.uniform(0.0, 2.0 * np.pi))
            wb, rhs = block_gauge(f, pattern, x, y, **kwargs)
            worst[pattern] = max(worst[pattern], abs(wb - rhs))
            blk = assemble(x, y, y, x)
            residual = b_sharp_blockwise_check(f, blk)
            scale = 1.0 + frob(blk)
            worst_sharp = max(worst_sharp, residual / scale)
    elapsed = time.perf_counter() - t0

    ok = all(v <= 1e-7 for v in worst.values()) and worst_sharp <= 1e-9
    _report(4, ok, "block identity residuals "
                   + ", ".join(f"{p}={v:.1e}" for p, v in worst.items())
                   + f", blockwise adjoint {worst_sharp:.1e} ({elapsed:.1f}s)")


def _nilpotent_square_zero_instance(rng, case):
    """T with T^2 = 0 on either a strictly positive or a degenerate frame."""
    if case % 2 == 0:
        n = int(rng.integers(2, 7))
        f = new_frame(gen_psd(n, n, int(rng.integers(0, 2**63))))
        p = int(rng.integers(1, n))
        t = np.zeros((n, n), dtype=complex)
        t[:p, p:] = _gauss(rng, (p, n - p))
        return f, t
    n = int(rng.integers(3, 7))
    rank = int(rng.integers(2, n))
    f = new_frame(gen_psd(n, rank, int(rng.integers(0, 2**63))))
    p = int(rng.integers(1, rank))
    inner = np.zeros((rank, rank), dtype=complex)
    inner[:p, p:] = _gauss(rng, (p, rank - p))
    basis = np.hstack([f.range_u, f.null_u])
    block = np.zeros((n, n), dtype=complex)
    block[:rank, :rank] = inner
    return f, basis @ block @ basis.conj().T


def test_criterion_5_nilpotent_equalities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(161803)

    worst_sq = 0.0
    for case in range(100):
        f, t = _nilpotent_square_zero_instance(rng, case)
        assert frob(t @ t) <= 1e-12 * (1.0 + frob(t) ** 2)
        assert admits_a_adjoint(f, t)
        s = sharp(f, t)
        w = a_numerical_radius(f, t)
        rhs = 0.5 * np.sqrt(a_seminorm(f, t @ s + s @ t))
        worst_sq = max(worst_sq, abs(w - rhs))

    worst_cube = 0.0
    for _ in range(100):
        f = new_frame(gen_psd(3, 3, int(rng.integers(0, 2**63))))
        t = np.triu(_gauss(rng, (3, 3)), k=1)
        s = sharp(f, t)
        w = a_numerical_radius(f, t)
        mixed = t @ t @ s + s @ t @ t + t @ s @ t
        rhs = 0.25 * a_numerical_radius(f, mixed)
        worst_cube = max(worst_cube, abs(w**3 - rhs))
    elapsed = time.perf_counter() - t0

    ok = worst_sq <= 1e-8 and worst_cube <= 1e-7
    _report(5, ok, f"100 T^2=0 cases worst {worst_sq:.1e} (tol 1e-8), "
                   f"100 T^3=0 cases worst {worst_cube:.1e} (tol 1e-7) "
                   f"({elapsed:.1f}s)")


def test_criterion_6_improvement_ordering():
    t0 = time.perf_counter()
    rng = np.random.default_rng(602214)
    ok = True
    detail = ""
    for i in range(100):
        n = int(rng.integers(2, 7))
        f = new_frame(gen_psd(n, n, int(rng.integers(0, 2**63))))
        ops = {name: gen_compatible(f, int(rng.integers(0, 2**63)))
               for name in "TXYPQ"}
        refined = run_check("thm_refined_fourth", f, ops)
        if refined.rhs > refined.metadata["comparison_rhs"] + 1e-9:
            ok, detail = False, f"refined bound not an improvement at case {i}"
            break
        for cid in ("cor_prod_improved_1", "cor_prod_improved_2"):
            res = run_check(cid, f, ops)
            if res.rhs > res.metadata["plain_rhs"] + 1e-9:
                ok, detail = False, f"{cid} not an improvement at case {i}"
                break
        if not ok:
            break
        lower = run_check("thm_wa_lower_max", f, ops)
        if lower.lhs < lower.metadata["nrm_T"] / 2.0 - 1e-9:
            ok, detail = False, f"combined lower bound dominance broken at case {i}"
            break
    elapsed = time.perf_counter() - t0
    _report(6, ok, detail or f"100 strictly-positive instances, refined <= plain "
                             f"comparison and improved product bounds hold ({elapsed:.1f}s)")


def test_criterion_7_specializations():
    t0 = time.perf_counter()
    rng = np.random.default_rng(137035)

    # (a) the r = 1 power bound term reproduces the plain operator sum:
    # power_term = ||T#T + TT#||_A = 2 * kittaneh_upper_rhs, and the r = 1
    # right-hand side never exceeds the two-sided bound's upper rhs.
    worst_match = 0.0
    ordering_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        f = new_frame(gen_psd(n, n, int(rng.integers(0, 2**63))))
        ops = {"T": gen_compatible(f, int(rng.integers(0, 2**63)))}
        results = {r.check_id: r for r in run_all(
            f, ops, checks=["thm_power_r_1", "cor_kittaneh_A_upper"])}
        power = results["thm_power_r_1"]
        kitt = results["cor_kittaneh_A_upper"]
        gap = abs(power.metadata["power_term"] - 2.0 * kitt.rhs)
        worst_match = max(worst_match, gap / (1.0 + 2.0 * kitt.rhs))
        if power.rhs > kitt.rhs + 1e-10 * (1.0 + kitt.rhs):
            ordering_ok = False

    # (b) A = I collapses every weighted gauge to its classical counterpart
    worst_classical = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        f = new_frame(np.eye(n))
        t = _gauss(rng, (n, n))
        pairs = (
            (a_numerical_radius(f, t), numerical_radius(t)),
            (a_seminorm(f, t), spec_norm(t)),
            (a_crawford(f, t), crawford(t)),
            (a_min_modulus(f, t), float(np.linalg.svd(t, compute_uv=False)[-1])),
            (a_crawford_C(f, t), crawford_C(t)),
        )
        for weighted, classical in pairs:
            worst_classical = max(worst_classical, abs(weighted - classical))
    elapsed = time.perf_counter() - t0

    ok = worst_match <= 1e-10 and ordering_ok and worst_classical <= 1e-9
    _report(7, ok, f"power r=1 term matches ||T#T+TT#||_A to {worst_match:.1e} "
                   f"(tol 1e-10), classical limit gap {worst_classical:.1e} "
                   f"(tol 1e-9) ({elapsed:.1f}s)")
