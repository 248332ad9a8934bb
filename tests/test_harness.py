import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from anumrad import (
    FuzzConfig,
    Instance,
    admits_a_adjoint,
    check_instance,
    fuzz,
    gen_compatible,
    gen_psd,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    make_instance,
    new_frame,
    registry_ids,
    report_to_csv,
    report_to_json,
    repro_paper,
    run_all,
    save_instance,
    splitmix64,
    validate_instance,
)
from anumrad import harness
from anumrad.catalog import REGISTRY, CheckResult
from anumrad.errors import BadRank, NoAdjoint
from anumrad.harness import Report, exit_code_for, violation_count
from anumrad.matrixcore import frob


def test_splitmix64_deterministic_and_spread():
    assert splitmix64(1, 2) == splitmix64(1, 2)
    outs = {splitmix64(0, i) for i in range(1000)}
    assert len(outs) == 1000
    assert all(0 <= v < 2**64 for v in outs)


def test_gen_psd_contract():
    a = gen_psd(5, 3, 123)
    b = gen_psd(5, 3, 123)
    assert a.tobytes() == b.tobytes()  # bit-for-bit determinism
    lam = np.linalg.eigvalsh(a)
    assert (lam > 1e-10 * lam[-1]).sum() == 3
    nz = lam[lam > 1e-10 * lam[-1]]
    assert nz.min() >= 1e-3 - 1e-12 and nz.max() <= 1e3 + 1e-9

    assert frob(gen_psd(4, 0, 9)) == 0.0
    with pytest.raises(BadRank):
        gen_psd(3, 4, 0)


def test_gen_psd_rank_sweep():
    for n in range(1, 7):
        for rank in range(n + 1):
            a = gen_psd(n, rank, 1000 * n + rank)
            lam = np.linalg.eigvalsh(a)
            top = lam[-1] if lam.size else 0.0
            assert (lam > 1e-10 * max(top, 1e-300)).sum() == rank


def test_gen_compatible_always_admits():
    rng = np.random.default_rng(70)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        rank = int(rng.integers(0, n + 1))
        f = new_frame(gen_psd(n, rank, int(rng.integers(0, 2**63))))
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        assert admits_a_adjoint(f, t)


def test_gen_compatible_null_invariance_structure():
    # for A = diag(0, 1) the generated T maps e1 into span(e1)
    f = new_frame(np.diag([0.0, 1.0]))
    t = gen_compatible(f, 5)
    assert abs(t[1, 0]) <= 1e-12
    # rank-0 metric: anything admits; generator just returns a dense matrix
    f0 = new_frame(np.zeros((3, 3)))
    t0 = gen_compatible(f0, 6)
    assert admits_a_adjoint(f0, t0)
    assert frob(t0) > 0.1


def test_instance_roundtrip(tmp_path):
    inst = make_instance(3, 2, seed=99)
    d = instance_to_dict(inst)
    back = instance_from_dict(d)
    assert back.dim == inst.dim and back.seed == inst.seed
    assert frob(back.a - inst.a) == 0.0
    for name in inst.operators:
        assert frob(back.operators[name] - inst.operators[name]) == 0.0

    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert frob(loaded.a - inst.a) == 0.0
    validate_instance(loaded)


def test_make_instance_draws_each_operand_from_its_own_stream():
    # an operand's matrix depends on its name only, not on which others are drawn
    full = make_instance(4, 2, 123)
    assert set(full.operators) == {"T", "X", "Y", "P", "Q"}
    for names in (("X",), ("Q", "T"), ("P", "Q", "X", "Y"), ()):
        part = make_instance(4, 2, 123, names=names)
        assert set(part.operators) == set(names)
        assert part.a.tobytes() == full.a.tobytes()
        for name in names:
            assert part.operators[name].tobytes() == full.operators[name].tobytes()
    with pytest.raises(ValueError):
        make_instance(4, 2, 123, names=("X", "Z"))
    # the frame rides along unserialized; a loaded instance has none
    assert full.frame.range_u.tobytes() == new_frame(full.a).range_u.tobytes()
    d = instance_to_dict(full)
    assert "frame" not in d and instance_from_dict(d).frame is None


def test_fuzz_builds_one_frame_and_draws_only_needed_operands(monkeypatch):
    frames, drawn = [], []
    real_new_frame, real_make_instance = harness.new_frame, harness.make_instance

    def counting_new_frame(a):
        frames.append(a)
        return real_new_frame(a)

    def recording_make_instance(*args, **kwargs):
        inst = real_make_instance(*args, **kwargs)
        drawn.append(frozenset(inst.operators))
        return inst

    monkeypatch.setattr(harness, "new_frame", counting_new_frame)
    monkeypatch.setattr(harness, "make_instance", recording_make_instance)
    for checks, names in ((["equiv_half"], {"T"}), (["thm_block_lower"], {"X", "Y"}),
                          (None, {"T", "X", "Y", "P", "Q"})):
        frames.clear()
        drawn.clear()
        fuzz(FuzzConfig(trials=6, master_seed=3, checks=checks))
        assert len(frames) == 6
        assert drawn == [names] * 6


def _row_bits(row):
    return tuple(float(v).hex() if isinstance(v, float) else v for v in row.values())


def test_filtered_fuzz_rows_equal_full_run_rows():
    # drawing only a check's operands must not change any of its rows
    full = fuzz(FuzzConfig(trials=20, master_seed=7))
    for cid in registry_ids():
        rows = fuzz(FuzzConfig(trials=20, master_seed=7, checks=[cid])).rows
        want = [_row_bits(r) for r in full.rows if r["check_id"] == cid]
        assert [_row_bits(r) for r in rows if r["check_id"] == cid] == want, cid


def test_validate_instance_rejects_bad_operator():
    inst = make_instance(2, 1, seed=3)
    inst.operators["T"] = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = new_frame(inst.a)
    if not admits_a_adjoint(f, inst.operators["T"]):
        with pytest.raises(NoAdjoint):
            validate_instance(inst)


@pytest.mark.parametrize("args", [(5, 5, 7), (4, 2, 9)])
def test_check_instance_is_a_one_trial_report_of_run_all(args):
    inst = make_instance(*args)
    report = check_instance(inst)
    assert report.trials == 1 and report.master_seed == inst.seed
    results = run_all(new_frame(inst.a), inst.operators, seed=inst.seed)
    want = [(0, r.check_id, r.lhs.hex(), r.rhs.hex(), r.slack.hex(), r.passed, r.skipped)
            for r in results]
    assert [_row_bits(row) for row in report.rows] == want
    assert report.summary["rows"] == len(results)
    assert sorted(report.summary["checks"]) == registry_ids()
    assert [r["check_id"] for r in check_instance(inst, ["thm_block_lower_i"]).rows] == [
        "thm_block_lower_i"]


def test_check_instance_rejects_missing_operands():
    inst = make_instance(3, 3, seed=42)
    lacking = Instance(dim=inst.dim, a=inst.a, operators={"X": inst.operators["X"]},
                       seed=inst.seed)
    with pytest.raises(ValueError, match=r"lacks operand\(s\) T, Y"):
        check_instance(lacking)
    # checks that read only X, P and Q still run
    assert len(check_instance(lacking, ["thm_prod_particular"]).rows) == 2


def test_fuzz_trial_error_rows(monkeypatch):
    # a trial that raises becomes one failed, unevaluated row per check
    real = harness.make_instance

    def flaky(n, rank, seed, names):
        if seed == splitmix64(3, 1):
            raise RuntimeError("boom")
        return real(n, rank, seed, names=names)

    monkeypatch.setattr(harness, "make_instance", flaky)
    report = fuzz(FuzzConfig(trials=2, master_seed=3, checks=["equiv_half"]))
    assert report.summary["trial_errors"] == [{"trial": 1, "error": "RuntimeError: boom"}]
    errored = [r for r in report.rows if r["trial"] == 1]
    assert [r["check_id"] for r in errored] == ["equiv_half_lower", "equiv_half_upper"]
    for r in errored:
        assert all(math.isnan(r[k]) for k in ("lhs", "rhs", "slack"))
        assert r["pass"] is False and r["skipped"] is False
    assert report.summary["violations"] == 2
    assert '"lhs": null' in report_to_json(report)


def test_fuzz_small_run_clean():
    report = fuzz(FuzzConfig(trials=20, master_seed=5))
    assert report.trials == 20
    assert len(report.rows) == 20 * len(registry_ids())
    assert violation_count(report) == 0
    assert exit_code_for(report) == 0


def test_fuzz_rows_match_trial_structure():
    config = FuzzConfig(trials=12, master_seed=31)
    report = fuzz(config)
    # reconstruct each trial's rank the same way the fuzzer derives it
    gated = set()
    for cid, cd in REGISTRY.items():
        if cd.hypothesis in ("strict", "strict_nonzero_t"):
            gated.add(cid)
    nilpotent = {cid for cid, cd in REGISTRY.items()
                 if cd.hypothesis in ("nilpotent2", "nilpotent3")}
    for trial in range(config.trials):
        child = splitmix64(config.master_seed, trial)
        trng = np.random.default_rng(child)
        n = int(trng.integers(config.n_min, config.n_max + 1))
        rank = int(trng.integers(1, n + 1))
        expected = set(nilpotent) if rank == n else gated | nilpotent
        skipped = {r["check_id"] for r in report.rows
                   if r["trial"] == trial and r["skipped"]}
        assert skipped == expected


def test_fuzz_deterministic_reports():
    config = FuzzConfig(trials=6, master_seed=77)
    a = report_to_json(fuzz(config))
    b = report_to_json(fuzz(config))
    assert a == b
    assert report_to_csv(fuzz(config)) == report_to_csv(fuzz(config))


def test_fuzz_check_filter():
    report = fuzz(FuzzConfig(trials=4, master_seed=2, rank_policy="full",
                             checks=["cor_kittaneh_A"]))
    assert len(report.rows) == 4 * 2
    assert {r["check_id"] for r in report.rows} == {
        "cor_kittaneh_A_lower", "cor_kittaneh_A_upper",
    }
    assert violation_count(report) == 0


def test_fuzz_rank_policies():
    for policy in ("full", "mixed", "degenerate-heavy"):
        report = fuzz(FuzzConfig(trials=5, master_seed=8, rank_policy=policy,
                                 checks=["equiv_half"]))
        assert violation_count(report) == 0
    with pytest.raises(ValueError):
        FuzzConfig(trials=1, rank_policy="bogus")
    with pytest.raises(ValueError):
        FuzzConfig(trials=-1)
    for tol in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            FuzzConfig(trials=1, tol=tol)


def _no_trial(*args, **kwargs):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("name,value", [
    ("trials", True), ("trials", 2.0), ("master_seed", 1.5), ("master_seed", "3"),
    ("n_min", 2.0), ("n_max", False), ("top", 2.5), ("top", True),
])
def test_fuzz_rejects_non_integer_counts(monkeypatch, name, value):
    # rejected before any trial runs: a bool trial count would run one trial,
    # a float seed would seed from its int() yet be recorded as the float, and
    # a float top would fail only after the whole sweep
    monkeypatch.setattr(harness, "make_instance", _no_trial)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        if name == "top":
            fuzz(FuzzConfig(trials=2), top=value)
        else:
            fuzz(FuzzConfig(**{"trials": 2, name: value}))


def test_fuzz_accepts_numpy_integer_counts():
    # numpy integers are counts too; the config keeps them as int, so the
    # report serializes as it does for the same Python ints
    config = FuzzConfig(trials=np.int64(3), master_seed=np.uint64(5), n_min=np.int32(2),
                        n_max=np.int64(3), checks=["equiv_half"])
    assert [type(getattr(config, k)) for k in ("trials", "master_seed", "n_min", "n_max")] == [
        int] * 4
    plain = FuzzConfig(trials=3, master_seed=5, n_min=2, n_max=3, checks=["equiv_half"])
    assert report_to_json(fuzz(config, top=np.int64(2))) == report_to_json(fuzz(plain, top=2))


def test_fuzz_zero_trials_empty_report():
    report = fuzz(FuzzConfig(trials=0, master_seed=1))
    assert report.rows == []
    assert violation_count(report) == 0


def test_report_serialization_shapes():
    report = fuzz(FuzzConfig(trials=3, master_seed=21))
    obj = json.loads(report_to_json(report))
    assert obj["tool_version"] == report.tool_version
    assert obj["trials"] == 3
    assert len(obj["rows"]) == len(report.rows)
    for row in obj["rows"]:
        assert set(row) == {"trial", "check_id", "lhs", "rhs", "slack", "pass", "skipped"}
        if row["skipped"]:
            assert row["lhs"] is None  # nan serializes as null

    csv_text = report_to_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "trial,check_id,lhs,rhs,slack,pass,skipped"
    assert len(lines) == 1 + len(report.rows)
    assert ",nan," in csv_text  # skipped rows carry nan placeholders


# sha256 of the reports of fuzz(FuzzConfig(trials=40, master_seed=11)),
# captured with numpy 2.4.6 and OpenBLAS 0.3.31. Reports round floats to 12
# significant digits, so these pin every row and summary value: a change
# that should not move any report must keep them, and one that does must
# edit them on purpose. The `full` digests were last re-captured when K(T)
# began to be formed as diag(lam)^{1/2} (U* T U) diag(lam)^{-1/2} from the
# frame's eigendecomposition instead of through A^{1/2} and its pseudoinverse
# on H; that moves lhs and rhs by at most ~2.5e-13 relative, with identical
# pass/skip flags (200-trial fuzz, seed 11, every rank policy). The `mixed`
# and `degenerate-heavy` digests were re-captured when the power term
# ||(T#T)^r + (TT#)^r||_A began to be read from one SVD of K(T) instead of
# an eigendecomposition of each factor: only the rhs of the thm_power_r_*
# rows moves, by at most 5.4e-15 relative, with identical pass/skip flags
# (same 200-trial runs). Both were re-captured again when thm_power_r_1p5
# began to be evaluated on degenerate metrics: only its rows on degenerate
# trials change, from skipped to evaluated and passing (145 of 200 mixed and
# 200 of 200 degenerate-heavy trials, smallest relative slack -3.8e-16 at
# rank-1 equality), and every other row is identical (same 200-trial runs).
_GOLDEN_REPORT_SHA256 = {
    "json": "1d38a168c57126d0e0f1658343ed58b9b4836a5adf633ea0c20960d531b63cd2",
    "csv": "e72f55c5a43f03c3e5af73b06bd38fc881ef62b2f5dc3741f7d92aa0119d0dc9",
}

# The same for the other rank policies and for a single-family sharpness
# scan (the only run here whose summary carries top-k lists), which reads
# only gauges of K(T) = reduced(f, T).
_GOLDEN_RUNS = {
    "degenerate-heavy": (
        lambda: fuzz(FuzzConfig(trials=40, master_seed=11, rank_policy="degenerate-heavy")),
        "e91049dbea7514505fb0e65ad924cb2005348d6dab4735939f06315ba9b22c76",
        "3aba7e8cd68fb98ad8f2335f49990fdbe89f143c20b5b15951b410691b582f39"),
    "full": (
        lambda: fuzz(FuzzConfig(trials=40, master_seed=11, rank_policy="full")),
        "92d7f9d2fc15b99cdba9b0a05743f9e2090513bc6cc12502476cb7ed530f05e4",
        "d52735644bcd0e103bc027d2bf505273eb878acb5b68369c6db7e0b1a05eecde"),
    "equiv_half-top10": (
        lambda: fuzz(FuzzConfig(trials=100, master_seed=11, checks=["equiv_half"]), top=10),
        "d0d5ddc456b3debd146038fe21a010d398e7a6f3410bc40f1126e6229cd3991d",
        "80ef2eefd82f6daa7ae928d77157e998f418479d8c79f8965aa44096996da8b7"),
}


def _report_digests(report):
    return {kind: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for kind, text in (("json", report_to_json(report)),
                               ("csv", report_to_csv(report)))}


def test_fuzz_report_golden_digests():
    report = fuzz(FuzzConfig(trials=40, master_seed=11))
    assert _report_digests(report) == _GOLDEN_REPORT_SHA256
    for name, (run, json_sha, csv_sha) in _GOLDEN_RUNS.items():
        assert _report_digests(run()) == {"json": json_sha, "csv": csv_sha}, name


# sha256 over float.hex(lhs), float.hex(rhs), pass and skipped of every row
# of fuzz(FuzzConfig(trials=40, master_seed=11)) under each rank policy,
# captured with numpy 2.4.6 and OpenBLAS 0.3.31. The report digests above
# see values rounded to 12 significant digits; these see every bit, so a
# change that claims to move no report must keep them as they are.
_ROW_BITS_SHA256 = {
    "mixed": "d0f4ccf10437471df5d993349d54affc899e3ee99f7d7ff0d9266de57f87d0ea",
    "full": "966dab444121a66224e8cc6a65e5a2c8c010dc7053d48910ab2a4362ace52db5",
    "degenerate-heavy": "6b2dfb27a709ec3880ebf757f93d8ce28882fa5d43963188ce8c1cf10231aec1",
}


def _row_bits_digest(report):
    h = hashlib.sha256()
    for r in report.rows:
        h.update(f"{float(r['lhs']).hex()} {float(r['rhs']).hex()} "
                 f"{r['pass']} {r['skipped']}\n".encode())
    return h.hexdigest()


def test_fuzz_row_bits_golden_digests():
    for policy, want in _ROW_BITS_SHA256.items():
        report = fuzz(FuzzConfig(trials=40, master_seed=11, rank_policy=policy))
        assert len(report.rows) == 40 * len(registry_ids())
        assert _row_bits_digest(report) == want, policy


def _json_reference(report):
    # the writer before rows were templated: json's own encoder over _clean
    obj = {
        "tool_version": report.tool_version,
        "master_seed": report.master_seed,
        "trials": report.trials,
        "rows": harness._clean(report.rows),
        "summary": harness._clean(report.summary),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _odd_floats_report():
    # rows built through _row whose values test every branch of the float
    # writing: signed zero, infinities, NaN, exponents at both ends, the
    # smallest subnormal, a sum that rounds at 12 digits, a numpy float, and
    # one value at each decimal exponent from -32 to 31
    odd = [-0.0, math.inf, -math.inf, math.nan, 1e16, 1e-5, 5e-324, 0.1 + 0.2,
           np.float64(2.0) / 3.0]
    sweep = np.random.default_rng(0).standard_normal(64) * 10.0 ** np.arange(-32, 32)
    pairs = [(lhs, rhs) for lhs in odd for rhs in odd] + list(zip(sweep, sweep[::-1]))
    results = [CheckResult(f"odd_{k}", lhs, rhs, lhs <= rhs, k % 3 > 0)
               for k, (lhs, rhs) in enumerate(pairs)]
    rows = [harness._row(k % 4, res) for k, res in enumerate(results)]
    return Report("0.1.0", 7, 4, rows, {"rows": len(rows), "violations": 0, "values": odd})


def test_report_to_json_matches_the_json_encoder(monkeypatch, tmp_path):
    reports = [fuzz(FuzzConfig(trials=40, master_seed=11, rank_policy=policy))
               for policy in ("full", "mixed", "degenerate-heavy")]
    reports.append(fuzz(FuzzConfig(trials=8, master_seed=11), top=3))
    reports.append(fuzz(FuzzConfig(trials=0, master_seed=11), top=3))
    path = tmp_path / "inst.json"
    save_instance(make_instance(4, 2, seed=13), path)
    reports.append(check_instance(load_instance(path)))
    reports.append(repro_paper())
    reports.append(_odd_floats_report())

    real = harness.make_instance

    def flaky(n, rank, seed, names):
        if seed == splitmix64(11, 2):
            raise RuntimeError("boom")
        return real(n, rank, seed, names=names)

    monkeypatch.setattr(harness, "make_instance", flaky)
    errored = fuzz(FuzzConfig(trials=4, master_seed=11))
    assert any(math.isnan(r["lhs"]) for r in errored.rows)
    reports.append(errored)

    for report in reports:
        assert report_to_json(report) == _json_reference(report)


def test_report_to_json_peak_memory_stays_near_its_text():
    # json's encoder falls back to pure Python at indent=2 and peaks at about
    # 8.3 times the text; writing rows by template stays near 2-3 times
    report = fuzz(FuzzConfig(trials=40, master_seed=11))
    tracemalloc.start()
    try:
        text = report_to_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_fuzz_rejects_master_seeds_outside_64_bits(monkeypatch):
    # splitmix64 reduces seeds mod 2**64, so seed -1 would run the trials of
    # seed 2**64 - 1 and record -1 in its report
    monkeypatch.setattr(harness, "make_instance", _no_trial)
    for seed in (-1, 2**64, 2**64 + 5, -(2**63)):
        with pytest.raises(ValueError, match="master_seed must lie in"):
            FuzzConfig(trials=1, master_seed=seed)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        assert FuzzConfig(trials=1, master_seed=seed).master_seed == int(seed)


def test_summary_counts_exact():
    report = fuzz(FuzzConfig(trials=5, master_seed=4))
    total_viol = 0
    for row in report.rows:
        if not row["pass"] and not row["skipped"]:
            total_viol += 1
    assert violation_count(report) == total_viol
    counted = sum(
        e["evaluated"] + e["skipped"] for e in report.summary["checks"].values()
    )
    assert counted == len(report.rows)


def test_exit_code_for_synthetic_violation():
    bad = Report(tool_version="x", master_seed=0, trials=1,
                 rows=[], summary={"violations": 2, "rows": 0, "checks": {}})
    assert exit_code_for(bad) == 1


def test_scan_sharpness_top_lists():
    # scan_sharpness is only an alias of fuzz, kept for one benchmark workload
    assert harness.scan_sharpness is fuzz
    report = fuzz(
        FuzzConfig(trials=12, master_seed=19, rank_policy="full",
                   checks=["cor_kittaneh_A", "thm_wa_lower"]),
        top=5,
    )
    checks = report.summary["checks"]
    for cid, entry in checks.items():
        tops = entry["top"]
        assert len(tops) <= 5
        rels = [t["rel_slack"] for t in tops]
        assert rels == sorted(rels)
    # empty budget still yields a structurally valid report
    empty = fuzz(FuzzConfig(trials=0, master_seed=1), top=3)
    assert empty.rows == []


def test_repro_paper_rows_all_pass():
    report = repro_paper()
    assert report.trials == 3
    assert all(r["pass"] for r in report.rows)
    ids = {r["check_id"] for r in report.rows}
    assert "repro_no_adjoint" in ids
    assert "repro_refined_rhs_39_16" in ids
    assert "repro_comparison_49_16" in ids


def test_repro_values_are_exact_fractions():
    report = repro_paper()
    by_id = {r["check_id"]: r for r in report.rows}
    assert by_id["repro_refined_rhs_39_16"]["lhs"] == pytest.approx(2.4375, abs=1e-9)
    assert by_id["repro_comparison_49_16"]["lhs"] == pytest.approx(3.0625, abs=1e-9)
    assert by_id["repro_w_equals_one"]["lhs"] == pytest.approx(1.0, abs=1e-9)
    assert math.isfinite(by_id["repro_t2_frobenius_one"]["lhs"])


def test_package_all_is_sorted_and_complete():
    import types

    import anumrad

    names = anumrad.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    public = {k for k, v in vars(anumrad).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert set(names) == public


def test_a_bare_string_check_filter_is_rejected():
    # a string iterates as its characters, so "equiv_half" failed as the
    # unknown id 'e'; a filter of one id is a one-element list
    inst = make_instance(3, 3, 1)
    calls = (
        lambda: fuzz(FuzzConfig(trials=1, checks="equiv_half")),
        lambda: run_all(inst.frame, inst.operators, checks="equiv_half"),
        lambda: check_instance(inst, "thm_cubic"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="not a bare string"):
            call()
