import argparse
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from anumrad import (
    Instance,
    a_seminorm,
    check_instance,
    gen_compatible,
    instance_to_dict,
    make_instance,
    new_frame,
    registry_ids,
    save_instance,
)
from anumrad import catalog, harness
from anumrad.harness import RANK_POLICIES, FuzzConfig


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "anumrad", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_repro_command():
    proc = run_cli("repro")
    assert proc.returncode == 0, proc.stderr
    assert "reproduced" in proc.stdout
    assert "repro_refined_rhs_39_16" in proc.stdout


def test_list_checks():
    proc = run_cli("list-checks")
    assert proc.returncode == 0
    ids = proc.stdout.split()
    assert len(ids) == 40
    assert "cor_kittaneh_A_upper" in ids


def test_fuzz_command_with_outputs(tmp_path):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    args = ("fuzz", "--trials", "4", "--seed", "11", "--json", str(json_path),
            "--csv", str(csv_path))
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert "violations=0" in proc.stdout

    obj = json.loads(json_path.read_text())
    assert obj["trials"] == 4
    csv_lines = csv_path.read_text().strip().split("\n")
    assert csv_lines[0] == "trial,check_id,lhs,rhs,slack,pass,skipped"

    # identical invocation reproduces the files byte for byte
    proc2 = run_cli("fuzz", "--trials", "4", "--seed", "11",
                    "--json", str(tmp_path / "r2.json"), "--csv", str(tmp_path / "r2.csv"))
    assert proc2.returncode == 0
    assert (tmp_path / "r2.json").read_text() == json_path.read_text()
    assert (tmp_path / "r2.csv").read_text() == csv_path.read_text()


def test_fuzz_check_filter_cli():
    proc = run_cli("fuzz", "--trials", "3", "--seed", "2",
                   "--check-id", "equiv_half", "--rank-policy", "full")
    assert proc.returncode == 0, proc.stderr


def test_check_command(tmp_path):
    inst = make_instance(3, 3, seed=42)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    proc = run_cli("check", "--instance", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "violations=0" in proc.stdout

    proc = run_cli("check", "--instance", str(path), "--check-id", "cor_kittaneh_A")
    assert proc.returncode == 0
    assert "cor_kittaneh_A_lower" in proc.stdout
    assert "thm_cubic" not in proc.stdout


def test_check_command_input_errors(tmp_path):
    proc = run_cli("check", "--instance", str(tmp_path / "missing.json"))
    assert proc.returncode == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("check", "--instance", str(bad))
    assert proc.returncode == 2

    inst = make_instance(2, 2, seed=1)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    proc = run_cli("check", "--instance", str(path), "--check-id", "no_such_check")
    assert proc.returncode == 2

    # instance whose operator violates the adjoint requirement
    obj = json.loads(path.read_text())
    obj["A"] = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    obj["operators"] = {"T": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
    bad_inst = tmp_path / "bad_inst.json"
    bad_inst.write_text(json.dumps(obj))
    proc = run_cli("check", "--instance", str(bad_inst))
    assert proc.returncode == 2
    assert "adjoint" in proc.stderr.lower()


@pytest.mark.parametrize("malformed", [
    {"operators": None}, {"operators": [1, 2]}, "top-level list",
    {"dim": None}, {"seed": None}, {"A": {}},
    {"seed": 1.9}, {"seed": "7"}, {"seed": True}, {"seed": -3}, {"dim": 2.7}, {"dim": True},
    {"note": None}, {"A": [[[0.0, 0.0]] * 2] * 2}, {"dim": 3},
    *({"A": harness.mat_to_wire(c * np.array([[1.0, 1.0], [0.0, 1.0]]))}
      for c in (1e-100, 1e-12, 1e160)),
], ids=["operators-null", "operators-list", "top-level-list", "dim-null", "seed-null",
        "metric-object", "seed-float", "seed-string", "seed-bool", "seed-negative", "dim-float",
        "dim-bool", "note-null", "metric-zero", "dim-mismatch", "metric-skew-1e-100",
        "metric-skew-1e-12", "metric-skew-1e160"])
def test_check_command_rejects_malformed_instances(tmp_path, malformed):
    # malformed input is a usage error (exit 2), never a violation (exit 1);
    # dim and seed must be JSON integers and note a string, not coercible values,
    # dim must be A's size
    # (and the seed in [0, 2**64), where splitmix64 keeps seeds apart),
    # a rank-zero metric leaves every A-gauge undefined, and a non-Hermitian
    # metric is rejected at every scale (these three were symmetrized)
    obj = json.loads(json.dumps(instance_to_dict(make_instance(2, 2, seed=1))))
    obj = [obj] if malformed == "top-level list" else {**obj, **malformed}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    proc = run_cli("check", "--instance", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("key", ["dim", "A"])
def test_check_command_names_a_missing_field(tmp_path, key):
    obj = json.loads(json.dumps(instance_to_dict(make_instance(2, 2, seed=1))))
    del obj[key]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    proc = run_cli("check", "--instance", str(path))
    assert proc.returncode == 2
    assert f"instance field {key!r} is missing" in proc.stderr


def test_check_command_rejects_unknown_operand_names(tmp_path):
    # a misspelled operand must be a usage error, not 40 theorem violations
    path = tmp_path / "inst.json"
    save_instance(make_instance(3, 3, seed=42), path)
    obj = json.loads(path.read_text())
    obj["operators"] = {k.lower(): v for k, v in obj["operators"].items()}
    path.write_text(json.dumps(obj))
    proc = run_cli("check", "--instance", str(path))
    assert proc.returncode == 2
    assert "unknown operand" in proc.stderr


@pytest.mark.parametrize("supplied,missing", [("XYPQ", "T"), ("X", "T, Y")])
def test_check_command_rejects_missing_operands(tmp_path, supplied, missing):
    # a check that needs an operand nobody supplied is a usage error, not a
    # FAIL row; X = Y = T and P = Q = I are the only fallbacks, so a missing
    # Y falls back to the missing T and the error names T alone
    path = tmp_path / "inst.json"
    save_instance(make_instance(3, 3, seed=42), path)
    obj = json.loads(path.read_text())
    obj["operators"] = {k: v for k, v in obj["operators"].items() if k in supplied}
    path.write_text(json.dumps(obj))
    proc = run_cli("check", "--instance", str(path))
    assert proc.returncode == 2
    assert "operand 'T' not supplied" in proc.stderr
    assert "violations" not in proc.stdout
    if supplied == "X":  # checks that need only X, P and Q still run
        proc = run_cli("check", "--instance", str(path), "--check-id", "thm_prod_particular")
        assert proc.returncode == 0, proc.stderr
        assert "checks=2 violations=0" in proc.stdout


def test_usage_errors(tmp_path):
    assert run_cli().returncode == 2
    assert run_cli("fuzz").returncode == 2  # --trials required
    assert run_cli("fuzz", "--trials", "-3").returncode == 2
    for seed in ("-1", str(2**64)):  # master seeds are 64-bit, not taken mod 2**64
        proc = run_cli("fuzz", "--trials", "1", "--seed", seed)
        assert proc.returncode == 2 and "master_seed" in proc.stderr, seed
    proc = run_cli("fuzz", "--trials", "1", "--check-id", "equiv_half", "--top", "-2")
    assert proc.returncode == 2
    assert "top" in proc.stderr

    # a tolerance must be finite and nonnegative; 0 is a valid (exact) one
    path = tmp_path / "inst.json"
    save_instance(make_instance(3, 3, seed=42), path)
    fuzz_args = ("fuzz", "--trials", "2", "--seed", "3", "--check-id", "equiv_half")
    check_args = ("check", "--instance", str(path), "--check-id", "equiv_half")
    for args in (fuzz_args, check_args):
        for tol in ("-1", "nan", "inf"):
            proc = run_cli(*args, "--tol", tol)
            assert proc.returncode == 2, (args, tol, proc.stderr)
            assert proc.stderr.startswith("error:") and "tolerance" in proc.stderr
        proc = run_cli(*args, "--tol", "0")
        assert proc.returncode == 0, proc.stderr


def test_unknown_check_id_names_itself_and_the_list(tmp_path):
    # leaving --check-id out runs every check; "all" is no id for either command
    path = tmp_path / "inst.json"
    save_instance(make_instance(3, 3, seed=42), path)
    for args, cid in ((("fuzz", "--trials", "2"), "all"),
                      (("check", "--instance", str(path)), "all"),
                      (("check", "--instance", str(path)), "thm_pro")):
        proc = run_cli(*args, "--check-id", cid)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stderr == (
            f"error: unknown check id '{cid}'; `anumrad list-checks` prints the ids\n")


def test_check_id_repeats_and_runs_the_union(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(make_instance(3, 3, seed=42), path)
    proc = run_cli("check", "--instance", str(path), "--check-id", "equiv_half",
                   "--check-id", "thm_cubic")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()[1:-1]]
    assert rows == ["equiv_half_lower", "equiv_half_upper", "thm_cubic", "thm_cubic_cube_zero",
                    "thm_cubic_sq_zero"]
    assert proc.stdout.endswith("checks=5 violations=0\n")


def test_lapack_failure_in_the_frame_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # numpy's LinAlgError is a ValueError, so a metric whose
    # eigendecomposition fails exits 2 like any other bad input
    from anumrad import cli

    path = tmp_path / "inst.json"
    save_instance(make_instance(3, 3, seed=42), path)

    def fail(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert cli.main(["check", "--instance", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == "error: Eigenvalues did not converge\n" and out == ""


def test_a_bug_is_not_reported_as_a_usage_error(monkeypatch):
    # exit 2 means the input is at fault; a KeyError raised by a bug must
    # propagate with its traceback instead of printing "error:" and exiting 2
    from anumrad import cli

    def bug(*args, **kwargs):
        raise KeyError("a bug, not bad input")

    monkeypatch.setattr(cli, "fuzz", bug)
    with pytest.raises(KeyError, match="a bug"):
        cli.main(["fuzz", "--trials", "1"])


@pytest.mark.parametrize("explore", [False, True])
def test_fuzz_explore_flag(explore):
    # --explore was removed: a plain run still works, the old flag is a usage error
    args = ["fuzz", "--trials", "2", "--seed", "9", "--rank-policy", "degenerate-heavy"]
    if explore:
        args.append("--explore")
    proc = run_cli(*args)
    assert proc.returncode == (2 if explore else 0), proc.stderr


def test_parser_defaults_match_library():
    from anumrad import cli

    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    args = parser.parse_args(["fuzz", "--trials", "1"])
    assert cli._fuzz_config(args) == FuzzConfig(trials=1)
    assert args.top is None
    policy = next(a for a in sub.choices["fuzz"]._actions if a.dest == "rank_policy")
    assert tuple(policy.choices) == RANK_POLICIES


def test_fuzz_top_lists_the_sharpest_seeds():
    # fuzz --top K prints the summary table, then each check's K sharpest
    # trials; the former scan-sharpness command is gone
    args = ("--trials", "5", "--seed", "3", "--check-id", "cor_kittaneh_A", "--top", "3",
            "--rank-policy", "full")
    proc = run_cli("fuzz", *args)
    assert proc.returncode == 0, proc.stderr
    table, lists = proc.stdout.split("trials=5 rows=10 violations=0\n")
    assert "cor_kittaneh_A_lower" in table and "seed=" not in table
    assert lists.splitlines()[0] == "cor_kittaneh_A_lower:"
    assert sum(line.startswith("  seed=") for line in lists.splitlines()) == 6
    assert run_cli("scan-sharpness", *args).returncode == 2


def test_repro_mismatch_exit_code(monkeypatch, capsys):
    # exercised in-process: a quantity outside its window is a failed row of
    # the report, and a failed row maps to exit code 3 with the rows printed
    from anumrad import cli, harness

    monkeypatch.setattr(harness, "a_numerical_radius", lambda f, t: 1.5)
    report = harness.repro_paper()
    assert [r["check_id"] for r in report.rows if not r["pass"]] == ["repro_w_equals_one"]
    assert report.summary["violations"] == 1

    assert cli.main(["repro"]) == 3
    out, err = capsys.readouterr()
    assert err == "REPRO MISMATCH: repro_w_equals_one\n"
    assert "repro_refined_rhs_39_16" in out and "FAIL" in out
    assert "reproduced" not in out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("args,json_digest,stdout_digest", [
    ((5, 5, 7), "43e8b16db2580148a575687c2a37240bf972926dfde7e0a6d2c9aa3094687cca",
     "0aad7e8e2fefae0596e1f8354f6c3ccf4a72604459ca7c1450730a5fd9a8a8a7"),
    ((4, 2, 9), "911edb2e423412601cf3d8764c1082cb1d74bb7daf6890905a687f6ebd909e5d",
     "c2d05014b0dde8fe20eb539e2a97598727c392aade4401afe302df859e905fd1"),
], ids=["full-rank", "rank-2"])
def test_check_output_golden_digests(tmp_path, args, json_digest, stdout_digest):
    # the check report and table are pinned byte for byte (re-captured when
    # K(T) began to be formed from the frame's eigendecomposition, which moves
    # lhs and rhs by at most ~2.5e-13 relative; the rank-2 table did not move).
    # The rank-2 digests were re-captured when thm_power_r_1p5 began to be
    # evaluated on degenerate metrics: its row turns from skipped to passing
    # and no other row moves (200-trial fuzz gate, seed 11, every rank policy).
    # Both were re-captured when lem_pointwise began to sample the unit sphere
    # of the range and lem_sup_theta to draw its angles from the row seed:
    # only those two rows move (the rank-2 table reads lem_sup_theta alone).
    # The rank-2 pair was re-captured when 2x2 gauges began to be read in
    # closed form: lem_selfadj_eq's w moves by one ulp (slack 0 -> 2.2e-16)
    inst_path, json_path = tmp_path / "inst.json", tmp_path / "report.json"
    save_instance(make_instance(*args), inst_path)
    proc = subprocess.run(
        [sys.executable, "-m", "anumrad", "check", "--instance", str(inst_path),
         "--json", str(json_path)],
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert _sha256(json_path.read_bytes()) == json_digest
    assert _sha256(proc.stdout) == stdout_digest


def test_repro_output_golden_digest():
    proc = subprocess.run([sys.executable, "-m", "anumrad", "repro"],
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert _sha256(proc.stdout) == (
        "44d8c1790d5237d8c8ab75f4945ba0e13602e9fa8018f2adcb0fd366eb0a83d4")


def test_check_passes_on_an_ill_conditioned_metric(tmp_path):
    # a strictly positive metric with lambda_min / lambda_max = 1e-8: forming
    # T#T on H and testing it for A-positivity reported four nan FAIL rows here
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = (q * np.array([1e-8, 0.3, 1.0])) @ q.conj().T
    t = gen_compatible(new_frame(a), 5)
    path = tmp_path / "inst.json"
    save_instance(Instance(dim=3, a=a, operators={"T": t}, seed=0), path)
    proc = run_cli("check", "--instance", str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "violations=0" in proc.stdout


def test_check_passes_a_cube_zero_equality_at_scale(tmp_path):
    # A T^3 = 0 and w_A(T)^3 = 6.0e9: thm_cubic passed and thm_cubic_cube_zero
    # failed at the same lhs, rhs and slack (-1.9e-6), the second under an
    # absolute gap of 1e-7 that only the nilpotent rows had
    t = np.array([[0.0, 1e3, 500j], [0.0, 0.0, 2e3], [0.0, 0.0, 0.0]])
    path = tmp_path / "inst.json"
    save_instance(Instance(dim=3, a=np.diag([4.0, 2.0, 1.0]), operators={"T": t}, seed=0), path)
    proc = run_cli("check", "--instance", str(path), "--check-id", "thm_cubic")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "checks=3 violations=0" in proc.stdout


def test_check_rejects_an_operand_that_would_overflow(tmp_path):
    # w_A(T)^6 overflows once ||T||_A passes about 2.6e51: this instance was
    # reported as a violation (thm_power_r_3 nan nan FAIL)
    t = 1e52 * np.array([[1.0, 1.0], [0.0, 1.0]])
    path = tmp_path / "inst.json"
    save_instance(Instance(dim=2, a=np.eye(2), operators={"T": t}, seed=0), path)
    proc = run_cli("check", "--instance", str(path))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "'T'" in proc.stderr and "A-seminorm" in proc.stderr
    assert "FAIL" not in proc.stdout


def test_check_rejects_an_operand_without_adjoint_at_any_scale(tmp_path):
    # T at 1e155 and A at 1e160 overflowed the Douglas test's norms to inf,
    # and A at 1e-160 or 1e-300 made its tolerance absolute; each accepted
    # the operand, so check printed pass rows and exited 0
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    path = tmp_path / "inst.json"
    for t_scale, a_scale in ((1e155, 1.0), (1.0, 1e-300), (1.0, 1e-160), (1.0, 1e160)):
        a = a_scale * np.diag([0.0, 1.0])
        save_instance(Instance(dim=2, a=a, operators={"T": t_scale * swap}, seed=0), path)
        proc = run_cli("check", "--instance", str(path))
        assert proc.returncode == 2, (t_scale, a_scale, proc.stdout + proc.stderr)
        assert "'T' does not admit an A-adjoint" in proc.stderr
        assert "pass" not in proc.stdout


@pytest.mark.parametrize("n,rank,seed", [(3, 3, 5), (5, 2, 6)])
def test_check_passes_at_the_largest_accepted_seminorm(n, rank, seed):
    # every operand scaled to the largest accepted A-seminorm, less 1e-9
    # relative so that rounding cannot lift it past the limit
    inst = make_instance(n, rank, seed)
    f = inst.frame
    top = catalog._MAX_SEMINORM * (1.0 - 1e-9)
    inst.operators = {name: op * (top / a_seminorm(f, op))
                      for name, op in inst.operators.items()}
    report = check_instance(inst)
    assert [row["check_id"] for row in report.rows] == registry_ids()
    assert [row["check_id"] for row in report.rows if not row["pass"]] == []
