# src/anumrad/harness.py

"""Instance generation, seeded fuzzing, reference-value reproduction and
report serialization.

Every report is assembled here: ``check_instance`` (one instance), ``fuzz``
(seeded random trials; with ``top`` it also ranks each check's sharpest
trials) and ``repro_paper`` (the reference quantities) build their rows with
``_row`` and their summary with ``_summarize``, so the CLI only prints,
writes and picks an exit code.

Determinism contract: every random quantity flows from a per-trial child seed
derived with ``seeding.splitmix64(master_seed, trial)``, so repeated runs
produce identical reports, and a trial's rows do not depend on the trials
before it. Within a trial each operand's stream is fixed by its name
(``splitmix64(seed, OPERAND_NAMES.index(name) + 1)``), so a trial that draws
only the operands its checks read gets the same matrices as a full draw.
Floats are serialized at 12 significant digits; reports are
byte-stable at that precision.

Wire format: complex scalars are two-element ``[re, im]`` arrays; matrices
are row-major nested lists of those pairs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence

import numpy as np

from . import catalog
from .adjoint import admits_a_adjoint, reduced
from .catalog import (OPERAND_NAMES, CheckResult, check_operand_names, errored_result,
                      missing_operands, operands_needed, resolve_ids, run_all, run_check)
from .errors import BadRank
from .frame import AFrame, new_frame
from .gauges import a_numerical_radius
from .matrixcore import as_cmatrix, frob, herm_part, spec_norm
from .seeding import check_integer, check_seed, splitmix64

TOOL_VERSION = "0.1.0"

RANK_POLICIES = ("full", "mixed", "degenerate-heavy")

_SPECTRUM_FLOOR = 1e-3
_SPECTRUM_CEIL = 1e3


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------

def gen_psd(n: int, rank: int, seed: int) -> np.ndarray:
    """Hermitian PSD matrix of exact numerical rank ``rank``.

    Built as G G* from an n x rank complex Gaussian factor, then rescaled so
    the nonzero spectrum is geometrically centered at 1 and clamped into
    [1e-3, 1e3]. Deterministic in ``seed``.
    """
    n, rank, seed = check_integer(n, "n", 1), check_integer(rank, "rank"), check_seed(seed)
    if not 0 <= rank <= n:
        raise BadRank(f"rank {rank} out of range for dimension {n}")
    if rank == 0:
        return np.zeros((n, n), dtype=np.complex128)
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))) / math.sqrt(2.0)
    a = g @ g.conj().T
    lam, v = np.linalg.eigh(herm_part(a))
    lam = np.clip(lam, 0.0, None)
    kept = lam[n - rank:]
    lo, hi = float(kept[0]), float(kept[-1])
    scale = 1.0 / math.sqrt(lo * hi) if lo > 0 else 1.0 / max(hi, 1.0)
    spectrum = np.zeros(n)
    spectrum[n - rank:] = np.clip(kept * scale, _SPECTRUM_FLOOR, _SPECTRUM_CEIL)
    return herm_part((v * spectrum) @ v.conj().T)


def gen_compatible(f: AFrame, seed: int) -> np.ndarray:
    """Random operator leaving the null space of A invariant.

    Drawn blockwise in the orthonormal basis [range | null] with the
    (range-row, null-column) block zeroed, so the Douglas condition holds by
    construction for every output.
    """
    rng = np.random.default_rng(check_seed(seed))
    n, r = f.dim, f.rank
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    g[:r, r:] = 0.0
    basis = np.hstack([f.range_u, f.null_u])
    return basis @ g @ basis.conj().T


# --------------------------------------------------------------------------
# Instances
# --------------------------------------------------------------------------

@dataclass
class Instance:
    """Serializable problem instance: metric, named operators, seed, note.

    ``frame`` is the metric's frame when the instance was generated here; it
    is neither serialized nor compared, and a loaded instance has none."""

    dim: int
    a: np.ndarray
    operators: Dict[str, np.ndarray]
    seed: int
    note: str = ""
    frame: Optional[AFrame] = field(default=None, repr=False, compare=False)


def make_instance(n: int, rank: int, seed: int,
                  names: Collection[str] = OPERAND_NAMES) -> Instance:
    """Random instance with the operands ``names``, each drawn from its own
    stream ``splitmix64(seed, OPERAND_NAMES.index(name) + 1)``."""
    check_operand_names(names)
    seed = check_seed(seed)  # gen_psd checks n and rank
    a = gen_psd(n, rank, splitmix64(seed, 0))
    f = new_frame(a)
    ops = {
        name: gen_compatible(f, splitmix64(seed, j + 1))
        for j, name in enumerate(OPERAND_NAMES) if name in names
    }
    return Instance(dim=n, a=a, operators=ops, seed=seed, note=f"n={n} rank={rank}",
                    frame=f)


def validate_instance(inst: Instance) -> AFrame:
    """The instance's frame, once its metric matches ``dim`` and the checks'
    own admission (``catalog._Ctx``: metric rank, seed, operand names and
    matrices, then shape, A-adjoint and A-seminorm in ``k``) accepts every
    operator."""
    f = new_frame(inst.a)
    if f.dim != inst.dim:
        raise ValueError(f"instance dim {inst.dim} does not match metric {f.dim}")
    ctx = catalog._Ctx(f, inst.operators, inst.seed)
    for name in inst.operators:
        ctx.k(name)
    return f


def mat_to_wire(m) -> list:
    m = as_cmatrix(m)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def mat_from_wire(obj) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except TypeError:  # e.g. a JSON object where a matrix belongs
        arr = None
    if arr is None or arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix wire format must be rows of [re, im] pairs")
    return as_cmatrix(arr[:, :, 0] + 1j * arr[:, :, 1])


def instance_to_dict(inst: Instance) -> dict:
    return {
        "dim": int(inst.dim),
        "A": mat_to_wire(inst.a),
        "operators": {k: mat_to_wire(v) for k, v in sorted(inst.operators.items())},
        "seed": int(inst.seed),
        "note": str(inst.note),
    }


def instance_from_dict(d: dict) -> Instance:
    """Parse the wire form; any malformed field raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"instance must be a JSON object, got {type(d).__name__}")
    ops = d.get("operators", {})
    if not isinstance(ops, dict):
        raise ValueError("instance field 'operators' must map names to matrices")
    for key in ("dim", "A"):
        if key not in d:
            raise ValueError(f"instance field {key!r} is missing")
    dim = check_integer(d["dim"], "instance field 'dim'", 1)
    a = mat_from_wire(d["A"])
    ops = {str(k): mat_from_wire(v) for k, v in ops.items()}
    note = d.get("note", "")
    if not isinstance(note, str):
        raise ValueError(f"instance field 'note' must be a string, got {note!r}")
    return Instance(dim=dim, a=a, operators=ops,
                    seed=check_seed(d.get("seed", 0), "instance field 'seed'"), note=note)


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass
class FuzzConfig:
    trials: int
    master_seed: int = 0
    n_min: int = 2
    n_max: int = 6
    rank_policy: str = "mixed"
    tol: float = catalog.DEFAULT_TOL
    checks: Optional[Sequence[str]] = None

    def __post_init__(self):
        self.trials = check_integer(self.trials, "trials", 0)
        self.master_seed = check_seed(self.master_seed, "master_seed")
        self.n_min = check_integer(self.n_min, "n_min", 1)
        self.n_max = check_integer(self.n_max, "n_max", self.n_min)
        if self.rank_policy not in RANK_POLICIES:
            raise ValueError(f"rank_policy must be one of {RANK_POLICIES}")
        catalog._check_tol(self.tol)


@dataclass
class Report:
    tool_version: str
    master_seed: int
    trials: int
    rows: List[dict]
    summary: dict


def _row(trial: int, res: CheckResult) -> dict:
    """The report row of ``res``; every report row is built here, and
    ``_ROW_JSON`` writes it."""
    return {
        "trial": trial,
        "check_id": res.check_id,
        "lhs": res.lhs,
        "rhs": res.rhs,
        "slack": res.slack,
        "pass": bool(res.passed),
        "skipped": bool(res.skipped),
    }


# A ``_row`` dict as json.dumps(_clean(row), indent=2, sort_keys=True) writes
# it inside the report's "rows" list: keys sorted, four spaces deeper than the
# list. A key added to ``_row`` is added here in its sorted place.
_ROW_JSON = """\
    {
      "check_id": %s,
      "lhs": %s,
      "pass": %s,
      "rhs": %s,
      "skipped": %s,
      "slack": %s,
      "trial": %d
    }"""


def _row_json(row: dict) -> str:
    return _ROW_JSON % (
        json.dumps(row["check_id"]), _json_float(row["lhs"]),
        "true" if row["pass"] else "false", _json_float(row["rhs"]),
        "true" if row["skipped"] else "false", _json_float(row["slack"]), row["trial"])


def _isnan(x) -> bool:
    return isinstance(x, float) and math.isnan(x)


def _summarize(rows: List[dict], trial_seeds: List[int], ids: Sequence[str],
               top: Optional[int] = None) -> dict:
    """Per-check counts plus, from one list of (rel_slack, slack, seed)
    candidates per check, the minimum slacks, the sharpest seed and (with
    ``top``) the ``top`` sharpest trials. The sort is stable, so the first
    trial wins a tie."""
    per = {cid: {"evaluated": 0, "skipped": 0, "violations": 0} for cid in ids}
    candidates: Dict[str, list] = {cid: [] for cid in ids}
    for row in rows:
        entry = per[row["check_id"]]
        if row["skipped"]:
            entry["skipped"] += 1
            continue
        entry["evaluated"] += 1
        entry["violations"] += not row["pass"]
        slack = row["slack"]
        if not _isnan(slack):
            rel = slack / (1.0 + abs(row["rhs"]))
            candidates[row["check_id"]].append((rel, slack, trial_seeds[row["trial"]]))
    for cid, entry in per.items():
        cand = sorted(candidates[cid], key=lambda c: c[0])
        entry["min_slack"] = min((slack for _, slack, _ in cand), default=None)
        best = cand[0] if cand else (None, None, None)
        entry["min_rel_slack"], entry["sharpest_seed"] = best[0], best[2]
        if top is not None:
            entry["top"] = [{"seed": seed, "rel_slack": rel, "slack": slack}
                            for rel, slack, seed in cand[:top]]
    violations = sum(e["violations"] for e in per.values())
    return {"rows": len(rows), "violations": violations, "checks": per}


def _rank_for_policy(rng: np.random.Generator, n: int, policy: str) -> int:
    if policy == "full":
        return n
    if policy == "mixed":
        return int(rng.integers(1, n + 1))
    return int(rng.integers(1, max(1, n // 2) + 1))  # degenerate-heavy


def fuzz(config: FuzzConfig, top: Optional[int] = None) -> Report:
    """Seeded random-instance sweep over the (filtered) check registry.

    Each trial draws only the operands the selected checks read (the union of
    their ``CheckDef.roles``) and builds its frame once, in ``make_instance``.
    With ``top``, each check's summary also lists its ``top`` sharpest trials
    by relative slack, so near-equality cases are easy to pull out.

    Exit contract: zero violations expected; any violation indicates an
    implementation bug, since every registered statement is a theorem on its
    hypothesis domain.
    """
    if top is not None:
        top = check_integer(top, "top", 0)
    ids = resolve_ids(config.checks)
    names = operands_needed(ids)
    rows: List[dict] = []
    trial_seeds: List[int] = []
    trial_errors: List[dict] = []
    for trial in range(config.trials):
        child = splitmix64(config.master_seed, trial)
        trial_seeds.append(child)
        trng = np.random.default_rng(child)
        n = int(trng.integers(config.n_min, config.n_max + 1))
        rank = _rank_for_policy(trng, n, config.rank_policy)
        try:
            inst = make_instance(n, rank, child, names=names)
            results = run_all(inst.frame, inst.operators, seed=child, tol=config.tol,
                              checks=config.checks)
        except Exception as exc:  # noqa: BLE001 - never abort the sweep
            error = f"{type(exc).__name__}: {exc}"
            results = [errored_result(cid, error) for cid in ids]
            trial_errors.append({"trial": trial, "error": error})
        rows.extend(_row(trial, res) for res in results)
    summary = _summarize(rows, trial_seeds, ids, top=top)
    if trial_errors:
        summary["trial_errors"] = trial_errors
    return Report(TOOL_VERSION, config.master_seed, config.trials, rows, summary)


# kept only for the sharpness-equiv workload in bench/workloads.py
scan_sharpness = fuzz


def check_instance(inst: Instance, checks: Optional[Sequence[str]] = None,
                   tol: float = catalog.DEFAULT_TOL) -> Report:
    """One-trial report of ``checks`` (ids or family prefixes, default all)
    on ``inst``, seeded by ``inst.seed``. An inadmissible instance, or one
    lacking an operand a selected check reads, raises instead
    (DimensionMismatch, NoAdjoint or ValueError), so bad input is never
    reported as a violation."""
    f = validate_instance(inst)
    missing = missing_operands(inst.operators, checks)
    if missing:
        raise ValueError(f"instance lacks operand(s) {', '.join(missing)} "
                         "needed by the selected checks")
    results = run_all(f, inst.operators, seed=inst.seed, tol=tol, checks=checks)
    rows = [_row(0, res) for res in results]
    return Report(TOOL_VERSION, inst.seed, 1, rows,
                  _summarize(rows, [inst.seed], [res.check_id for res in results]))


# --------------------------------------------------------------------------
# Reference-value reproduction
# --------------------------------------------------------------------------

def repro_paper() -> Report:
    """Re-derive the hard-coded reference quantities, one row each (lhs the
    derived value, rhs the reference); a value more than 1e-9 off its
    reference is a failed row."""
    rows: List[dict] = []

    def record(trial: int, name: str, value: float, reference: float) -> None:
        lhs, rhs = float(value), float(reference)
        passed = abs(rhs - lhs) <= 1e-9
        rows.append(_row(trial, CheckResult(name, lhs, rhs, passed, True)))

    # 1. The classic 2x2 pair where the adjoint does not exist.
    f0 = new_frame(np.array([[0.0, 0.0], [0.0, 1.0]]))
    t0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    record(0, "repro_no_adjoint", 1.0 if admits_a_adjoint(f0, t0) else 0.0, 0.0)

    # 2. Refined fourth-power bound: rhs = 39/16, plain comparison = 49/16.
    f1 = new_frame(np.eye(3))
    t1 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    res = run_check("thm_refined_fourth", f1, {"T": t1})
    record(1, "repro_refined_rhs_39_16", res.rhs, 39.0 / 16.0)
    record(1, "repro_comparison_49_16", res.metadata["comparison_rhs"], 49.0 / 16.0)

    # 3. Equality without nilpotency: w_A(T) = sqrt(||TT#+T#T||_A)/2 = 1
    #    while T^2 is nonzero (its Frobenius norm is 1).
    f2 = new_frame(np.eye(3))
    t2 = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    record(2, "repro_w_equals_one", a_numerical_radius(f2, t2), 1.0)
    k = reduced(f2, t2)
    record(2, "repro_half_sqrt_norm_one",
           0.5 * math.sqrt(spec_norm(k.conj().T @ k + k @ k.conj().T)), 1.0)
    record(2, "repro_t2_frobenius_one", frob(t2 @ t2), 1.0)

    return Report(TOOL_VERSION, 0, 3, rows,
                  _summarize(rows, [0, 1, 2], [r["check_id"] for r in rows]))


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def _clean(x):
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            return None
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _clean(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_clean(v) for v in x]
    return x


def _json_float(x) -> str:
    """``json.dumps(_clean(x))`` for a float: rounded as ``_clean`` rounds it
    and written by ``float.__repr__``, NaN and inf as null."""
    if not isinstance(x, float):
        return json.dumps(_clean(x))
    if not math.isfinite(x):
        return "null"
    s = f"{x:.12g}"
    # A fixed-notation string with a fraction is already the repr of the float
    # it parses to: decimals of at most 15 digits parse to distinct doubles, so
    # repr's shortest digits are these, and at exponents -4..11 both write
    # them in fixed notation without trailing zeros.
    return s if "." in s and "e" not in s else repr(float(s))


def _json_block(x) -> str:
    """``x`` as json writes it one level inside the report object."""
    return json.dumps(_clean(x), indent=2, sort_keys=True).replace("\n", "\n  ")


_REPORT_JSON = """\
{
  "master_seed": %s,
  "rows": %s,
  "summary": %s,
  "tool_version": %s,
  "trials": %s
}
"""


def report_to_json(report: Report) -> str:
    """The report as indented JSON, keys sorted, floats rounded to 12
    significant digits and NaN or inf written as null.

    Byte contract: for every report whose rows ``_row`` built, the text
    equals ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` where ``obj``
    holds the five ``Report`` fields, rows and summary passed through
    ``_clean``. Rows are written by the ``_ROW_JSON`` template, because json
    falls back to its pure-Python encoder at ``indent=2``; the other fields
    still go through json."""
    rows = ("[\n" + ",\n".join(map(_row_json, report.rows)) + "\n  ]"
            if report.rows else "[]")
    return _REPORT_JSON % (_json_block(report.master_seed), rows, _json_block(report.summary),
                           _json_block(report.tool_version), _json_block(report.trials))


def _csv_num(x: float) -> str:
    if _isnan(x):
        return "nan"
    return f"{x:.12g}"


def report_to_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "check_id", "lhs", "rhs", "slack", "pass", "skipped"])
    for row in report.rows:
        writer.writerow([
            row["trial"],
            row["check_id"],
            _csv_num(row["lhs"]),
            _csv_num(row["rhs"]),
            _csv_num(row["slack"]),
            str(bool(row["pass"])).lower(),
            str(bool(row["skipped"])).lower(),
        ])
    return buf.getvalue()


def violation_count(report: Report) -> int:
    return int(report.summary.get("violations", 0))


def exit_code_for(report: Report) -> int:
    return 1 if violation_count(report) else 0
