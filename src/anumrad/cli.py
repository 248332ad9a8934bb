# src/anumrad/cli.py

"""Command-line harness.

Subcommands:
  repro            re-derive the hard-coded reference quantities
  check            run (a subset of) the check registry on an instance file
  fuzz             seeded random sweep over the registry
  scan-sharpness   fuzz run ranking instances by smallest relative slack

Exit codes: 0 all pass/skip, 1 at least one violation, 2 usage or input
error, 3 reference mismatch.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import DEFAULT_TOL, missing_operands, registry_ids, run_all
from .errors import AnumradError, ReproMismatch
from .gauges import DEFAULT_SWEEP, SweepConfig
from .harness import (
    RANK_POLICIES,
    TOOL_VERSION,
    FuzzConfig,
    Report,
    _row,
    _summarize,
    exit_code_for,
    fuzz,
    load_instance,
    report_to_csv,
    report_to_json,
    repro_paper,
    scan_sharpness,
    validate_instance,
    violation_count,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_REPRO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anumrad",
        description="Gauges and executable inequality checks for operators "
                    "under a positive semidefinite metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("repro", help="re-derive the hard-coded reference quantities")

    p_check = sub.add_parser("check", help="run checks on an instance JSON file")
    p_check.add_argument("--instance", required=True, help="instance JSON path")
    p_check.add_argument("--check-id", default="all",
                         help="check id or family prefix (default: all)")
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_check.add_argument("--json", help="write the report as JSON to this path")

    def add_fuzz_args(p):
        p.add_argument("--trials", type=int, required=True)
        p.add_argument("--n-min", type=int, default=2)
        p.add_argument("--n-max", type=int, default=6)
        p.add_argument("--rank-policy", default="mixed", choices=RANK_POLICIES)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--grid", type=int, default=DEFAULT_SWEEP.grid_points,
                       help="theta grid points per gauge sweep (even, at least 16)")
        p.add_argument("--json", help="write the report as JSON to this path")
        p.add_argument("--csv", help="write the rows as CSV to this path")

    p_fuzz = sub.add_parser("fuzz", help="seeded random sweep over the registry")
    add_fuzz_args(p_fuzz)
    p_fuzz.add_argument("--check-id", action="append", default=None,
                        help="restrict to this id/family (repeatable)")

    p_scan = sub.add_parser("scan-sharpness",
                            help="rank instances by smallest relative slack")
    add_fuzz_args(p_scan)
    p_scan.add_argument("--check-id", action="append", default=None)
    p_scan.add_argument("--top", type=int, default=10)

    sub.add_parser("list-checks", help="print every registered check id")
    return parser


def _print_rows(rows) -> None:
    print(f"{'check_id':34s} {'lhs':>16s} {'rhs':>16s} {'slack':>12s} {'status':>8s}")
    for row in rows:
        if row["skipped"]:
            status = "skipped"
            lhs = rhs = slack = "-"
        else:
            status = "pass" if row["pass"] else "FAIL"
            lhs = f"{row['lhs']:.8g}"
            rhs = f"{row['rhs']:.8g}"
            slack = f"{row['slack']:.3g}"
        print(f"{row['check_id']:34s} {lhs:>16s} {rhs:>16s} {slack:>12s} {status:>8s}")


def _print_summary(report: Report) -> None:
    checks = report.summary["checks"]
    print(f"{'check_id':34s} {'eval':>6s} {'skip':>6s} {'viol':>6s} {'min_slack':>12s}")
    for cid in sorted(checks):
        entry = checks[cid]
        ms = entry["min_slack"]
        ms_s = "-" if ms is None else f"{ms:.3e}"
        print(f"{cid:34s} {entry['evaluated']:>6d} {entry['skipped']:>6d} "
              f"{entry['violations']:>6d} {ms_s:>12s}")
    print(f"trials={report.trials} rows={report.summary['rows']} "
          f"violations={report.summary['violations']}")


def _write_outputs(report: Report, json_path, csv_path=None) -> None:
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(report_to_csv(report))


def _cmd_repro(_args) -> int:
    try:
        report = repro_paper()
    except ReproMismatch as exc:
        report = getattr(exc, "report", None)
        if report is not None:
            _print_rows(report.rows)
        print(f"REPRO MISMATCH: {exc}", file=sys.stderr)
        return EXIT_REPRO
    _print_rows(report.rows)
    print("repro: all reference quantities reproduced")
    return EXIT_OK


def _cmd_check(args) -> int:
    inst = load_instance(args.instance)
    f = validate_instance(inst)
    checks = None if args.check_id == "all" else [args.check_id]
    missing = missing_operands(inst.operators, checks)
    if missing:
        raise ValueError(f"instance lacks operand(s) {', '.join(missing)} "
                         "needed by the selected checks")
    results = run_all(f, inst.operators, seed=inst.seed,
                      tol=args.tol, checks=checks)
    rows = [_row(0, r) for r in results]
    _print_rows(rows)
    violations = sum(1 for r in results if not r.passed and not r.skipped)
    if args.json:
        report = Report(TOOL_VERSION, inst.seed, 1, rows,
                        _summarize(rows, [inst.seed], [r.check_id for r in results]))
        _write_outputs(report, args.json)
    print(f"checks={len(results)} violations={violations}")
    return EXIT_VIOLATION if violations else EXIT_OK


def _fuzz_config(args, checks) -> FuzzConfig:
    return FuzzConfig(
        trials=args.trials,
        master_seed=args.seed,
        n_min=args.n_min,
        n_max=args.n_max,
        rank_policy=args.rank_policy,
        tol=args.tol,
        checks=checks,
        sweep=SweepConfig(grid_points=args.grid),
    )


def _cmd_fuzz(args) -> int:
    config = _fuzz_config(args, args.check_id)
    report = fuzz(config)
    _print_summary(report)
    _write_outputs(report, args.json, args.csv)
    return exit_code_for(report)


def _cmd_scan(args) -> int:
    config = _fuzz_config(args, args.check_id)
    report = scan_sharpness(config, top=args.top)
    checks = report.summary["checks"]
    for cid in sorted(checks):
        entries = checks[cid].get("top", [])
        print(f"{cid}:")
        for e in entries:
            print(f"  seed={e['seed']} rel_slack={e['rel_slack']:.6e} "
                  f"slack={e['slack']:.6e}")
    print(f"trials={report.trials} violations={violation_count(report)}")
    _write_outputs(report, args.json, args.csv)
    return exit_code_for(report)


def _cmd_list(_args) -> int:
    for cid in registry_ids():
        print(cid)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "repro": _cmd_repro,
        "check": _cmd_check,
        "fuzz": _cmd_fuzz,
        "scan-sharpness": _cmd_scan,
        "list-checks": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except ReproMismatch as exc:
        print(f"REPRO MISMATCH: {exc}", file=sys.stderr)
        return EXIT_REPRO
    except (AnumradError, OSError, ValueError, KeyError) as exc:
        # JSONDecodeError is a ValueError subclass, so malformed input files
        # land here as well.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
