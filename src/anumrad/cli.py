# src/anumrad/cli.py

"""Command-line harness.

Subcommands:
  repro            re-derive the hard-coded reference quantities
  check            run (a subset of) the check registry on an instance file
  fuzz             seeded random sweep over the registry; with --top K it
                   also lists each check's K sharpest trials

Exit codes: 0 all pass/skip, 1 at least one violation, 2 usage or input
error, 3 reference mismatch.

Every report comes from ``harness`` (``check_instance``, ``fuzz``,
``repro_paper``); this module only prints it, writes it out and maps it to
an exit code. The fuzz options take their defaults from ``FuzzConfig``.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import DEFAULT_TOL, registry_ids
from .errors import AnumradError
from .harness import (
    RANK_POLICIES,
    FuzzConfig,
    check_instance,
    exit_code_for,
    fuzz,
    load_instance,
    report_to_csv,
    report_to_json,
    repro_paper,
    violation_count,
)

EXIT_OK = 0
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
    p_check.add_argument("--check-id", action="append", default=None,
                         help="restrict to this id/family (repeatable; default: all)")
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_check.add_argument("--json", help="write the report as JSON to this path")

    p_fuzz = sub.add_parser("fuzz", help="seeded random sweep over the registry")
    p_fuzz.add_argument("--trials", type=int, required=True)
    p_fuzz.add_argument("--n-min", type=int, default=FuzzConfig.n_min)
    p_fuzz.add_argument("--n-max", type=int, default=FuzzConfig.n_max)
    p_fuzz.add_argument("--rank-policy", default=FuzzConfig.rank_policy,
                        choices=RANK_POLICIES)
    p_fuzz.add_argument("--seed", type=int, default=FuzzConfig.master_seed)
    p_fuzz.add_argument("--tol", type=float, default=FuzzConfig.tol)
    p_fuzz.add_argument("--json", help="write the report as JSON to this path")
    p_fuzz.add_argument("--csv", help="write the rows as CSV to this path")
    p_fuzz.add_argument("--check-id", action="append", default=None,
                        help="restrict to this id/family (repeatable)")
    p_fuzz.add_argument("--top", type=int, default=None, metavar="K",
                        help="also list each check's K sharpest trials by relative slack")

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


def _print_summary(report) -> None:
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


def _write_outputs(report, json_path, csv_path=None) -> None:
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(report_to_csv(report))


def _cmd_repro(_args) -> int:
    report = repro_paper()
    _print_rows(report.rows)
    failed = [row["check_id"] for row in report.rows if not row["pass"]]
    if failed:
        print(f"REPRO MISMATCH: {', '.join(failed)}", file=sys.stderr)
        return EXIT_REPRO
    print("repro: all reference quantities reproduced")
    return EXIT_OK


def _cmd_check(args) -> int:
    inst = load_instance(args.instance)
    report = check_instance(inst, args.check_id, tol=args.tol)
    _print_rows(report.rows)
    _write_outputs(report, args.json)
    print(f"checks={len(report.rows)} violations={violation_count(report)}")
    return exit_code_for(report)


def _fuzz_config(args) -> FuzzConfig:
    return FuzzConfig(
        trials=args.trials,
        master_seed=args.seed,
        n_min=args.n_min,
        n_max=args.n_max,
        rank_policy=args.rank_policy,
        tol=args.tol,
        checks=args.check_id,
    )


def _cmd_fuzz(args) -> int:
    report = fuzz(_fuzz_config(args), top=args.top)
    _print_summary(report)
    if args.top is not None:
        checks = report.summary["checks"]
        for cid in sorted(checks):
            print(f"{cid}:")
            for e in checks[cid]["top"]:
                print(f"  seed={e['seed']} rel_slack={e['rel_slack']:.6e} "
                      f"slack={e['slack']:.6e}")
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
        "list-checks": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except (AnumradError, OSError, ValueError) as exc:
        # JSONDecodeError is a ValueError subclass, so malformed input files
        # land here as well; any other exception is a bug and propagates.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
