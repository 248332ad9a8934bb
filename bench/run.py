"""anumrad benchmark: one workload per run, single process, BLAS pinned to
one thread.

    python3 bench/run.py --workload fuzz-mixed --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

--trace 0 runs the workload's fixed trial set in rounds for --seconds with
no instrumentation and prints every end-to-end metric by name with its
unit. --trace 1 alternates untraced and traced rounds and prints the
per-layer metrics and the tracing overhead. Both modes check every trial's
output; the last line of stdout is one JSON object (correct, attempted,
failed, metrics) and the exit code is 1 if any output check failed. Full
results, host facts and the report digest go to .bench_out/ at the
repository root. See bench/README.md.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children:
# the bundled OpenBLAS would otherwise size its pool for up to 64 threads.
PINNED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_program():
    if not (SRC / "anumrad" / "__init__.py").is_file():
        raise ImportError(f"no anumrad sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import anumrad  # noqa: F401  (builds the check registry)


def host_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "pinned_threads": {v: os.environ.get(v) for v in PINNED_VARS},
    }


def run_one(wl, seed: int, seconds: float, trace: int) -> int:
    from measure import measure, measure_traced
    from tracing import LAYER_METRICS

    name = wl.name
    OUT.mkdir(exist_ok=True)
    if trace:
        result = measure_traced(wl, seed, seconds, OUT / f"{name}-spans.json")
    else:
        result = measure(wl, seed, seconds)
    units = {k: u for k, (u, _) in LAYER_METRICS.items()} if trace else END_TO_END_UNITS
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  config=wl.config(), host=host_facts())
    correct = result["failed"] == 0
    with open(OUT / f"{name}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {name}  seed {seed}  trace {trace}")
    for key, value in result["metrics"].items():
        print(f"  {key:34s} {value:14.6g} {units[key]}")
    info = result["info"]
    print(f"  {'failed_ratio':34s} {info['failed_ratio']:14.6g} ratio "
          f"({result['failed']}/{result['attempted']} operations failed)")
    print(f"  info {json.dumps(info, sort_keys=True)}")
    print(f"  host {json.dumps(result['host'], sort_keys=True)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0 if correct else 1


def run_every(names, seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process so that set-up and peak memory
    are measured per workload; the last line merges their results with
    metrics named <workload>.<metric>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_every(list(WORKLOADS), args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
