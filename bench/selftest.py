"""Self-test of the benchmark's counters: runs each workload's traced pass
twice at one seed and fails unless every count (calls, brackets,
point_evals, eig_problems, gauge_reads, bytes, ...) repeats exactly and
every output check passes. Claims that rest on counts depend on this.

    python3 bench/selftest.py [--seed 7]
"""

import argparse
import sys

import run  # pins the BLAS threads before numpy is imported


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    run._import_program()
    from measure import HostSpeed, run_call, setup_once
    from tracing import COUNT_METRICS, Tracer
    from workloads import WORKLOADS

    ok = True
    for wl in WORKLOADS.values():
        counts = []
        speed = HostSpeed()
        _, inp, warm = setup_once(wl, args.seed, wl.pick(args.seed), speed,
                                 with_import=False)
        plain, _ = run_call(wl, inp, speed)
        for _ in range(2):
            tracer = Tracer()
            traced, _ = run_call(wl, inp, speed, tracer)
            layer = tracer.layer_metrics()
            counts.append({k: layer[k] for k in COUNT_METRICS})
            failed = warm.failed + plain.failed + traced.failed
            if failed or traced.text != plain.text:
                print(f"FAIL {wl.name}: {failed} failed outputs or traced output differs")
                ok = False
        diff = {k: (counts[0][k], counts[1][k]) for k in COUNT_METRICS
                if counts[0][k] != counts[1][k]}
        if diff:
            print(f"FAIL {wl.name}: counts differ between passes: {diff}")
            ok = False
        else:
            print(f"ok   {wl.name}: {len(COUNT_METRICS)} counts repeat exactly "
                  f"over {wl.trials} traced trials")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
