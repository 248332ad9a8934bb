"""Per-layer tracing from outside the program.

``Tracer.installed()`` rebinds chosen anumrad functions, in every anumrad
module namespace where callers look them up, to wrappers that record a span
(name, start, end, parent) or bump a counter, and restores the originals on
exit. ``src/`` is never edited: the wrappers live here.

Spans are kept in memory. A span's self time is its duration minus the
durations of its direct child spans; helpers that get no span (matrixcore,
seeding, ``_golden``, the pointwise closures) land in their caller's self
time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from time import perf_counter

import anumrad.adjoint as adjoint
import anumrad.catalog as catalog
import anumrad.frame as frame
import anumrad.gauges as gauges
import anumrad.harness as harness

# The a_* gauges share one span name: the oracle workload asks how much of
# its time the compression route takes, not which gauge.
A_GAUGES = ("a_numerical_radius", "a_seminorm", "a_crawford", "a_crawford_C",
            "a_min_modulus")

# (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {
    "gauges.refine.calls": ("count", "lower"),
    "gauges.refine.ms": ("ms", "lower"),
    "gauges.refine.brackets": ("count", "lower"),
    "gauges.refine.point_evals": ("count", "lower"),
    "gauges.theta_scan.calls": ("count", "lower"),
    "gauges.theta_scan.ms": ("ms", "lower"),
    "gauges.theta_scan.eig_problems": ("count", "lower"),
    "gauges.sweep_gauges.calls": ("count", "lower"),
    "gauges.sweep_gauges.self_ms": ("ms", "lower"),
    "gauges.oracle_gauge.calls": ("count", "lower"),
    "gauges.oracle_gauge.ms": ("ms", "lower"),
    "gauges.a_gauges.ms": ("ms", "lower"),
    "catalog.gauge_reads": ("count", "higher"),
    "catalog.gauge_read_ratio": ("ratio", "higher"),
    "catalog.run_all.calls": ("count", "lower"),
    "catalog.run_all.ms": ("ms", "lower"),
    "catalog.self_ms": ("ms", "lower"),
    "catalog.check_errors": ("count", "lower"),
    "catalog.checks.evaluated": ("count", "higher"),
    "catalog.checks.skipped": ("count", "lower"),
    "harness.make_instance.calls": ("count", "lower"),
    "harness.make_instance.self_ms": ("ms", "lower"),
    "harness.report_to_json.ms": ("ms", "lower"),
    "harness.report_to_json.bytes": ("bytes", "lower"),
    "harness.trial_errors": ("count", "lower"),
    "frame.new_frame.calls": ("count", "lower"),
    "frame.new_frame.ms": ("ms", "lower"),
    "frame.direct_sum.calls": ("count", "lower"),
    "adjoint.admits_a_adjoint.calls": ("count", "lower"),
    "adjoint.admits_a_adjoint.ms": ("ms", "lower"),
    "adjoint.reduced.calls": ("count", "lower"),
    "adjoint.reduced.self_ms": ("ms", "lower"),
    "adjoint.sharp.calls": ("count", "lower"),
    "adjoint.sharp.self_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# Metrics that count work; the self-test requires them to repeat exactly.
COUNT_METRICS = tuple(k for k, (unit, _) in LAYER_METRICS.items()
                      if unit in ("count", "bytes"))


def _rebind(orig, replacement) -> list:
    """Point every anumrad module attribute bound to ``orig`` at
    ``replacement``; returns what ``_restore`` needs to undo it."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "anumrad" or name.startswith("anumrad.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, orig))
    return undo


def _restore(undo: list) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        # start time of a root span -> its wall-to-reference-speed factor
        self.scale_at = lambda _t: 1.0
        self._stack: list = []
        self._reads: set = set()

    # -- recording ---------------------------------------------------------

    def _spanned(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks with side accounting ----------------------------------------

    def _after_theta_scan(self, args, _out):
        cfg = args[1] if len(args) > 1 else gauges.DEFAULT_SWEEP
        self.counts["gauges.theta_scan.eig_problems"] += cfg.grid_points

    def _after_run_all(self, _args, results):
        c = self.counts
        for res in results:
            if res.skipped:
                c["catalog.checks.skipped"] += 1
            else:
                c["catalog.checks.evaluated"] += 1
            if "error" in res.metadata:
                c["catalog.check_errors"] += 1
        # one _Ctx per run_all call, so distinct reads are counted per call
        c["catalog.gauge_reads"] += len(self._reads)
        self._reads.clear()

    def _after_report_to_json(self, args, text):
        self.counts["harness.report_to_json.bytes"] += len(text.encode("utf-8"))
        self.counts["harness.trial_errors"] += len(args[0].summary.get("trial_errors", ()))

    def _make_pointwise(self, orig):
        counts = self.counts

        @functools.wraps(orig)
        def make(m):
            lam_max, min_abs = orig(m)

            def lam_max_counted(theta):
                counts["gauges.refine.point_evals"] += 1
                return lam_max(theta)

            def min_abs_counted(theta):
                counts["gauges.refine.point_evals"] += 1
                return min_abs(theta)

            return lam_max_counted, min_abs_counted

        return make

    def _gauge_read(self, space: str, field: str, orig):
        reads = self._reads

        @functools.wraps(orig)
        def read(ctx, m):
            reads.add((space, field, ctx._key(m)))
            return orig(ctx, m)

        return read

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Route the traced anumrad functions through this tracer."""
        plan = [
            (harness.make_instance, self._spanned("harness.make_instance", harness.make_instance)),
            (harness.report_to_json, self._spanned(
                "harness.report_to_json", harness.report_to_json, self._after_report_to_json)),
            (catalog.run_all, self._spanned("catalog.run_all", catalog.run_all,
                                            self._after_run_all)),
            (gauges.sweep_gauges, self._spanned("gauges.sweep_gauges", gauges.sweep_gauges)),
            (gauges._theta_scan, self._spanned("gauges.theta_scan", gauges._theta_scan,
                                               self._after_theta_scan)),
            (gauges._refine, self._spanned("gauges.refine", gauges._refine)),
            (gauges._golden, self._counted("gauges.refine.brackets", gauges._golden)),
            (gauges._make_pointwise, self._make_pointwise(gauges._make_pointwise)),
            (gauges.oracle_gauge, self._spanned("gauges.oracle_gauge", gauges.oracle_gauge)),
            (frame.new_frame, self._spanned("frame.new_frame", frame.new_frame)),
            (frame.direct_sum, self._spanned("frame.direct_sum", frame.direct_sum)),
            (adjoint.admits_a_adjoint, self._spanned(
                "adjoint.admits_a_adjoint", adjoint.admits_a_adjoint)),
            (adjoint.reduced, self._spanned("adjoint.reduced", adjoint.reduced)),
            (adjoint.sharp, self._spanned("adjoint.sharp", adjoint.sharp)),
        ]
        plan += [(getattr(gauges, name), self._spanned("gauges.a_gauges", getattr(gauges, name)))
                 for name in A_GAUGES]
        undo = []
        try:
            for orig, wrapper in plan:
                undo += _rebind(orig, wrapper)
            ctx_cls = catalog._Ctx
            for attr, space, field in (("w", "a", "w"), ("c", "a", "crawford"),
                                       ("cc", "a", "crawford_c"), ("wb", "b", "w")):
                orig = getattr(ctx_cls, attr)
                setattr(ctx_cls, attr, self._gauge_read(space, field, orig))
                undo.append((ctx_cls, attr, orig))
            yield self
        finally:
            _restore(undo)

    # -- aggregation -------------------------------------------------------

    def by_name(self) -> dict:
        """name -> [calls, total seconds, self seconds]; durations are scaled
        by ``scale_at`` of their root span's start."""
        n = len(self.spans)
        dur, child, scale = [0.0] * n, [0.0] * n, [1.0] * n
        for i, (_name, start, end, parent) in enumerate(self.spans):
            scale[i] = self.scale_at(start) if parent < 0 else scale[parent]
            dur[i] = (end - start) * scale[i]
            if parent >= 0:
                child[parent] += dur[i]
        agg: dict = {}
        for i, (name, *_rest) in enumerate(self.spans):
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += dur[i] - child[i]
        return agg

    def layer_metrics(self) -> dict:
        """Every LAYER_METRICS value except the tracing overhead."""
        agg = self.by_name()

        def calls(name):
            return agg.get(name, [0, 0.0, 0.0])[0]

        def ms(name):
            return 1e3 * agg.get(name, [0, 0.0, 0.0])[1]

        def self_ms(name):
            return 1e3 * agg.get(name, [0, 0.0, 0.0])[2]

        c = self.counts
        sweeps = calls("gauges.sweep_gauges")
        return {
            "gauges.refine.calls": calls("gauges.refine"),
            "gauges.refine.ms": ms("gauges.refine"),
            "gauges.refine.brackets": c["gauges.refine.brackets"],
            "gauges.refine.point_evals": c["gauges.refine.point_evals"],
            "gauges.theta_scan.calls": calls("gauges.theta_scan"),
            "gauges.theta_scan.ms": ms("gauges.theta_scan"),
            "gauges.theta_scan.eig_problems": c["gauges.theta_scan.eig_problems"],
            "gauges.sweep_gauges.calls": sweeps,
            "gauges.sweep_gauges.self_ms": self_ms("gauges.sweep_gauges"),
            "gauges.oracle_gauge.calls": calls("gauges.oracle_gauge"),
            "gauges.oracle_gauge.ms": ms("gauges.oracle_gauge"),
            "gauges.a_gauges.ms": ms("gauges.a_gauges"),
            "catalog.gauge_reads": c["catalog.gauge_reads"],
            # three values (w, c, C) are computed per sweep
            "catalog.gauge_read_ratio": (c["catalog.gauge_reads"] / (3 * sweeps)
                                         if sweeps else 0.0),
            "catalog.run_all.calls": calls("catalog.run_all"),
            "catalog.run_all.ms": ms("catalog.run_all"),
            "catalog.self_ms": self_ms("catalog.run_all"),
            "catalog.check_errors": c["catalog.check_errors"],
            "catalog.checks.evaluated": c["catalog.checks.evaluated"],
            "catalog.checks.skipped": c["catalog.checks.skipped"],
            "harness.make_instance.calls": calls("harness.make_instance"),
            "harness.make_instance.self_ms": self_ms("harness.make_instance"),
            "harness.report_to_json.ms": ms("harness.report_to_json"),
            "harness.report_to_json.bytes": c["harness.report_to_json.bytes"],
            "harness.trial_errors": c["harness.trial_errors"],
            "frame.new_frame.calls": calls("frame.new_frame"),
            "frame.new_frame.ms": ms("frame.new_frame"),
            "frame.direct_sum.calls": calls("frame.direct_sum"),
            "adjoint.admits_a_adjoint.calls": calls("adjoint.admits_a_adjoint"),
            "adjoint.admits_a_adjoint.ms": ms("adjoint.admits_a_adjoint"),
            "adjoint.reduced.calls": calls("adjoint.reduced"),
            "adjoint.reduced.self_ms": self_ms("adjoint.reduced"),
            "adjoint.sharp.calls": calls("adjoint.sharp"),
            "adjoint.sharp.self_ms": self_ms("adjoint.sharp"),
        }

    def write_spans(self, path) -> None:
        """Spans as {"names": [...], "spans": [[name index, start s, end s,
        parent index], ...]}, times relative to the first span."""
        names: dict = {}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[names.setdefault(n, len(names)), round(s - t0, 7), round(e - t0, 7), p]
                for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))
