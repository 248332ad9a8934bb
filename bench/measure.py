"""Timing: the fixed trial set run in rounds, host-speed calibration,
set-up, and the untraced and traced measurements.

Host speed. The reference box is a 2-core VM whose speed swings by up to
1.8x for stretches of seconds to minutes (other tenants): the calibration
loop below takes 0.50 ms in the fast state and 0.9 ms in the slow one,
often for whole runs. Raw wall times then spread by 20-35% between runs of
one seed. So the loop (64 ``eigvalsh`` calls on 4x4 matrices from Python,
the shape of the program's hot path) runs between trials, and every time
is rescaled to a fixed host speed:

    time = wall time * CAL_REF_S / (loop time around the work)

Reported times therefore read as wall times on a host where the loop takes
CAL_REF_S, about the reference box in its fast state. The raw wall-time
metrics are kept in the run's info.

Rounds. Each round is one call over the whole trial set (workloads.py).
A new round starts only if one more of the last round's length still ends
within the run's seconds, so a run lasts at most max(seconds, one round).
The latency metrics pool every rescaled trial time over the rounds;
``trials_per_s`` divides the trials by the calls' rescaled busy time, which
includes per-call work such as the summary and ``report_to_json`` and
excludes the probes.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import anumrad

from tracing import Tracer

CAL_REF_S = 0.5e-3
SETUP_REPS = 9


class HostSpeed:
    """The calibration loop; ``probe()`` returns its wall time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
        self._mats = list(m + m.conj().transpose(0, 2, 1))
        self.samples: list = []

    def probe(self) -> float:
        t0 = perf_counter()
        for h in self._mats:
            np.linalg.eigvalsh(h)
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt


class TrialClock:
    """Trial boundaries and calibration probes of one call.

    ``begin()`` runs a probe and then stamps a trial's start; ``end()`` stamps
    its end. Probes therefore fall between trials, outside every trial time.
    ``probes[0]`` is taken before the call, ``probes[i + 1]`` before trial i
    and the last one by ``finish()`` after the call."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.probes = [speed.probe()]
        self.starts: list = []
        self.ends: list = []

    def begin(self) -> None:
        if len(self.ends) < len(self.starts):  # the previous trial raised
            self.ends.append(perf_counter())
        self.probes.append(self.speed.probe())
        self.starts.append(perf_counter())

    def end(self) -> None:
        self.ends.append(perf_counter())

    def probe_s(self) -> float:
        """Seconds spent in probes since the call began."""
        return math.fsum(self.probes[1:])

    def finish(self) -> None:
        """Closes the call and sets the factors to the reference speed. A
        trial's factor uses the median of the four probes around it (two
        before, two after), which tracks host-speed changes over seconds
        without the noise of a single sub-millisecond probe; time outside
        trials uses the median of all the call's probes."""
        if len(self.ends) < len(self.starts):
            self.ends.append(perf_counter())
        self.probes.append(self.speed.probe())
        p = self.probes
        self.trial_scales = [CAL_REF_S / statistics.median(p[i:i + 4])
                             for i in range(len(self.starts))]
        self.call_scale = CAL_REF_S / statistics.median(p)

    def scale_at(self, t: float) -> float:
        """Factor of the trial running at time t, or the call's outside them."""
        i = bisect.bisect_right(self.starts, t) - 1
        return self.trial_scales[i] if 0 <= i and t <= self.ends[i] else self.call_scale


def run_call(wl, inp, speed: HostSpeed, tracer=None):
    """One timed call of the workload; returns (result, clock)."""
    clock = TrialClock(speed)
    if tracer is None:
        res = wl.run(inp, clock)
    else:
        with tracer.installed():
            res = wl.run(inp, clock)
    clock.finish()
    if tracer is not None:
        tracer.scale_at = clock.scale_at
    return res, clock


class Rounds:
    """Rescaled and raw times of every call over the rounds.

    Trial samples are pooled rather than reduced to a per-trial minimum: once
    rescaled, one round's total varies by about 2% between rounds, while the
    minimum over rounds keeps falling as rounds are added, so it would
    depend on how many rounds fit in the run."""

    def __init__(self):
        self.trial_s: list = []
        self.wall_trial_s: list = []
        self.busy_s: list = []
        self.wall_busy_s: list = []
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.digest = None  # sha256 of the first round's output

    def add(self, res, clock) -> float:
        """Fold in one round; returns its rescaled busy time."""
        wall = [e - s for s, e in zip(clock.starts, clock.ends)]
        scaled = [w * k for w, k in zip(wall, clock.trial_scales)]
        busy = math.fsum(scaled) + (res.busy_s - math.fsum(wall)) * clock.call_scale
        self.trial_s += scaled
        self.wall_trial_s += wall
        self.busy_s.append(busy)
        self.wall_busy_s.append(res.busy_s)
        self.attempted += res.attempted
        self.failed += res.failed
        digest = hashlib.sha256(res.text.encode("utf-8")).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:  # outputs must not change between rounds
            self.failed += res.attempted
        self.count += 1
        return busy

    def trials_per_s(self, wall: bool = False) -> float:
        return len(self.trial_s) / math.fsum(self.wall_busy_s if wall else self.busy_s)

    def outside_trials_share(self) -> float:
        """Share of busy time spent outside trials: per-call work such as
        resolving ids, the summary and report_to_json."""
        return 1.0 - math.fsum(self.wall_trial_s) / math.fsum(self.wall_busy_s)


def percentile(samples, pct: float) -> float:
    return float(np.percentile(samples, pct))


def import_seconds() -> float:
    """Time to import anumrad in a fresh interpreter (startup excluded)."""
    code = ("import time; t = time.perf_counter(); import anumrad; "
            "print(repr(time.perf_counter() - t))")
    src = Path(anumrad.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], cwd=src.parent, env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def setup_once(wl, seed: int, picked, speed: HostSpeed, with_import: bool = True):
    """Import (in a fresh interpreter), input generation from what
    ``wl.pick(seed)`` chose, and one warm-up call; returns (wall seconds,
    input, warm-up result)."""
    t_import = import_seconds() if with_import else 0.0
    t0 = perf_counter()
    inp = wl.prepare(picked)
    warm, _ = run_call(wl, wl.warmup_input(seed), speed)
    return t_import + perf_counter() - t0, inp, warm


def timed_setup(wl, seed: int, picked, speed: HostSpeed, rounds: Rounds, setups: list):
    """One set-up; appends (rescaled, wall) seconds to ``setups`` and its
    warm-up checks to ``rounds``; returns the input."""
    before = speed.probe()
    wall, inp, warm = setup_once(wl, seed, picked, speed)
    setups.append((wall * CAL_REF_S / statistics.median([before, speed.probe()]), wall))
    rounds.attempted += warm.attempted
    rounds.failed += warm.failed
    return inp


def measure(wl, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics. Set-up repeats between rounds
    so that its median is taken over the whole run."""
    speed = HostSpeed()
    rounds = Rounds()
    setups: list = []
    picked = wl.pick(seed)  # the benchmark choosing its workload: untimed
    inp = timed_setup(wl, seed, picked, speed, rounds, setups)
    start = perf_counter()
    while True:
        t0 = perf_counter()
        rounds.add(*run_call(wl, inp, speed))
        if len(setups) < SETUP_REPS:
            timed_setup(wl, seed, picked, speed, rounds, setups)
        now = perf_counter()
        if now - start + (now - t0) > seconds:  # one more round would overrun
            break
    while len(setups) < SETUP_REPS:
        timed_setup(wl, seed, picked, speed, rounds, setups)
    metrics = {
        "trials_per_s": rounds.trials_per_s(),
        "trial_p50_ms": 1e3 * statistics.median(rounds.trial_s),
        "trial_tail_ms": 1e3 * percentile(rounds.trial_s, wl.tail_pct),
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "trials": wl.trials,
        "rounds": rounds.count,
        "samples": len(rounds.trial_s),
        "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": round(len(rounds.trial_s) * (100.0 - wl.tail_pct) / 100.0),
        "outside_trials_share": rounds.outside_trials_share(),
        "setup_reps": len(setups),
        "failed_ratio": rounds.failed / rounds.attempted,
        "report_sha256": rounds.digest,
        "calibration_ref_ms": 1e3 * CAL_REF_S,
        "calibration_median_ms": 1e3 * statistics.median(speed.samples),
        "wall": {
            "trials_per_s": rounds.trials_per_s(wall=True),
            "trial_p50_ms": 1e3 * statistics.median(rounds.wall_trial_s),
            "trial_tail_ms": 1e3 * percentile(rounds.wall_trial_s, wl.tail_pct),
            "setup_s": statistics.median(w for _, w in setups),
        },
    }
    return {"metrics": metrics, "attempted": rounds.attempted, "failed": rounds.failed,
            "info": info}


def measure_traced(wl, seed: int, seconds: float, spans_path) -> dict:
    """Untraced and traced rounds alternate; per-layer times come from the
    fastest traced round, and the overhead compares the pooled rounds."""
    speed = HostSpeed()
    _, inp, warm = setup_once(wl, seed, wl.pick(seed), speed, with_import=False)
    plain, traced = Rounds(), Rounds()
    plain.attempted, plain.failed = warm.attempted, warm.failed
    best, best_busy = None, math.inf
    start = perf_counter()
    while True:
        t0 = perf_counter()
        plain.add(*run_call(wl, inp, speed))
        tracer = Tracer()
        busy = traced.add(*run_call(wl, inp, speed, tracer))
        if busy < best_busy:
            best, best_busy = tracer, busy
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            break
    metrics = best.layer_metrics()
    metrics["trace.overhead_pct"] = 100.0 * (plain.trials_per_s() / traced.trials_per_s() - 1.0)
    same = plain.digest == traced.digest
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed + (0 if same else traced.attempted)
    best.write_spans(spans_path)
    info = {
        "trials": wl.trials,
        "rounds": traced.count,
        "untraced_trials_per_s": plain.trials_per_s(),
        "traced_trials_per_s": traced.trials_per_s(),
        "spans": len(best.spans),
        "failed_ratio": failed / attempted,
        "report_sha256": plain.digest,
        "traced_output_identical": same,
        "calibration_ref_ms": 1e3 * CAL_REF_S,
        "calibration_median_ms": 1e3 * statistics.median(speed.samples),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "info": info}
