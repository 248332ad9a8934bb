"""Workload definitions: inputs made from the seed, one timed call over the
whole trial set, and the checks on its output.

A trial is one fuzz instance or one oracle instance. The fuzz workloads run
the trial set the way the ``fuzz``/``scan`` commands do: one
``fuzz``/``scan_sharpness`` call over all trials, then one
``report_to_json`` of its report. The oracle workload runs criterion 3's
loop, one instance after the other. The program only receives what the
seed generates.

Per-trial times come from a ``TrialClock`` (measure.py): inside a fuzz call
it is told where each trial begins and ends by hooks on
``harness.make_instance`` (the first call of a trial) and
``harness.run_all`` (its last), rebound in the harness namespace for the
call; the oracle loop calls it directly.
"""

from __future__ import annotations

import contextlib
import json
import traceback
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

import anumrad.catalog as catalog
import anumrad.frame as frame
import anumrad.gauges as gauges
import anumrad.harness as harness
from anumrad.matrixcore import spec_norm
from anumrad.seeding import splitmix64

# a separate seed stream for the fuzz warm-up input
_WARMUP_STREAM = 1 << 40


@dataclass
class CallResult:
    busy_s: float    # wall time of the call and its report, probes excluded
    text: str        # canonical output, hashed into the run digest
    attempted: int   # operations checked (report rows, oracle estimates)
    failed: int


class Workload:
    """A fixed set of ``trials`` trials made from the seed."""

    def __init__(self, name: str, trials: int):
        self.name, self.trials = name, trials

    @property
    def tail_pct(self) -> float:
        """The tail percentile: the highest with ten trials of one round beyond
        it, so that it stays fixed however many rounds a run makes."""
        return 100.0 * (1.0 - 10.0 / self.trials)


# --------------------------------------------------------------------------
# Fuzz workloads
# --------------------------------------------------------------------------

def trial_cell(master_seed: int, trial: int, n_min: int, n_max: int) -> tuple:
    """(n, rank) of one trial of a ``mixed`` fuzz run, derived the way
    ``harness.fuzz`` derives it (the criterion-2 reconstruction)."""
    trng = np.random.default_rng(splitmix64(master_seed, trial))
    n = int(trng.integers(n_min, n_max + 1))
    return n, int(trng.integers(1, n + 1))


@contextlib.contextmanager
def clocked_trials(clock):
    """Report trial boundaries inside a fuzz call to ``clock``."""
    make_instance, run_all = harness.make_instance, harness.run_all

    def make_instance_hook(*args, **kwargs):
        clock.begin()
        return make_instance(*args, **kwargs)

    def run_all_hook(*args, **kwargs):
        out = run_all(*args, **kwargs)
        clock.end()
        return out

    harness.make_instance, harness.run_all = make_instance_hook, run_all_hook
    try:
        yield
    finally:
        harness.make_instance, harness.run_all = make_instance, run_all


class FuzzWorkload(Workload):
    """One ``fuzz`` (or ``scan_sharpness``) call over the trial set.

    The seed picks the call's master seed. A fuzz trial's cost depends mostly
    on its (n, rank): a full-rank trial evaluates every strict-metric check
    and costs several times a degenerate one, so over 300 random trials the
    shape mix alone moves a run's time by about 7% between seeds. With
    ``candidates`` > 1 the master seed is the candidate of the seed's stream
    whose trials are closest to the mix the ``mixed`` policy expects (n
    uniform, rank uniform in 1..n): first by the full-rank trials of each
    size, which cost most, then by the chi-square distance of the whole
    (n, rank) histogram."""

    n_min, n_max, tol = 2, 6, 1e-8

    def __init__(self, name: str, trials: int, checks: Optional[Sequence[str]],
                 top: Optional[int], candidates: int):
        super().__init__(name, trials)
        self.checks, self.top, self.candidates = checks, top, candidates
        self.ids = catalog.resolve_ids(checks)
        self.expected_skips = self._expected_skips()

    def config(self) -> dict:
        return {"entry": "scan_sharpness" if self.top is not None else "fuzz",
                "trials": self.trials, "n_min": self.n_min, "n_max": self.n_max,
                "rank_policy": "mixed", "tol": self.tol, "checks": self.checks or "all",
                "top": self.top, "master_seed_candidates": self.candidates}

    def _expected_skips(self) -> tuple:
        """Skipped ids on full-rank and on degenerate metrics, reconstructed
        from the hypotheses as criterion 2 does."""
        gated, nilpotent = set(), set()
        for cid in self.ids:
            cd = catalog.REGISTRY[cid]
            if cd.hypothesis in ("strict", "strict_nonzero_t"):
                gated.add(cid)
            if cd.hypothesis == "power" and abs(cd.param_r - round(cd.param_r)) > 1e-12:
                gated.add(cid)
            if cd.hypothesis in ("nilpotent2", "nilpotent3"):
                nilpotent.add(cid)
        return frozenset(nilpotent), frozenset(gated | nilpotent)

    def cells(self, master_seed: int, trials: int) -> list:
        return [trial_cell(master_seed, t, self.n_min, self.n_max) for t in range(trials)]

    def pick(self, seed: int) -> int:
        """The call's master seed."""
        if self.candidates == 1:
            return splitmix64(seed, 0)
        sizes = range(self.n_min, self.n_max + 1)
        share = {(n, r): 1.0 / (len(sizes) * n) for n in sizes for r in range(1, n + 1)}
        full = {n: round(self.trials * share[n, n]) for n in sizes}

        def distance(master: int) -> tuple:
            hist = Counter(self.cells(master, self.trials))
            return (sum(abs(hist[n, n] - k) for n, k in full.items()),
                    sum((hist[c] - self.trials * p) ** 2 / (self.trials * p)
                        for c, p in share.items()))

        return min((splitmix64(seed, k) for k in range(self.candidates)), key=distance)

    def prepare(self, master_seed: int) -> tuple:
        """(master seed, trials) of the call."""
        return master_seed, self.trials

    def warmup_input(self, seed: int) -> tuple:
        """A one-trial call whose instance is full rank at the largest size,
        so that it runs every check."""
        stream = splitmix64(seed, _WARMUP_STREAM)
        k = 0
        while trial_cell(splitmix64(stream, k), 0, self.n_min, self.n_max) != (
                self.n_max, self.n_max):
            k += 1
        return splitmix64(stream, k), 1

    def run(self, inp: tuple, clock) -> CallResult:
        master_seed, trials = inp
        cfg = harness.FuzzConfig(trials=trials, master_seed=master_seed, n_min=self.n_min,
                                 n_max=self.n_max, rank_policy="mixed", tol=self.tol,
                                 checks=self.checks)
        t0 = perf_counter()
        with clocked_trials(clock):
            if self.top is None:
                report = harness.fuzz(cfg)
            else:
                report = harness.scan_sharpness(cfg, top=self.top)
        text = harness.report_to_json(report)
        busy = perf_counter() - t0 - clock.probe_s()
        attempted, failed = self.check(report, master_seed, trials)
        return CallResult(busy, text, attempted, failed)

    def check(self, report, master_seed: int, trials: int) -> tuple:
        """(rows attempted, rows failed). A row fails if it is a violation or
        an error row, belongs to a trial error, or is skipped when the
        hypotheses say it should run (or the reverse). A report whose rows are
        not one per trial and selected check, in order, fails every row; a
        summary entry that disagrees with the rows fails that check's rows."""
        ids = self.ids
        attempted = trials * len(ids)
        rows = report.rows
        if (report.trials != trials
                or [(r["trial"], r["check_id"]) for r in rows]
                != [(t, cid) for t in range(trials) for cid in ids]):
            return attempted, attempted
        errored = {e["trial"] for e in report.summary.get("trial_errors", ())}
        cells = self.cells(master_seed, trials)
        failed = Counter()
        for row in rows:
            n, rank = cells[row["trial"]]
            expected = self.expected_skips[0 if rank == n else 1]
            failed[row["check_id"]] += (row["trial"] in errored
                                        or (not row["skipped"] and not row["pass"])
                                        or row["skipped"] != (row["check_id"] in expected))
        summary = self._summary(rows, master_seed)
        for cid in ids:
            if report.summary["checks"][cid] != summary[cid]:
                failed[cid] = trials
        return attempted, sum(failed.values())

    def _summary(self, rows, master_seed: int) -> dict:
        """Per-check counts, minimum slacks and (with ``top``) the ``top``
        sharpest trials, recomputed from the rows over the whole trial set."""
        out = {cid: {"evaluated": 0, "skipped": 0, "violations": 0, "min_slack": None,
                     "min_rel_slack": None, "sharpest_seed": None}
               for cid in self.ids}
        ranked = {cid: [] for cid in self.ids}
        for row in rows:
            entry = out[row["check_id"]]
            if row["skipped"]:
                entry["skipped"] += 1
                continue
            entry["evaluated"] += 1
            entry["violations"] += not row["pass"]
            slack = row["slack"]
            if slack != slack:  # NaN
                continue
            rel = slack / (1.0 + abs(row["rhs"]))
            seed = splitmix64(master_seed, row["trial"])
            ranked[row["check_id"]].append((rel, slack, seed))
            if entry["min_slack"] is None or slack < entry["min_slack"]:
                entry["min_slack"] = slack
            if entry["min_rel_slack"] is None or rel < entry["min_rel_slack"]:
                entry["min_rel_slack"], entry["sharpest_seed"] = rel, seed
        if self.top is not None:
            for cid, cand in ranked.items():
                cand.sort(key=lambda c: c[0])
                out[cid]["top"] = [{"seed": seed, "rel_slack": rel, "slack": slack}
                                   for rel, slack, seed in cand[:self.top]]
        return out


# --------------------------------------------------------------------------
# Oracle workload
# --------------------------------------------------------------------------

ORACLE_KINDS = ("w", "norm", "c")
ORACLE_SAMPLES = 2000
ORACLE_GAP = 2e-3        # criterion 3: |compression - oracle| <= 2e-3
ORACLE_OVERSHOOT = 1e-9  # the oracle never beats the compression value

# Criterion 3's instance set (tests/test_acceptance.py): 200 instances drawn
# in turn from one generator, the oracle of instance i seeded
# splitmix64(777, i). The acceptance test holds the program to the bounds
# above on exactly these instances.
CRITERION3_SEED, CRITERION3_ORACLE_SEED, CRITERION3_COUNT = 314159, 777, 200


def criterion3_instances() -> list:
    """The 200 criterion-3 instances (a, T, oracle seed), drawn as the
    acceptance test draws them: n uniform in 2..6, a mild SPD metric
    (spectrum in [1/4, 4]) and a Gaussian T of unit spectral norm."""
    rng = np.random.default_rng(CRITERION3_SEED)
    out = []
    for i in range(CRITERION3_COUNT):
        n = int(rng.integers(2, 7))
        lam = np.exp(rng.uniform(np.log(0.25), np.log(4.0), n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = (q * lam) @ q.conj().T
        t = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        t /= spec_norm(t)
        out.append((0.5 * (a + a.conj().T), t, splitmix64(CRITERION3_ORACLE_SEED, i)))
    return out


class OracleWorkload(Workload):
    """Criterion 3's loop over ``trials`` of its instances: the seed picks
    the same number of instances of each size n, and one more of the
    largest size for the warm-up.

    The instances come from criterion 3's set rather than a fresh draw. The
    oracle is a sampling hill-climb, and on fresh draws it stopped short of
    the global maximum of w by more than the 2e-3 bound on 2 of about 5100
    instances, while the compression value was right (bench/README.md). That
    would fail about one run in fifty for a reason no change of the program
    made."""

    n_min, n_max = 2, 6

    def config(self) -> dict:
        return {"entry": "a_numerical_radius, a_seminorm, a_crawford, oracle_gauge",
                "trials": self.trials, "n_min": self.n_min, "n_max": self.n_max,
                "instances": f"criterion 3's {CRITERION3_COUNT}, {self.per_size()} of each n",
                "metric": "mild SPD [1/4, 4]", "kinds": list(ORACLE_KINDS),
                "samples": ORACLE_SAMPLES, "gap": ORACLE_GAP, "overshoot": ORACLE_OVERSHOOT}

    def per_size(self) -> int:
        return self.trials // (self.n_max - self.n_min + 1)

    def pick(self, seed: int) -> int:
        return seed

    def _chosen(self, seed: int) -> tuple:
        """(trial instances, warm-up instance), in an order drawn from the seed."""
        pool = criterion3_instances()
        order = np.random.default_rng(splitmix64(seed, 0)).permutation(len(pool))
        taken = {n: 0 for n in range(self.n_min, self.n_max + 1)}
        chosen, warmup = [], None
        for k in order:
            n = pool[k][0].shape[0]
            if taken[n] < self.per_size():
                taken[n] += 1
                chosen.append(pool[k])
            elif n == self.n_max and warmup is None:
                warmup = pool[k]
        return chosen, warmup

    def prepare(self, seed: int) -> list:
        """The instances, one per trial."""
        return self._chosen(seed)[0]

    def warmup_input(self, seed: int) -> list:
        return [self._chosen(seed)[1]]

    def run(self, inp: list, clock) -> CallResult:
        texts, failed = [], 0
        t0 = perf_counter()
        for a, t, oseed in inp:
            clock.begin()
            text, bad = self._instance(a, t, oseed)
            clock.end()
            texts.append(text)
            failed += bad
        busy = perf_counter() - t0 - clock.probe_s()
        return CallResult(busy, "".join(texts), len(inp) * len(ORACLE_KINDS), failed)

    @staticmethod
    def _instance(a, t, oseed) -> tuple:
        """(canonical output, estimates failed) of one instance."""
        try:
            f = frame.new_frame(a)
            sweep = {"w": gauges.a_numerical_radius(f, t),
                     "norm": gauges.a_seminorm(f, t),
                     "c": gauges.a_crawford(f, t)}
            est = {k: gauges.oracle_gauge(f, t, k, ORACLE_SAMPLES, seed=oseed)
                   for k in ORACLE_KINDS}
        except Exception:  # noqa: BLE001 - a program error fails the trial, not the run
            traceback.print_exc()
            return "error\n", len(ORACLE_KINDS)
        failed = 0
        for k in ORACLE_KINDS:
            # sup-type gauges are approached from below, c from above
            over = sweep[k] - est[k] if k == "c" else est[k] - sweep[k]
            failed += not (abs(sweep[k] - est[k]) <= ORACLE_GAP and over <= ORACLE_OVERSHOOT)
        text = json.dumps({k: [f"{sweep[k]:.12g}", f"{est[k]:.12g}"] for k in ORACLE_KINDS},
                          sort_keys=True) + "\n"
        return text, failed


WORKLOADS = {
    w.name: w for w in (
        FuzzWorkload("fuzz-mixed", trials=300, checks=None, top=None, candidates=128),
        FuzzWorkload("sharpness-equiv", trials=1000, checks=["equiv_half"], top=10,
                     candidates=1),
        OracleWorkload("oracle", trials=40),
    )
}
