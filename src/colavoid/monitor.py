"""Sliding-window performance monitoring and repair signalling.

The monitor ingests one `simenv.StepRecord` per attempted movement: the
step's queries, as (trace row, prediction, truth) ints, and its outcome.
It owns every count taken from them: the run's totals, a window of the
last d_window queries' correct bits, the period's 2x2 (truth, prediction)
counts, the trace rows of the period's misclassified queries and the
period's outcome stats.  At each period boundary (every T_monitor queries)
`close_period` compares windowed accuracy and period safety/time against
the configured thresholds, returns the failing clauses and, for a
repairing run whose clause fired, the period's misclassified trace rows as
a counterexample dataset, and starts the next period.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from collections import deque
from dataclasses import dataclass

from .perception import Dataset


class MonitorError(Exception):
    pass


@dataclass(frozen=True)
class MonitorConfig:
    t_monitor: int = 1250
    d_window: int = 1000
    threshold_1: float = 0.9        # windowed-accuracy floor
    threshold_2: float = 0.8        # post-repair test-accuracy gate
    safety_bound: float = 0.9       # period safety-rate floor
    time_bound: float = 15.0        # period mean step-time ceiling

    def __post_init__(self):
        for name in ("t_monitor", "d_window"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise MonitorError(f"{name} must be a positive integer, got {value!r}")
        for th in (self.threshold_1, self.threshold_2, self.safety_bound):
            if not 0.0 <= th <= 1.0:
                raise MonitorError("thresholds must lie in [0, 1]")
        if math.isnan(self.time_bound):
            raise MonitorError("time bound must be a number")


@dataclass
class RunningStats:
    """Movement outcomes, a period's or the run's, updated incrementally."""

    attempts: int = 0
    collisions: int = 0
    total_time: float = 0.0          # over every attempted move

    def record(self, collided, elapsed):
        self.attempts += 1
        self.total_time += elapsed
        if collided:
            self.collisions += 1

    @property
    def completed(self):
        return self.attempts - self.collisions

    @property
    def safety_rate(self):
        if self.attempts == 0:
            return 1.0
        return 1.0 - self.collisions / self.attempts

    @property
    def mean_time(self):
        """Mean time over every attempted move, collisions included, as the
        model's R[F done|collision] counts it; the one mean step time of the
        monitor's time clause, periods.csv and metrics.csv."""
        if self.attempts == 0:
            return 0.0
        return self.total_time / self.attempts


class Monitor:
    """Owns the query count, the period boundaries, the window, the period
    counts and stats, the run's totals and the rows of its three CSVs."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.window = deque(maxlen=cfg.d_window)  # correct bits, oldest first
        self.window_correct = 0
        self.counts = [0, 0, 0, 0]     # period (truth, prediction): 00, 01, 10, 11
        self.wrong_rows = []           # trace rows of the period's misclassified queries
        self.stats = RunningStats()    # the period's outcomes
        self.total = RunningStats()    # the run's outcomes
        self.queries = 0
        self.correct = 0               # the run's correct predictions
        self.steps = []                # steps.csv rows, one per observed step
        self.periods = []              # periods.csv rows, one per finished period
        self._trace = []               # monitor_trace.csv rows
        self._next_boundary = cfg.t_monitor

    def observe(self, rec):
        """Ingest one step's queries and its movement outcome."""
        window, counts, wrong_rows = self.window, self.counts, self.wrong_rows
        full, correct = window.maxlen, 0
        for row, prediction, truth in rec.observations:
            ok = prediction == truth
            if len(window) == full:
                self.window_correct -= window[0]
            window.append(ok)
            counts[2 * truth + prediction] += 1
            if ok:
                correct += 1
            else:
                wrong_rows.append(row)
        self.window_correct += correct
        self.correct += correct
        self.queries += len(rec.observations)
        collided = rec.outcome == "collision"
        self.stats.record(collided, rec.elapsed)
        self.total.record(collided, rec.elapsed)

    def at_period_boundary(self):
        """True once the period's query quota is met (steps may overshoot)."""
        return self.queries >= self._next_boundary

    def window_accuracy(self):
        if not self.window:
            raise MonitorError("accuracy over an empty window is undefined")
        return self.window_correct / len(self.window)

    def period_accuracy(self):
        """Accuracy over the period's queries (nan if none)."""
        n = sum(self.counts)
        return (self.counts[0] + self.counts[3]) / n if n else float("nan")

    def evaluate(self):
        """The threshold clauses failing at a period boundary, a subset of
        {"accuracy", "safety", "time"}; empty while the window fills."""
        if len(self.window) < self.cfg.d_window:
            return frozenset()
        stats, reasons = self.stats, set()
        if self.window_accuracy() < self.cfg.threshold_1:
            reasons.add("accuracy")
        if stats.safety_rate < self.cfg.safety_bound:
            reasons.add("safety")
        if stats.mean_time > self.cfg.time_bound:
            reasons.add("time")
        return frozenset(reasons)

    def close_period(self, trace, repairing):
        """Evaluate the just-finished period, write its periods.csv row and
        start the next one; callable only at a boundary.

        Returns (failing clauses, counterexamples).  The counterexamples are
        the period's misclassified queries, as a dataset of their trace rows'
        inputs and true labels, when `repairing` and a clause fired; else an
        empty dataset.  A non-empty set marks the last trace row as the
        repair step.
        """
        if not self.at_period_boundary():
            raise MonitorError("period not yet complete")
        reasons = self.evaluate()
        rows = self.wrong_rows if repairing and reasons else []
        if rows and self._trace:
            self._trace[-1][-1] = 1
        self.periods.append([len(self.periods), self.period_accuracy(),
                             self.stats.safety_rate, self.stats.mean_time])
        self.counts = [0, 0, 0, 0]
        self.wrong_rows = []
        self.stats = RunningStats()
        while self._next_boundary <= self.queries:
            self._next_boundary += self.cfg.t_monitor
        return reasons, Dataset(trace.X[rows], trace.label[rows])

    def log_trace_row(self, rec):
        """The steps.csv and monitor_trace.csv rows of the step just observed;
        both start with the query count.  The trace row holds the step's last
        prediction and truth and the window and period figures; its repair
        flag is set by close_period."""
        self.steps.append([self.queries, rec.outcome, rec.elapsed, rec.waits, rec.queries])
        _, prediction, truth = rec.observations[-1] if rec.observations else ("", "", "")
        acc = self.window_accuracy() if self.window else ""
        self._trace.append([self.queries, prediction, truth, acc,
                            self.stats.safety_rate, self.stats.mean_time, 0])

    def write_csvs(self, out_dir):
        """Write steps.csv, periods.csv and monitor_trace.csv into out_dir."""
        for name, header, rows in (
                ("steps.csv", "step,outcome,elapsed,waits,queries", self.steps),
                ("periods.csv", "period,accuracy,safety_rate,mean_time", self.periods),
                ("monitor_trace.csv", "step,prediction,truth,window_accuracy,"
                 "period_safety,period_mean_time,repair", self._trace)):
            with open(os.path.join(out_dir, name), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header.split(","))
                writer.writerows(rows)
