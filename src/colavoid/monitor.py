"""Sliding-window performance monitoring and repair signalling.

The monitor ingests one observation per perception query and one outcome
record per attempted movement.  At period boundaries (every T_monitor
queries) it compares windowed accuracy and period safety/time against the
configured thresholds and, when a clause fires, exposes the period's
misclassified inputs as a counterexample dataset.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass

from .perception import Dataset


class MonitorError(Exception):
    pass


@dataclass(frozen=True)
class Observation:
    x: tuple
    prediction: int
    truth: int
    step: int


@dataclass(frozen=True)
class MonitorConfig:
    t_monitor: int = 1250
    d_window: int = 1000
    threshold_1: float = 0.9        # windowed-accuracy floor
    threshold_2: float = 0.8        # post-repair test-accuracy gate
    safety_bound: float = 0.9       # period safety-rate floor
    time_bound: float = 15.0        # period mean step-time ceiling

    def __post_init__(self):
        if self.t_monitor < 1:
            raise MonitorError("monitoring period must be at least one step")
        for th in (self.threshold_1, self.threshold_2, self.safety_bound):
            if not 0.0 <= th <= 1.0:
                raise MonitorError("thresholds must lie in [0, 1]")


class SlidingWindow:
    """Bounded FIFO of observations; evicts strictly oldest-first and keeps
    a running count of its correct predictions."""

    def __init__(self, capacity):
        if capacity < 1:
            raise MonitorError("window capacity must be positive")
        self.capacity = capacity
        self._buf = deque(maxlen=capacity)
        self._correct = 0
        self._last_step = -1

    def __len__(self):
        return len(self._buf)

    def __iter__(self):
        return iter(self._buf)

    def append(self, obs):
        if obs.step <= self._last_step:
            raise MonitorError(
                f"out-of-order step index {obs.step} (last was {self._last_step})")
        if len(self._buf) == self.capacity:
            evicted = self._buf[0]
            self._correct -= evicted.prediction == evicted.truth
        self._buf.append(obs)
        self._correct += obs.prediction == obs.truth
        self._last_step = obs.step

    def accuracy(self):
        if not self._buf:
            raise MonitorError("accuracy over an empty window is undefined")
        return self._correct / len(self._buf)

    def is_full(self):
        return len(self._buf) == self.capacity


@dataclass
class RunningStats:
    """Per-period movement outcomes, updated incrementally."""

    attempts: int = 0
    collisions: int = 0
    total_time: float = 0.0

    def record(self, collided, elapsed):
        self.attempts += 1
        self.collisions += 1 if collided else 0
        self.total_time += elapsed

    @property
    def safety_rate(self):
        if self.attempts == 0:
            return 1.0
        return 1.0 - self.collisions / self.attempts

    @property
    def mean_time(self):
        """Mean time over every attempted move, collisions included, as the
        model's R[F done|collision] counts it (the run's mean_step_time in
        metrics.csv averages completed moves only)."""
        if self.attempts == 0:
            return 0.0
        return self.total_time / self.attempts


@dataclass(frozen=True)
class RepairDecision:
    repair: bool
    reasons: frozenset       # subset of {"accuracy", "safety", "time"}
    accuracy: float          # windowed accuracy (nan when skipped)
    period_accuracy: float   # accuracy over the period's queries (nan if none)
    safety_rate: float
    mean_time: float
    skipped: bool = False    # window not yet full at evaluation time


class Monitor:
    """Owns the query count, the period boundaries, the sliding window, the
    period stats and the counterexample log."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.window = SlidingWindow(cfg.d_window)
        self.stats = RunningStats()
        self._period_obs = []          # observations of the current period
        self._trace = []               # rows for the exported trace CSV
        self.queries = 0
        self._next_boundary = cfg.t_monitor

    def observe(self, obs):
        """Ingest one perception query's observation."""
        self.window.append(obs)
        self._period_obs.append(obs)
        self.queries += 1

    def record_outcome(self, collided, elapsed):
        """Ingest one attempted one-step movement's outcome."""
        self.stats.record(collided, elapsed)

    def at_period_boundary(self):
        """True once the period's query quota is met (steps may overshoot)."""
        return self.queries >= self._next_boundary

    def evaluate(self):
        """Period-boundary repair decision per the threshold clauses."""
        obs = self._period_obs
        period_acc = (sum(o.prediction == o.truth for o in obs) / len(obs)
                      if obs else float("nan"))
        if not self.window.is_full():
            return RepairDecision(False, frozenset(), float("nan"), period_acc,
                                  self.stats.safety_rate, self.stats.mean_time,
                                  skipped=True)
        acc = self.window.accuracy()
        reasons = set()
        if acc < self.cfg.threshold_1:
            reasons.add("accuracy")
        if self.stats.safety_rate < self.cfg.safety_bound:
            reasons.add("safety")
        if self.stats.mean_time > self.cfg.time_bound:
            reasons.add("time")
        return RepairDecision(bool(reasons), frozenset(reasons), acc, period_acc,
                              self.stats.safety_rate, self.stats.mean_time)

    def drain_counterexamples(self):
        """Misclassified observations of the just-finished period, as a
        dataset of their inputs and true labels.

        A non-empty set marks the last trace row as the repair step.  Resets
        the period log and stats; callable only at a boundary.
        """
        if not self.at_period_boundary():
            raise MonitorError("period not yet complete")
        wrong = [o for o in self._period_obs if o.prediction != o.truth]
        ce = Dataset([o.x for o in wrong], [o.truth for o in wrong], role="train")
        if len(ce) and self._trace:
            self._trace[-1][-1] = 1
        self._advance_period()
        return ce

    def reset_period(self):
        """Start a new period without draining counterexamples."""
        self._advance_period()

    def _advance_period(self):
        self._period_obs = []
        self.stats = RunningStats()
        while self._next_boundary <= self.queries:
            self._next_boundary += self.cfg.t_monitor

    def log_trace_row(self, step, prediction, truth):
        """One monitor_trace.csv row; its repair flag is set by
        drain_counterexamples."""
        acc = self.window.accuracy() if len(self.window) else ""
        self._trace.append([step, prediction, truth, acc,
                            self.stats.safety_rate, self.stats.mean_time, 0])

    def write_trace(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "prediction", "truth", "window_accuracy",
                            "period_safety", "period_mean_time", "repair"])
            writer.writerows(self._trace)
