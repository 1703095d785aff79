import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colavoid import monitor as mon
from colavoid.simenv import StepRecord, Trace


def record(pairs=(), start=0, outcome="done", elapsed=10.0):
    """A step whose (prediction, truth) queries sit at trace rows start, start + 1, ..."""
    obs = [(start + i, prediction, truth) for i, (prediction, truth) in enumerate(pairs)]
    return StepRecord(outcome, elapsed, max(len(obs) - 1, 0), obs)


def feed(m, pairs, start=0):
    """One step per query, at consecutive trace rows; returns the next row."""
    for i, pair in enumerate(pairs):
        m.observe(record([pair], start + i))
    return start + len(pairs)


def row_trace(labels):
    """A trace whose row i has input (i, 0, 0, 0, 0) and the given label."""
    n = len(labels)
    X = np.zeros((n, 5))
    X[:, 0] = np.arange(n)
    return Trace(np.ones(n, dtype=bool), X, labels)


def small_cfg(**kw):
    defaults = dict(t_monitor=10, d_window=8, threshold_1=0.9, threshold_2=0.8,
                    safety_bound=0.9, time_bound=15.0)
    defaults.update(kw)
    return mon.MonitorConfig(**defaults)


class TestWindow:
    def test_eviction_is_oldest_first(self):
        m = mon.Monitor(small_cfg(d_window=3))
        feed(m, [(1, 1), (1, 1), (0, 1), (1, 1), (0, 1)])
        assert list(m.window) == [False, True, False]

    def test_accuracy(self):
        m = mon.Monitor(small_cfg(d_window=4))
        m.observe(record([(1, 1), (0, 1), (0, 0), (1, 0)]))
        assert m.window_accuracy() == 0.5

    def test_empty_accuracy_undefined(self):
        with pytest.raises(mon.MonitorError):
            mon.Monitor(small_cfg()).window_accuracy()

    def test_step_without_queries_leaves_the_window(self):
        m = mon.Monitor(small_cfg(d_window=2))
        m.observe(record([(1, 1), (0, 1)]))
        m.observe(record())
        assert list(m.window) == [True, False] and m.queries == 2

    def test_is_full(self):
        # a wrong query fails the accuracy clause once the window is full
        m = mon.Monitor(small_cfg(t_monitor=1, d_window=2))
        m.observe(record([(1, 0)]))
        assert m.evaluate() == frozenset()           # skipped: window filling
        m.observe(record([(1, 0)], start=1))
        assert m.evaluate() == frozenset({"accuracy"})

    @given(st.integers(1, 20), st.lists(st.integers(0, 4), max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_length_never_exceeds_capacity(self, cap, sizes):
        m = mon.Monitor(small_cfg(d_window=cap))
        row = 0
        for k in sizes:
            m.observe(record([(0, 0)] * k, row))
            row += k
        assert len(m.window) == min(cap, sum(sizes))

    @given(st.integers(1, 12), st.lists(st.lists(st.tuples(st.integers(0, 1),
                                                           st.integers(0, 1)), max_size=4),
                                        min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_running_accuracy_equals_recount(self, cap, steps):
        m = mon.Monitor(small_cfg(d_window=cap))
        seen = []
        for pairs in steps:
            m.observe(record(pairs, len(seen)))
            seen += pairs
            if not seen:
                continue
            last = seen[-cap:]
            assert m.window_accuracy() == sum(p == t for p, t in last) / len(last)


class TestRunningStats:
    def test_safety_rate(self):
        s = mon.RunningStats()
        for collided in (False, False, True, False):
            s.record(collided, 10.0)
        assert s.safety_rate == 0.75

    def test_mean_time(self):
        s = mon.RunningStats()
        s.record(False, 10.0)
        s.record(False, 14.0)
        assert s.mean_time == 12.0

    def test_mean_time_counts_collisions(self):
        s = mon.RunningStats()
        s.record(False, 10.0)
        s.record(True, 20.0)
        s.record(False, 14.0)
        assert (s.completed, s.mean_time) == (2, 44.0 / 3)

    def test_empty_defaults(self):
        s = mon.RunningStats()
        assert s.safety_rate == 1.0 and s.mean_time == 0.0


class TestRunTotals:
    def test_totals_span_periods(self):
        m = mon.Monitor(small_cfg(t_monitor=2))
        m.observe(record([(1, 1), (0, 1)], outcome="collision", elapsed=12.0))
        m.close_period(row_trace([1, 1]), False)
        m.observe(record([(0, 0)], start=2, elapsed=10.0))
        m.observe(record(elapsed=10.0))
        assert (m.queries, m.correct) == (3, 2)
        assert (m.total.attempts, m.total.collisions, m.total.completed) == (3, 1, 2)
        assert m.total.mean_time == 32.0 / 3
        assert m.stats.attempts == 2          # the period's outcomes only


class TestRepairDecision:
    def fill(self, m, correct, wrong, outcome="done", elapsed=10.0):
        """One step of `correct` right and then `wrong` wrong queries."""
        m.observe(record([(1, 1)] * correct + [(1, 0)] * wrong, m.queries,
                         outcome, elapsed))

    def test_no_repair_when_all_clauses_hold(self):
        m = mon.Monitor(small_cfg())
        self.fill(m, 10, 0)
        assert m.evaluate() == frozenset()

    def test_accuracy_clause(self):
        m = mon.Monitor(small_cfg())
        self.fill(m, 8, 2)
        assert m.evaluate() == frozenset({"accuracy"})
        assert m.window_accuracy() == pytest.approx(6 / 8)  # window holds last 8

    def test_safety_clause(self):
        m = mon.Monitor(small_cfg())
        self.fill(m, 10, 0, outcome="collision")
        for _ in range(3):
            m.observe(record())
        assert m.stats.safety_rate == 0.75
        assert m.evaluate() == frozenset({"safety"})

    def test_time_clause(self):
        m = mon.Monitor(small_cfg())
        self.fill(m, 10, 0, elapsed=20.0)
        assert m.evaluate() == frozenset({"time"})

    def test_boundary_thresholds_do_not_fire(self):
        # exactly at the threshold: >= accuracy, >= safety, <= time are fine
        cfg = small_cfg(threshold_1=0.875)
        m = mon.Monitor(cfg)
        self.fill(m, 7, 1, elapsed=15.0)
        assert m.evaluate() == frozenset()

    def test_partial_window_is_skipped(self):
        # every clause would fail, but the window is not yet full
        m = mon.Monitor(small_cfg(d_window=100))
        self.fill(m, 0, 10, outcome="collision", elapsed=20.0)
        assert len(m.window) < m.cfg.d_window
        assert m.evaluate() == frozenset()
        reasons, ce = m.close_period(row_trace([0] * 10), True)
        assert reasons == frozenset() and len(ce) == 0

    def test_empty_period_accuracy_is_nan(self):
        assert math.isnan(mon.Monitor(small_cfg()).period_accuracy())

    def test_period_accuracy_on_overshooting_and_skipped_periods(self):
        m = mon.Monitor(small_cfg(d_window=20))
        trace = row_trace([0] * 20)
        self.fill(m, 9, 4)                   # 13 queries: overshoots the 10 mark
        assert m.at_period_boundary()
        assert m.evaluate() == frozenset()   # skipped: the window holds 13 of 20
        assert m.period_accuracy() == 9 / 13
        assert m.close_period(trace, True)[0] == frozenset()
        self.fill(m, 2, 5)                   # next boundary is at 20 queries
        assert m.at_period_boundary()
        assert m.period_accuracy() == 2 / 7
        m.close_period(trace, True)
        assert [row[1] for row in m.periods] == [9 / 13, 2 / 7]

    @given(st.lists(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                             max_size=7), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_period_accuracy_equals_recount(self, steps):
        # steps of 0-7 queries against a 5-query period, driven as the harness
        # drives the monitor, so periods overshoot and early ones are skipped
        m = mon.Monitor(small_cfg(t_monitor=5, d_window=12))
        trace = row_trace([0] * sum(map(len, steps)))
        period = []
        for queries in steps:
            m.observe(record(queries, m.queries))
            period += [prediction == truth for prediction, truth in queries]
            if m.at_period_boundary():
                assert m.period_accuracy() == sum(period) / len(period)
                if m.queries < 12:
                    assert m.evaluate() == frozenset()
                m.close_period(trace, False)
                assert m.periods[-1][1] == sum(period) / len(period)
                period = []


class TestPeriods:
    def test_boundary_detection(self):
        m = mon.Monitor(small_cfg())
        row = feed(m, [(0, 0)] * 9)
        assert not m.at_period_boundary()
        feed(m, [(0, 0)], row)
        assert m.at_period_boundary()

    def test_overshoot_still_counts_as_boundary(self):
        m = mon.Monitor(small_cfg())
        m.observe(record([(0, 0)] * 13))      # overshoot past the 10-query mark
        assert m.at_period_boundary()
        m.close_period(row_trace([0] * 13), False)
        assert not m.at_period_boundary()
        m.observe(record([(0, 0)] * 7, 13))
        assert m.at_period_boundary()        # next boundary is at 20 queries

    def test_drain_outside_boundary_rejected(self):
        m = mon.Monitor(small_cfg())
        m.observe(record([(0, 0)]))
        for repairing in (True, False):
            with pytest.raises(mon.MonitorError, match="period"):
                m.close_period(row_trace([0]), repairing)

    def test_drain_returns_misclassified_only(self):
        m = mon.Monitor(small_cfg())
        feed(m, [(i % 2, 0) for i in range(10)])
        reasons, ce = m.close_period(row_trace([0] * 10), True)
        assert reasons == frozenset({"accuracy"})
        assert len(ce) == 5
        assert ce.y.tolist() == [0] * 5
        assert ce.X.shape == (5, 5)
        assert ce.X[:, 0].tolist() == [1, 3, 5, 7, 9]     # the wrong rows, in order

    def test_drain_resets_period_but_not_window(self):
        m = mon.Monitor(small_cfg())
        m.observe(record([(1, 1)] * 9 + [(0, 1)], outcome="collision"))
        m.close_period(row_trace([1] * 10), True)
        assert m.stats.attempts == 0
        assert m.counts == [0, 0, 0, 0] and m.wrong_rows == []
        assert len(m.window) == 8            # window keeps rolling across periods
        assert m.total.attempts == 1         # and so do the run's totals

    def test_counterexample_labels_are_ground_truth(self):
        m = mon.Monitor(small_cfg())
        feed(m, [(0, 1)] * 10)
        _, ce = m.close_period(row_trace([1] * 10), True)
        assert set(ce.y.tolist()) == {1}

    def test_non_repairing_close_returns_no_counterexamples(self, tmp_path):
        # the same period, closed by a repairing and a non-repairing run: the
        # same failing clauses and periods.csv row, counterexamples only for
        # the repairing one
        closes = []
        for repairing in (True, False):
            m = mon.Monitor(small_cfg())
            rec = record([(1, 1)] * 6 + [(0, 1)] * 4, outcome="collision")
            m.observe(rec)
            m.log_trace_row(rec)
            closes.append(m.close_period(row_trace([1] * 10), repairing))
            (tmp_path / str(repairing)).mkdir()
            m.write_csvs(tmp_path / str(repairing))
        (reasons, ce), (quiet_reasons, quiet_ce) = closes
        assert reasons == quiet_reasons == frozenset({"accuracy", "safety"})
        assert len(ce) == 4 and len(quiet_ce) == 0
        assert quiet_ce.X.shape == (0, 5)
        periods = [(tmp_path / d / "periods.csv").read_text() for d in ("True", "False")]
        assert periods[0] == periods[1]
        assert len(periods[0].splitlines()) == 2
        flags = [(tmp_path / d / "monitor_trace.csv").read_text().splitlines()[-1][-1]
                 for d in ("True", "False")]
        assert flags == ["1", "0"]           # only a repair marks its row

    @given(st.lists(st.tuples(st.integers(0, 3), st.lists(st.integers(0, 1), max_size=7)),
                    max_size=30),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_period_counts_and_counterexamples_equal_recount(self, steps, seed):
        # steps of 0-7 queries after 0-3 absent rows, against a 5-query period:
        # the periods overshoot, and every one whose window accuracy fails
        # hands over its misclassified rows
        n = sum(gap + len(predictions) for gap, predictions in steps)
        trace = row_trace(np.random.default_rng(seed).integers(0, 2, n))
        m = mon.Monitor(small_cfg(t_monitor=5, d_window=3))
        row, period, correct = 0, [], []
        for gap, predictions in steps:
            row += gap
            obs = [(row + i, p, int(trace.label[row + i])) for i, p in enumerate(predictions)]
            row += len(predictions)
            m.observe(StepRecord("done", 10.0, 0, obs))
            period += obs
            correct += [p == t for _, p, t in obs]
            if m.at_period_boundary():
                assert m.counts == [sum((t, p) == cell for _, p, t in period)
                                    for cell in ((0, 0), (0, 1), (1, 0), (1, 1))]
                wrong = [r for r, p, t in period if p != t]
                reasons, ce = m.close_period(trace, True)
                assert reasons == (frozenset() if all(correct[-3:]) else {"accuracy"})
                expected = wrong if reasons else []
                assert ce.X[:, 0].tolist() == expected
                assert ce.y.tolist() == trace.label[expected].tolist()
                period = []


class TestTraceExport:
    def test_trace_csv(self, tmp_path):
        m = mon.Monitor(small_cfg())
        for i in range(3):
            rec = record([(1, 1)], i)
            m.observe(rec)
            m.log_trace_row(rec)
        m.write_csvs(tmp_path)
        lines = (tmp_path / "monitor_trace.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "step"
        assert len(lines) == 4
        assert (tmp_path / "steps.csv").read_text().splitlines() == [
            "step,outcome,elapsed,waits,queries",
            "1,done,10.0,0,1", "2,done,10.0,0,1", "3,done,10.0,0,1"]
        assert (tmp_path / "periods.csv").read_text().splitlines() == [
            "period,accuracy,safety_rate,mean_time"]

    def test_period_rows_are_the_boundary_decisions(self):
        m = mon.Monitor(small_cfg(t_monitor=2, d_window=1))
        trace = row_trace([1, 1, 0, 0, 0])
        decisions = []
        for rec in (record([(1, 1)], elapsed=10.0),
                    record([(0, 1)], 1, "collision", 20.0),
                    record([(1, 1), (0, 0), (1, 0)], 2, elapsed=12.0)):
            m.observe(rec)
            m.log_trace_row(rec)
            if m.at_period_boundary():
                decisions.append([m.period_accuracy(), m.stats.safety_rate,
                                  m.stats.mean_time])
                m.close_period(trace, False)
        assert m.periods == [[i] + d for i, d in enumerate(decisions)]
        assert m.periods == [[0, 0.5, 0.5, 15.0], [1, 2 / 3, 1.0, 12.0]]

    def test_row_is_the_steps_last_query(self):
        m = mon.Monitor(small_cfg())
        for rec in (record(), record([(1, 1), (0, 1)], elapsed=12.0)):
            m.observe(rec)
            m.log_trace_row(rec)
        assert m._trace == [[0, "", "", "", 1.0, 10.0, 0], [2, 0, 1, 0.5, 1.0, 11.0, 0]]

    def test_drain_marks_the_repair_row(self):
        m = mon.Monitor(small_cfg(t_monitor=3, d_window=3))
        trace = row_trace([1] * 6)
        for i in range(3):
            rec = record([(1, 1)], i)
            m.observe(rec)
            m.log_trace_row(rec)
        assert len(m.close_period(trace, True)[1]) == 0     # no misclassification
        for i in range(3, 6):
            rec = record([(0, 1)], i)
            m.observe(rec)
            m.log_trace_row(rec)
        assert len(m.close_period(trace, True)[1]) == 3
        assert [row[-1] for row in m._trace] == [0, 0, 0, 0, 0, 1]


class TestConfigValidation:
    def test_bad_period(self):
        with pytest.raises(mon.MonitorError):
            mon.MonitorConfig(t_monitor=0)

    def test_bad_threshold(self):
        with pytest.raises(mon.MonitorError):
            mon.MonitorConfig(threshold_1=1.5)

    @pytest.mark.parametrize("kwargs", [
        {"d_window": 0}, {"d_window": -3}, {"d_window": 2.5}, {"t_monitor": 2.5},
        {"time_bound": math.nan}],
        ids=["d_window_0", "d_window_-3", "d_window_2.5", "t_monitor_2.5", "time_bound_nan"])
    def test_rejected_when_built(self, kwargs):
        with pytest.raises(mon.MonitorError):
            mon.MonitorConfig(**kwargs)

    def test_defaults_match_operating_point(self):
        cfg = mon.MonitorConfig()
        assert (cfg.t_monitor, cfg.d_window) == (1250, 1000)
        assert (cfg.threshold_1, cfg.threshold_2) == (0.9, 0.8)
        assert (cfg.safety_bound, cfg.time_bound) == (0.9, 15.0)
