import math

import pytest
from hypothesis import given, settings, strategies as st

from colavoid import monitor as mon


def obs(step, prediction=0, truth=0, x=None):
    return mon.Observation(x=x or (float(step), 0.0, 0.0, 0.0, 0.0),
                           prediction=prediction, truth=truth, step=step)


def small_cfg(**kw):
    defaults = dict(t_monitor=10, d_window=8, threshold_1=0.9, threshold_2=0.8,
                    safety_bound=0.9, time_bound=15.0)
    defaults.update(kw)
    return mon.MonitorConfig(**defaults)


class TestSlidingWindow:
    def test_eviction_is_oldest_first(self):
        w = mon.SlidingWindow(3)
        for i in range(5):
            w.append(obs(i))
        assert [o.step for o in w] == [2, 3, 4]

    def test_out_of_order_rejected(self):
        w = mon.SlidingWindow(3)
        w.append(obs(5))
        with pytest.raises(mon.MonitorError, match="out-of-order"):
            w.append(obs(5))

    def test_accuracy(self):
        w = mon.SlidingWindow(4)
        w.append(obs(0, 1, 1))
        w.append(obs(1, 0, 1))
        w.append(obs(2, 0, 0))
        w.append(obs(3, 1, 0))
        assert w.accuracy() == 0.5

    def test_empty_accuracy_undefined(self):
        with pytest.raises(mon.MonitorError):
            mon.SlidingWindow(2).accuracy()

    def test_is_full(self):
        w = mon.SlidingWindow(2)
        assert not w.is_full()
        w.append(obs(0))
        w.append(obs(1))
        assert w.is_full()

    def test_zero_capacity_rejected(self):
        with pytest.raises(mon.MonitorError):
            mon.SlidingWindow(0)

    @given(st.integers(1, 20), st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_length_never_exceeds_capacity(self, cap, n):
        w = mon.SlidingWindow(cap)
        for i in range(n):
            w.append(obs(i))
        assert len(w) == min(cap, n)

    @given(st.integers(1, 12), st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                                        min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_running_accuracy_equals_recount(self, cap, pairs):
        w = mon.SlidingWindow(cap)
        for i, (prediction, truth) in enumerate(pairs):
            w.append(obs(i, prediction, truth))
            recount = sum(1 for o in w if o.prediction == o.truth) / len(w)
            assert w.accuracy() == recount

    def test_rejected_append_keeps_count(self):
        w = mon.SlidingWindow(1)
        w.append(obs(3, 1, 1))
        with pytest.raises(mon.MonitorError):
            w.append(obs(2, 0, 1))
        assert w.accuracy() == 1.0
        w.append(obs(4, 0, 1))
        assert w.accuracy() == 0.0


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

    def test_empty_defaults(self):
        s = mon.RunningStats()
        assert s.safety_rate == 1.0 and s.mean_time == 0.0


class TestRepairDecision:
    def fill(self, m, correct, wrong, start=0):
        step = start
        for _ in range(correct):
            m.observe(obs(step, 1, 1))
            step += 1
        for _ in range(wrong):
            m.observe(obs(step, 1, 0))
            step += 1
        return step

    def test_no_repair_when_all_clauses_hold(self):
        m = mon.Monitor(small_cfg())
        self.fill(m, 10, 0)
        m.record_outcome(False, 10.0)
        decision = m.evaluate()
        assert not decision.repair and decision.reasons == frozenset()

    def test_accuracy_clause(self):
        m = mon.Monitor(small_cfg())
        self.fill(m, 8, 2)
        decision = m.evaluate()
        assert decision.repair and "accuracy" in decision.reasons
        assert decision.accuracy == pytest.approx(6 / 8)  # window holds last 8

    def test_safety_clause(self):
        m = mon.Monitor(small_cfg())
        self.fill(m, 10, 0)
        for collided in (True, False, False, False):
            m.record_outcome(collided, 10.0)
        decision = m.evaluate()
        assert decision.repair and decision.reasons == frozenset({"safety"})

    def test_time_clause(self):
        m = mon.Monitor(small_cfg())
        self.fill(m, 10, 0)
        m.record_outcome(False, 20.0)
        decision = m.evaluate()
        assert decision.repair and decision.reasons == frozenset({"time"})

    def test_boundary_thresholds_do_not_fire(self):
        # exactly at the threshold: >= accuracy, >= safety, <= time are fine
        cfg = small_cfg(threshold_1=0.875)
        m = mon.Monitor(cfg)
        self.fill(m, 7, 1)
        m.record_outcome(False, 15.0)
        decision = m.evaluate()
        assert not decision.repair

    def test_partial_window_is_skipped(self):
        m = mon.Monitor(small_cfg(d_window=100))
        self.fill(m, 10, 0)
        decision = m.evaluate()
        assert decision.skipped and not decision.repair
        assert math.isnan(decision.accuracy)

    def test_empty_period_accuracy_is_nan(self):
        assert math.isnan(mon.Monitor(small_cfg()).evaluate().period_accuracy)

    def test_period_accuracy_on_overshooting_and_skipped_periods(self):
        m = mon.Monitor(small_cfg(d_window=20))
        step = self.fill(m, 9, 4)            # 13 queries: overshoots the 10 mark
        assert m.at_period_boundary()
        d = m.evaluate()
        assert d.skipped and math.isnan(d.accuracy)
        assert d.period_accuracy == 9 / 13
        m.reset_period()
        self.fill(m, 2, 5, start=step)       # next boundary is at 20 queries
        assert m.at_period_boundary()
        assert m.evaluate().period_accuracy == 2 / 7

    @given(st.lists(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                             max_size=7), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_period_accuracy_equals_recount(self, steps):
        # steps of 0-7 queries against a 5-query period, driven as the harness
        # drives the monitor, so periods overshoot and early ones are skipped
        m = mon.Monitor(small_cfg(t_monitor=5, d_window=12))
        period = []
        for queries in steps:
            for prediction, truth in queries:
                m.observe(obs(m.queries + 1, prediction, truth))
                period.append(prediction == truth)
            if m.at_period_boundary():
                d = m.evaluate()
                assert d.period_accuracy == sum(period) / len(period)
                assert d.skipped == (m.queries < 12)
                m.reset_period()
                period = []


class TestPeriods:
    def test_boundary_detection(self):
        m = mon.Monitor(small_cfg())
        for i in range(9):
            m.observe(obs(i))
        assert not m.at_period_boundary()
        m.observe(obs(9))
        assert m.at_period_boundary()

    def test_overshoot_still_counts_as_boundary(self):
        m = mon.Monitor(small_cfg())
        for i in range(13):                  # overshoot past the 10-query mark
            m.observe(obs(i))
        assert m.at_period_boundary()
        m.reset_period()
        assert not m.at_period_boundary()
        for i in range(13, 20):
            m.observe(obs(i))
        assert m.at_period_boundary()        # next boundary is at 20 queries

    def test_drain_outside_boundary_rejected(self):
        m = mon.Monitor(small_cfg())
        m.observe(obs(0))
        with pytest.raises(mon.MonitorError, match="period"):
            m.drain_counterexamples()

    def test_drain_returns_misclassified_only(self):
        m = mon.Monitor(small_cfg())
        for i in range(10):
            m.observe(obs(i, prediction=i % 2, truth=0))
        ce = m.drain_counterexamples()
        assert len(ce) == 5
        assert ce.y.tolist() == [0] * 5
        assert ce.X.shape == (5, 5)

    def test_drain_resets_stats_but_not_window(self):
        m = mon.Monitor(small_cfg())
        for i in range(10):
            m.observe(obs(i, 1, 1))
        m.record_outcome(True, 10.0)
        m.drain_counterexamples()
        assert m.stats.attempts == 0
        assert len(m.window) == 8            # window keeps rolling across periods

    def test_counterexample_labels_are_ground_truth(self):
        m = mon.Monitor(small_cfg())
        for i in range(10):
            m.observe(obs(i, prediction=0, truth=1))
        ce = m.drain_counterexamples()
        assert set(ce.y.tolist()) == {1}


class TestTraceExport:
    def test_trace_csv(self, tmp_path):
        m = mon.Monitor(small_cfg())
        for i in range(3):
            m.observe(obs(i, 1, 1))
            m.log_trace_row(i, 1, 1)
        path = tmp_path / "trace.csv"
        m.write_trace(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "step"
        assert len(lines) == 4

    def test_drain_marks_the_repair_row(self):
        m = mon.Monitor(small_cfg(t_monitor=3))
        for i in range(3):
            m.observe(obs(i, 1, 1))
            m.log_trace_row(i, 1, 1)
        assert len(m.drain_counterexamples()) == 0      # no misclassification
        for i in range(3, 6):
            m.observe(obs(i, 0, 1))
            m.log_trace_row(i, 0, 1)
        assert len(m.drain_counterexamples()) == 3
        assert [row[-1] for row in m._trace] == [0, 0, 0, 0, 0, 1]


class TestConfigValidation:
    def test_bad_period(self):
        with pytest.raises(mon.MonitorError):
            mon.MonitorConfig(t_monitor=0)

    def test_bad_threshold(self):
        with pytest.raises(mon.MonitorError):
            mon.MonitorConfig(threshold_1=1.5)

    def test_defaults_match_operating_point(self):
        cfg = mon.MonitorConfig()
        assert (cfg.t_monitor, cfg.d_window) == (1250, 1000)
        assert (cfg.threshold_1, cfg.threshold_2) == (0.9, 0.8)
        assert (cfg.safety_bound, cfg.time_bound) == (0.9, 15.0)
