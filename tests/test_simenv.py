import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colavoid import simenv
from colavoid.perception import INPUT_RANGES


class ScriptedRuntime:
    """Minimal predict/move stub for world-stepping tests."""

    def __init__(self, predictions, move_probs=(1.0, 0.0)):
        self.predictions = list(predictions)
        self.move_probs = move_probs
        self.i = 0

    def predict(self, x):
        out = self.predictions[self.i % len(self.predictions)]
        self.i += 1
        return out

    def move_probability(self, prediction):
        return self.move_probs[prediction]


class OracleRuntime(ScriptedRuntime):
    """Predicts with the ground-truth oracle itself."""

    def __init__(self, oracle, move_probs=(1.0, 0.0)):
        self.oracle = oracle
        self.move_probs = move_probs

    def predict(self, x):
        return simenv.ground_truth_label(simenv.ColliderState(*x), self.oracle)


class TestOracle:
    def test_stationary_collider_on_path(self):
        # sits directly on the robot's path; the robot reaches it at t = 5
        c = simenv.ColliderState(0.0, 5.0, 0.0, 0.0, 0.0)
        assert simenv.ground_truth_label(c) == 1

    def test_far_lateral_collider_is_safe(self):
        c = simenv.ColliderState(9.0, 9.0, 0.0, 0.0, 0.0)
        assert simenv.ground_truth_label(c) == 0

    def test_crossing_collider(self):
        # starts left of the path heading right at matched timing
        c = simenv.ColliderState(-5.0, 5.0, 0.0, 1.0, 0.0)
        assert simenv.ground_truth_label(c) == 1

    def test_fleeing_collider_is_safe(self):
        # ahead of the robot and moving straight up faster than it
        c = simenv.ColliderState(0.0, 5.0, math.pi / 2, 2.0, 0.0)
        cfg = simenv.OracleConfig(radius=1.5)
        assert simenv.ground_truth_label(c, cfg) == 0

    def test_label_monotone_in_radius(self):
        rng = np.random.default_rng(0)
        lo = [r[0] for r in INPUT_RANGES]
        hi = [r[1] for r in INPUT_RANGES]
        for _ in range(50):
            c = simenv.ColliderState(*(rng.uniform(a, b) for a, b in zip(lo, hi)))
            small = simenv.ground_truth_label(c, simenv.OracleConfig(radius=1.0))
            large = simenv.ground_truth_label(c, simenv.OracleConfig(radius=3.0))
            assert large >= small

    def test_calibrated_radius_hits_target_rate(self):
        rng = np.random.default_rng(99)
        lo = [r[0] for r in INPUT_RANGES]
        hi = [r[1] for r in INPUT_RANGES]
        cfg = simenv.OracleConfig(radius=simenv.CALIBRATED_RADIUS)
        labels = [simenv.ground_truth_label(
            simenv.ColliderState(*(rng.uniform(a, b) for a, b in zip(lo, hi))), cfg)
            for _ in range(2000)]
        assert 0.20 <= sum(labels) / len(labels) <= 0.30

    def test_bad_config_rejected(self):
        with pytest.raises(simenv.EnvError):
            simenv.OracleConfig(dt=0.0)
        with pytest.raises(simenv.EnvError):
            simenv.OracleConfig(radius=-1.0)


STATES = st.tuples(*(st.floats(lo, hi, allow_nan=False, allow_infinity=False)
                      for lo, hi in INPUT_RANGES))
ORACLES = (simenv.OracleConfig(),
           simenv.OracleConfig(radius=simenv.CALIBRATED_RADIUS),
           simenv.OracleConfig(dt=0.25, horizon=7.0, radius=0.8))


def scalar_labels(rows, cfg):
    return [simenv.ground_truth_label(simenv.ColliderState(*r), cfg) for r in rows]


def at_radius(cfg, angles, ulps):
    """States whose distance from the robot at t = 0 is the radius, nudged
    by a whole number of ulps, that then move with the given heading."""
    rows = []
    for a in angles:
        for k in ulps:
            x1 = cfg.radius * math.cos(a)
            x2 = cfg.radius * math.sin(a)
            for _ in range(abs(k)):
                x2 = float(np.nextafter(x2, math.inf if k > 0 else -math.inf))
            rows.append((x1, x2, a, 1.0, 0.3))
    return rows


class TestBatchedOracle:
    @given(st.lists(STATES, min_size=1, max_size=40), st.sampled_from(ORACLES))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle(self, rows, cfg):
        assert simenv.ground_truth_labels(rows, cfg).tolist() == scalar_labels(rows, cfg)

    @given(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=20),
           st.sampled_from(ORACLES))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_oracle_at_the_radius(self, angles, cfg):
        rows = at_radius(cfg, angles, ulps=range(-3, 4))
        assert simenv.ground_truth_labels(rows, cfg).tolist() == scalar_labels(rows, cfg)

    def test_dense_radius_sweep(self):
        # np.hypot and math.hypot differ by an ulp on some of these states
        for cfg in ORACLES:
            rows = at_radius(cfg, np.linspace(0.0, math.pi, 400), ulps=range(-2, 3))
            assert simenv.ground_truth_labels(rows, cfg).tolist() == scalar_labels(rows, cfg)

    def test_uniform_sample(self):
        rng = np.random.default_rng(5)
        lo, hi = np.array(INPUT_RANGES).T
        X = rng.uniform(lo, hi, size=(3000, 5))
        cfg = ORACLES[1]
        assert simenv.ground_truth_labels(X, cfg).tolist() == scalar_labels(X.tolist(), cfg)

    def test_empty_input(self):
        assert len(simenv.ground_truth_labels(np.empty((0, 5)))) == 0


class TestCalibrateRadius:
    def test_bisection_reaches_tolerance(self):
        radius, rate = simenv.calibrate_radius(target=0.25, tol=0.02, n=2000,
                                               seed=7)
        assert abs(rate - 0.25) <= 0.02
        assert 0.05 < radius < 6.0

    def test_matches_scalar_bisection(self):
        # the bisection as it was written over the scalar oracle
        target, tol, n = 0.3, 0.005, 1500
        rng = np.random.default_rng(3)
        lo_b, hi_b = np.array(INPUT_RANGES).T
        states = [simenv.ColliderState(*p) for p in rng.uniform(lo_b, hi_b, size=(n, 5))]
        lo, hi = 0.05, 6.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            cfg = simenv.OracleConfig(radius=mid)
            r = sum(simenv.ground_truth_label(s, cfg) for s in states) / n
            if abs(r - target) <= tol:
                break
            lo, hi = (mid, hi) if r < target else (lo, mid)
        assert simenv.calibrate_radius(target=target, tol=tol, n=n, seed=3) == (mid, r)


class TestEnvGenerator:
    def test_uniform_within_ranges(self):
        gen = simenv.EnvGenerator(mode="uniform", seed=1)
        for _ in range(100):
            c = gen.next_input()
            for v, (lo, hi) in zip(c.as_tuple(), INPUT_RANGES):
                assert lo <= v <= hi

    def test_random_walk_within_ranges(self):
        gen = simenv.EnvGenerator(mode="random_walk", seed=2)
        for _ in range(100):
            c = gen.next_input()
            for v, (lo, hi) in zip(c.as_tuple(), INPUT_RANGES):
                assert lo <= v <= hi

    def test_seeded_reproducibility(self):
        a = simenv.EnvGenerator(mode="random_walk", seed=3)
        b = simenv.EnvGenerator(mode="random_walk", seed=3)
        for _ in range(20):
            assert a.next_input() == b.next_input()

    def test_walk_is_locally_correlated(self):
        # consecutive walk draws stay closer together than uniform draws
        walk = simenv.EnvGenerator(mode="random_walk", seed=4, walk_scale=0.05,
                                   eps=0.05)
        uni = simenv.EnvGenerator(mode="uniform", seed=4)

        def mean_jump(gen):
            prev = np.array(gen.next_input().as_tuple())
            total = 0.0
            for _ in range(200):
                cur = np.array(gen.next_input().as_tuple())
                total += float(np.linalg.norm(cur - prev))
                prev = cur
            return total / 200

        assert mean_jump(walk) < mean_jump(uni)

    def test_unknown_mode_rejected(self):
        with pytest.raises(simenv.EnvError):
            simenv.EnvGenerator(mode="adversarial")


class TestBallSampleAndDatasets:
    def test_ball_sample_within_eps_and_clipped(self):
        rng = np.random.default_rng(0)
        c0 = simenv.ColliderState(9.5, 0.2, 0.1, 1.9, 0.0)
        for s in simenv.ball_sample(c0, 1.0, 200, rng):
            for v, v0, (lo, hi) in zip(s.as_tuple(), c0.as_tuple(), INPUT_RANGES):
                assert lo <= v <= hi
                assert abs(v - v0) <= 1.0 + 1e-12

    def test_gen_initial_datasets_sizes_and_roles(self):
        out = simenv.gen_initial_datasets(
            simenv.ColliderState(0.0, 5.0, 3.0, 1.0, 0.0), 1.0,
            (40, 10, 10, 10), seed=5)
        assert [d.role for d in out] == ["train", "val", "confusion", "test"]
        assert [len(d) for d in out] == [40, 10, 10, 10]

    def test_labels_match_oracle(self):
        oracle = simenv.OracleConfig(radius=simenv.CALIBRATED_RADIUS)
        out = simenv.gen_initial_datasets(
            simenv.ColliderState(0.0, 5.0, 3.0, 1.0, 0.0), 2.0,
            (30, 5, 5, 5), seed=6, oracle=oracle)
        for s in out[0]:
            assert s.y == simenv.ground_truth_label(
                simenv.ColliderState(*s.x), oracle)

    def test_zero_size_rejected(self):
        with pytest.raises(simenv.EnvError):
            simenv.gen_initial_datasets(
                simenv.ColliderState(0, 5, 3, 1, 0), 1.0, (0, 1, 1, 1), seed=0)


class TestTraces:
    def test_round_trip_preserves_hash(self, tmp_path):
        gen = simenv.EnvGenerator(mode="uniform", seed=11)
        entries = simenv.generate_trace(200, 0.8, gen, seed=12)
        path = tmp_path / "trace.csv"
        simenv.write_trace(path, entries)
        loaded = simenv.read_trace(path)
        assert simenv.trace_hash(loaded) == simenv.trace_hash(entries)

    def test_presence_rate_matches_p_collider(self):
        gen = simenv.EnvGenerator(mode="uniform", seed=13)
        entries = simenv.generate_trace(5000, 0.8, gen, seed=14)
        rate = sum(e.present for e in entries) / len(entries)
        assert abs(rate - 0.8) < 3 * math.sqrt(0.8 * 0.2 / 5000)

    def test_labels_match_oracle_across_chunks(self):
        n = simenv.LABEL_CHUNK + 50
        entries = simenv.generate_trace(n, 0.8, simenv.EnvGenerator(seed=3), seed=4)
        assert len(entries) == n
        assert [e.label for e in entries] == [
            simenv.ground_truth_label(e.state) for e in entries]
        assert all(type(e.label) is int for e in entries)
        short = simenv.generate_trace(60, 0.8, simenv.EnvGenerator(seed=3), seed=4)
        assert simenv.trace_hash(short) == simenv.trace_hash(entries[:60])

    def test_same_seed_same_trace(self):
        a = simenv.generate_trace(50, 0.5, simenv.EnvGenerator(seed=1), seed=2)
        b = simenv.generate_trace(50, 0.5, simenv.EnvGenerator(seed=1), seed=2)
        assert simenv.trace_hash(a) == simenv.trace_hash(b)


class TestWorld:
    def entry(self, present, label, x1=0.0):
        state = simenv.ColliderState(x1, 5.0, 0.0, 0.0, 0.0)
        return simenv.TraceEntry(present, state, label)

    def test_absent_collider_moves_freely(self):
        world = simenv.World([self.entry(False, 0)])
        rec = world.step(ScriptedRuntime([0]), np.random.default_rng(0))
        assert rec.outcome == "done"
        assert rec.elapsed == 10.0 and rec.waits == 0 and rec.queries == 0

    def test_move_into_collider_collides(self):
        world = simenv.World([self.entry(True, 1)])
        rec = world.step(ScriptedRuntime([0], move_probs=(1.0, 0.0)),
                         np.random.default_rng(0))
        assert rec.outcome == "collision"
        assert rec.elapsed == 10.0

    def test_wait_redraws_the_situation(self):
        trace = [self.entry(True, 1), self.entry(True, 1), self.entry(False, 0)]
        world = simenv.World(trace)
        rec = world.step(ScriptedRuntime([1], move_probs=(1.0, 0.0)),
                         np.random.default_rng(0))
        assert rec.outcome == "done"
        assert rec.waits == 2
        assert rec.elapsed == 2 * 2.0 + 10.0
        assert rec.queries == 2

    def test_trace_exhaustion_reported(self):
        world = simenv.World([self.entry(True, 1)])
        with pytest.raises(simenv.TraceExhausted):
            world.step(ScriptedRuntime([1], move_probs=(1.0, 0.0)),
                       np.random.default_rng(0))
            world.step(ScriptedRuntime([1], move_probs=(1.0, 0.0)),
                       np.random.default_rng(0))

    def test_observations_carry_ground_truth(self):
        trace = [self.entry(True, 1), self.entry(False, 0)]
        world = simenv.World(trace)
        rec = world.step(ScriptedRuntime([1], move_probs=(1.0, 0.0)),
                         np.random.default_rng(0))
        assert rec.observations[0][1] == 1     # prediction
        assert rec.observations[0][2] == 1     # truth

    def test_perfect_perception_never_collides(self):
        oracle = simenv.OracleConfig(radius=simenv.CALIBRATED_RADIUS)
        gen = simenv.EnvGenerator(mode="uniform", seed=21)
        trace = simenv.generate_trace(3000, 0.8, gen, seed=22, oracle=oracle)
        world = simenv.World(trace)
        runtime = OracleRuntime(oracle, move_probs=(1.0, 0.0))
        rng = np.random.default_rng(23)
        outcomes = []
        try:
            for _ in range(200):
                outcomes.append(world.step(runtime, rng).outcome)
        except simenv.TraceExhausted:
            pass
        assert outcomes and all(o == "done" for o in outcomes)


class TestColliderState:
    def test_clipped_respects_ranges(self):
        c = simenv.ColliderState.clipped((100.0, -5.0, 100.0, 3.0, -3.0))
        for v, (lo, hi) in zip(c.as_tuple(), INPUT_RANGES):
            assert lo <= v <= hi

    def test_clipped_values_are_plain_floats(self):
        c = simenv.ColliderState.clipped(np.array([0.5, 5.0, 1.0, 1.0, 0.0]))
        assert all(type(v) is float for v in c.as_tuple())
