import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colavoid import simenv
from colavoid.perception import INPUT_RANGES


class ScriptedPredictor:
    """Predicts the scripted outputs in turn, row by row of each batch."""

    def __init__(self, predictions):
        self.predictions = list(predictions)

    def predict_batch(self, X):
        return np.resize(self.predictions, len(X))


class OraclePredictor:
    """Predicts with the ground-truth oracle itself."""

    def __init__(self, oracle):
        self.oracle = oracle

    def predict_batch(self, X):
        return simenv.ground_truth_labels(X, self.oracle)


class ScriptedRuntime:
    """Minimal serving-predictor/move stub for world-stepping tests."""

    def __init__(self, predictions, move_probs=(1.0, 0.0)):
        self.predictor = ScriptedPredictor(predictions)
        self.move_probs = move_probs

    def move_probability(self, prediction):
        return self.move_probs[prediction]


class OracleRuntime(ScriptedRuntime):
    def __init__(self, oracle, move_probs=(1.0, 0.0)):
        self.predictor = OraclePredictor(oracle)
        self.move_probs = move_probs


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


def scalar_trace(n, p_collider, gen_seed, seed, mode="uniform", center=None,
                 eps=0.5, walk_scale=0.5, oracle=simenv.OracleConfig()):
    """The per-situation trace generator as it was written before the block
    draws: one presence draw and one generator step per situation, each
    state clipped to the input ranges value by value.  Returns (present, X,
    label) arrays."""
    rng = np.random.default_rng(seed)
    gen_rng = np.random.default_rng(gen_seed)
    lo, hi = np.array(INPUT_RANGES).T
    half = (hi - lo) / 2.0
    c = (lo + hi) / 2.0 if center is None else np.array(center)
    present, X = [], []
    for _ in range(n):
        present.append(bool(rng.random() < p_collider))
        if mode == "uniform":
            point = gen_rng.uniform(lo, hi)
        else:
            step = gen_rng.normal(0.0, walk_scale, size=5) * half
            c = np.clip(c + step, lo, hi)
            radius = eps * half
            point = np.clip(c + gen_rng.uniform(-radius, radius), lo, hi)
        X.append([float(min(max(v, a), b)) for v, (a, b) in zip(point, INPUT_RANGES)])
    X = np.array(X)
    return np.array(present), X, simenv.ground_truth_labels(X, oracle)


def head(trace, n):
    """The first n rows of a trace, as a trace of their own."""
    return simenv.Trace(trace.present[:n], trace.X[:n], trace.label[:n])


class TestEnvGenerator:
    def test_uniform_within_ranges(self):
        X = simenv.EnvGenerator(mode="uniform", seed=1).draw(100)
        assert X.shape == (100, 5)
        assert ((np.array(INPUT_RANGES)[:, 0] <= X) & (X <= np.array(INPUT_RANGES)[:, 1])).all()

    def test_random_walk_within_ranges(self):
        X = simenv.EnvGenerator(mode="random_walk", seed=2).draw(100)
        assert X.shape == (100, 5)
        assert ((np.array(INPUT_RANGES)[:, 0] <= X) & (X <= np.array(INPUT_RANGES)[:, 1])).all()

    def test_seeded_reproducibility(self):
        a = simenv.EnvGenerator(mode="random_walk", seed=3)
        b = simenv.EnvGenerator(mode="random_walk", seed=3)
        assert np.array_equal(a.draw(20), b.draw(20))
        assert np.array_equal(a.draw(7), b.draw(7))

    def test_walk_is_locally_correlated(self):
        # consecutive walk draws stay closer together than uniform draws
        walk = simenv.EnvGenerator(mode="random_walk", seed=4, walk_scale=0.05,
                                   eps=0.05)
        uni = simenv.EnvGenerator(mode="uniform", seed=4)

        def mean_jump(gen):
            return float(np.linalg.norm(np.diff(gen.draw(201), axis=0), axis=1).mean())

        assert mean_jump(walk) < mean_jump(uni)

    def test_unknown_mode_rejected(self):
        with pytest.raises(simenv.EnvError):
            simenv.EnvGenerator(mode="adversarial")

    @pytest.mark.parametrize("mode", ["uniform", "random_walk"])
    def test_blocks_split_anywhere(self, mode):
        whole = simenv.EnvGenerator(mode=mode, seed=5).draw(300)
        gen = simenv.EnvGenerator(mode=mode, seed=5)
        parts = np.concatenate([gen.draw(k) for k in (1, 0, 128, 171)])
        assert np.array_equal(parts, whole)


class TestBallSampleAndDatasets:
    def test_ball_sample_within_eps_and_clipped(self):
        rng = np.random.default_rng(0)
        c0 = simenv.ColliderState(9.5, 0.2, 0.1, 1.9, 0.0)
        for s in simenv.ball_sample(c0, 1.0, 200, rng):
            for v, v0, (lo, hi) in zip(s, c0.as_tuple(), INPUT_RANGES):
                assert lo <= v <= hi
                assert abs(v - v0) <= 1.0 + 1e-12

    def test_gen_initial_datasets_sizes_and_roles(self):
        out = simenv.gen_initial_datasets(
            simenv.ColliderState(0.0, 5.0, 3.0, 1.0, 0.0), 1.0,
            (40, 10, 10, 10), seed=5)
        assert [len(d) for d in out] == [40, 10, 10, 10]
        assert [d.X.shape for d in out] == [(40, 5), (10, 5), (10, 5), (10, 5)]

    def test_labels_match_oracle(self):
        oracle = simenv.OracleConfig(radius=simenv.CALIBRATED_RADIUS)
        out = simenv.gen_initial_datasets(
            simenv.ColliderState(0.0, 5.0, 3.0, 1.0, 0.0), 2.0,
            (30, 5, 5, 5), seed=6, oracle=oracle)
        assert out[0].y.tolist() == scalar_labels(out[0].X.tolist(), oracle)

    def test_zero_size_rejected(self):
        with pytest.raises(simenv.EnvError):
            simenv.gen_initial_datasets(
                simenv.ColliderState(0, 5, 3, 1, 0), 1.0, (0, 1, 1, 1), seed=0)


def assert_same_rows(trace, present, X, label):
    assert np.array_equal(trace.present, present)
    assert np.array_equal(trace.X, X)
    assert np.array_equal(trace.label, label)
    assert trace.present.dtype == bool and trace.label.dtype == np.int8
    assert trace.X.dtype == float and trace.held == len(present) == len(X) == len(label)


class TestTraces:
    def test_round_trip_preserves_hash(self, tmp_path):
        gen = simenv.EnvGenerator(mode="uniform", seed=11)
        entries = simenv.generate_trace(200, 0.8, gen, seed=12)
        path = tmp_path / "trace.csv"
        simenv.write_trace(path, entries)
        loaded = simenv.read_trace(path)
        assert simenv.trace_hash(loaded) == simenv.trace_hash(entries)
        assert_same_rows(loaded, entries.present, entries.X, entries.label)

    def test_file_format(self, tmp_path):
        # the CSV of the per-row writer: CRLF lines, floats as repr
        trace = simenv.Trace([True, False], [[0.1, 5.0, 1e-05, 1.0, -0.5],
                                             [-10.0, 0.0, 6.0, 2.0, 1.5]], [1, 0])
        path = tmp_path / "trace.csv"
        simenv.write_trace(path, trace)
        assert path.read_bytes() == (b"present,x1,x2,x3,x4,x5,label\r\n"
                                     b"1,0.1,5.0,1e-05,1.0,-0.5,1\r\n"
                                     b"0,-10.0,0.0,6.0,2.0,1.5,0\r\n")

    def test_hash_is_the_digest_of_the_array_bytes(self):
        trace = simenv.generate_trace(simenv.LABEL_CHUNK + 3, 0.5,
                                      simenv.EnvGenerator(seed=8), seed=9)
        data = bytes(trace.present.tolist())
        data += b"".join(struct.pack("<5d", *x) for x in trace.X.tolist())
        data += struct.pack(f"{trace.held}b", *trace.label.tolist())
        assert simenv.trace_hash(trace) == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("change", ["ulp", "label", "present"])
    def test_hash_sees_one_changed_row(self, change):
        trace = simenv.generate_trace(500, 0.5, simenv.EnvGenerator(seed=8), seed=9)
        before = simenv.trace_hash(trace)
        X, label, present = trace.X.copy(), trace.label.copy(), trace.present.copy()
        if change == "ulp":
            X[321, 3] = np.nextafter(X[321, 3], np.inf)
        elif change == "label":
            label[321] = 1 - label[321]
        else:
            present[321] = not present[321]
        changed = simenv.Trace(present, X, label)
        assert simenv.trace_hash(changed) != before
        assert simenv.trace_hash(simenv.Trace(trace.present, trace.X, trace.label)) == before

    def test_presence_rate_matches_p_collider(self):
        gen = simenv.EnvGenerator(mode="uniform", seed=13)
        entries = simenv.generate_trace(5000, 0.8, gen, seed=14)
        rate = entries.present.mean()
        assert abs(rate - 0.8) < 3 * math.sqrt(0.8 * 0.2 / 5000)

    def test_labels_match_oracle_across_chunks(self):
        n = simenv.LABEL_CHUNK + 50
        entries = simenv.generate_trace(n, 0.8, simenv.EnvGenerator(seed=3), seed=4)
        assert len(entries) == n
        assert entries.label.tolist() == scalar_labels(entries.X.tolist(),
                                                       simenv.OracleConfig())
        short = simenv.generate_trace(60, 0.8, simenv.EnvGenerator(seed=3), seed=4)
        assert simenv.trace_hash(short) == simenv.trace_hash(head(entries, 60))

    def test_same_seed_same_trace(self):
        a = simenv.generate_trace(50, 0.5, simenv.EnvGenerator(seed=1), seed=2)
        b = simenv.generate_trace(50, 0.5, simenv.EnvGenerator(seed=1), seed=2)
        assert simenv.trace_hash(a) == simenv.trace_hash(b)


class TestBlockDraws:
    """The block draws against the per-situation generator they replaced."""

    N = simenv.LABEL_CHUNK + 37          # crosses a chunk boundary

    @pytest.mark.parametrize("mode, kw", [
        ("uniform", {}),
        ("random_walk", {}),
        ("random_walk", {"center": (-0.442, 4.169, 1.461, 0.735, -0.42),
                         "eps": 0.1, "walk_scale": 0.05}),
    ])
    def test_matches_scalar_generator(self, mode, kw):
        oracle = simenv.OracleConfig(radius=simenv.CALIBRATED_RADIUS)
        center = kw.get("center")
        gen = simenv.EnvGenerator(
            mode=mode, seed=31, eps=kw.get("eps", 0.5),
            walk_scale=kw.get("walk_scale", 0.5),
            center=simenv.ColliderState(*center) if center else None)
        trace = simenv.generate_trace(self.N, 0.8, gen, seed=32, oracle=oracle)
        assert_same_rows(trace, *scalar_trace(self.N, 0.8, 31, 32, mode=mode,
                                              oracle=oracle, **kw))

    @pytest.mark.parametrize("mode", ["uniform", "random_walk"])
    def test_lazy_chunks_are_a_prefix_of_the_eager_trace(self, mode):
        n = 3 * simenv.LABEL_CHUNK + 11
        eager = simenv.generate_trace(n, 0.7, simenv.EnvGenerator(mode=mode, seed=5), 6)
        lazy = simenv.lazy_trace(n, 0.7, simenv.EnvGenerator(mode=mode, seed=5), 6)
        assert len(lazy) == n and lazy.held == 0
        for k in (1, 2):
            lazy.extend_to((k - 1) * simenv.LABEL_CHUNK + 1)
            rows = k * simenv.LABEL_CHUNK
            assert lazy.held == rows
            assert_same_rows(lazy, eager.present[:rows], eager.X[:rows],
                             eager.label[:rows])
            assert simenv.trace_hash(lazy) == simenv.trace_hash(head(eager, rows))
        lazy.extend_to(n)
        assert simenv.trace_hash(lazy) == simenv.trace_hash(eager)

    def test_lazy_trace_stops_at_its_cap(self):
        lazy = simenv.lazy_trace(10, 0.5, simenv.EnvGenerator(seed=1), 2)
        lazy.extend_to(10)
        assert lazy.held == 10
        with pytest.raises(simenv.TraceExhausted, match="10 rows"):
            lazy.extend_to(11)


class TestReadTrace:
    HEADER = "present,x1,x2,x3,x4,x5,label\n"
    GOOD = "1,0.5,5.0,1.0,1.0,0.0,1\n"

    def read(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        return path, lambda: simenv.read_trace(path)

    @pytest.mark.parametrize("text, message", [
        ("", "header"),
        ("present,x1,x2,x3,x4,x5\n" + GOOD, "header"),
        (HEADER + GOOD + "1,0.5,5.0,1.0,1.0,0.0\n", "row 2: 6 columns"),
        (HEADER + GOOD + GOOD + "1,0.5,5.0,1.0,1.0,0.0,1,0\n", "row 3: 8 columns"),
        (HEADER + "1,0.5,5.0,1.0,1.0,0.0\n" * 2, "row 1: 6 columns"),
        (HEADER + GOOD + "\n" + "  \n" + GOOD, "row 2: 1 columns"),
        (HEADER + "1,0.5,five,1.0,1.0,0.0,1\n", "row 1: non-numeric"),
        (HEADER + GOOD + "2,0.5,5.0,1.0,1.0,0.0,1\n", "row 2: .*present and label"),
        (HEADER + "1,0.5,5.0,1.0,1.0,0.0,0.5\n", "row 1: .*present and label"),
        (HEADER + GOOD * 3 + "0,0.5,nan,1.0,1.0,0.0,0\n", "row 4: .*finite"),
        (HEADER + GOOD + "1,0.5,5.0,inf,1.0,0.0,0\n", "row 2: .*finite"),
    ])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path, read = self.read(tmp_path, text)
        with pytest.raises(simenv.EnvError, match=message) as info:
            read()
        assert str(path) in str(info.value)

    def test_short_file_exhausts_with_path_and_size(self, tmp_path):
        path, read = self.read(tmp_path, self.HEADER + self.GOOD * 2)
        world = simenv.World(read())
        with pytest.raises(simenv.TraceExhausted) as info:
            world.step(ScriptedRuntime([1], move_probs=(1.0, 0.0)),
                       np.random.default_rng(0))
        assert str(path) in str(info.value) and "2 rows" in str(info.value)

    def test_header_only_file_is_an_empty_trace(self, tmp_path):
        _, read = self.read(tmp_path, self.HEADER)
        trace = read()
        assert len(trace) == 0 and trace.held == 0


class TestWorld:
    def trace(self, *rows):
        """A trace of (present, label) rows at a fixed state."""
        return simenv.Trace([p for p, _ in rows], [[0.0, 5.0, 0.0, 0.0, 0.0]] * len(rows),
                            [y for _, y in rows])

    def test_absent_collider_moves_freely(self):
        world = simenv.World(self.trace((False, 0)))
        rec = world.step(ScriptedRuntime([0]), np.random.default_rng(0))
        assert rec.outcome == "done"
        assert rec.elapsed == 10.0 and rec.waits == 0 and rec.observations == []

    def test_move_into_collider_collides(self):
        world = simenv.World(self.trace((True, 1)))
        rec = world.step(ScriptedRuntime([0], move_probs=(1.0, 0.0)),
                         np.random.default_rng(0))
        assert rec.outcome == "collision"
        assert rec.elapsed == 10.0

    def test_wait_redraws_the_situation(self):
        world = simenv.World(self.trace((True, 1), (True, 1), (False, 0)))
        rec = world.step(ScriptedRuntime([1], move_probs=(1.0, 0.0)),
                         np.random.default_rng(0))
        assert rec.outcome == "done"
        assert rec.waits == 2
        assert rec.elapsed == 2 * 2.0 + 10.0
        assert len(rec.observations) == 2
        assert world.cursor == 3

    def test_trace_exhaustion_reported(self):
        world = simenv.World(self.trace((True, 1)))
        with pytest.raises(simenv.TraceExhausted):
            world.step(ScriptedRuntime([1], move_probs=(1.0, 0.0)),
                       np.random.default_rng(0))
            world.step(ScriptedRuntime([1], move_probs=(1.0, 0.0)),
                       np.random.default_rng(0))

    def test_observations_carry_ground_truth(self):
        world = simenv.World(self.trace((True, 1), (False, 0)))
        rec = world.step(ScriptedRuntime([1], move_probs=(1.0, 0.0)),
                         np.random.default_rng(0))
        assert rec.observations[0][1] == 1     # prediction
        assert rec.observations[0][2] == 1     # truth
        row = rec.observations[0][0]
        assert world.trace.X[row].tolist() == [0.0, 5.0, 0.0, 0.0, 0.0]

    def test_observations_are_python_values(self):
        # the monitor and the artifacts see the same types as a per-row replay
        world = simenv.World(self.trace((True, 1), (True, 0), (False, 0)))
        rec = world.step(ScriptedRuntime([1], move_probs=(1.0, 0.0)),
                         np.random.default_rng(0))
        for row, prediction, label in rec.observations:
            assert type(row) is int and type(prediction) is int and type(label) is int

    def test_observations_are_the_present_rows_consumed(self):
        # absent rows end a step and are no query; waits re-draw the situation
        world = simenv.World(self.trace((True, 1), (False, 0), (True, 0), (True, 1),
                                        (False, 0)))
        rt = ScriptedRuntime([1, 1, 1, 0, 1], move_probs=(1.0, 0.0))   # row 3 moves
        steps = [world.step(rt, np.random.default_rng(0)) for _ in range(3)]
        assert [[row for row, _, _ in rec.observations] for rec in steps] == [[0], [2, 3], []]
        assert [rec.outcome for rec in steps] == ["done", "collision", "done"]
        assert [label for rec in steps for _, _, label in rec.observations] == \
            world.trace.label[[0, 2, 3]].tolist()

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

    def test_lazy_trace_draws_chunks_as_reached(self):
        lazy = simenv.lazy_trace(2 * simenv.LABEL_CHUNK, 1.0, simenv.EnvGenerator(seed=4), 5)
        world = simenv.World(lazy)
        rt = ScriptedRuntime([1], move_probs=(0.0, 0.0))      # never moves
        with pytest.raises(simenv.TraceExhausted):
            world.step(rt, np.random.default_rng(0))
        assert world.cursor == lazy.held == len(lazy) == 2 * simenv.LABEL_CHUNK
