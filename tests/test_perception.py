import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colavoid import perception as pc


def make_dataset(n, rule, seed, role="train"):
    """Samples with label rule(x) on uniformly drawn in-range inputs."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        x = tuple(float(rng.uniform(lo, hi)) for lo, hi in pc.INPUT_RANGES)
        samples.append(pc.Sample(x, int(rule(x))))
    return pc.Dataset(samples, role)


def reference_train(init, train_set, val_set, cfg):
    """SGD as a loop over loss_and_gradients with a fresh MLPParams per
    minibatch; returns the snapshot with the lowest validation loss."""
    p = init
    rng = np.random.default_rng(cfg.seed)
    X, y = train_set.matrix()
    X = pc.standardize(X)
    X_val, y_val = val_set.matrix()
    X_val = pc.standardize(X_val)
    losses, snapshots = [], []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            _, gw, gb = pc.loss_and_gradients(p, X[batch], y[batch])
            p = pc.MLPParams(
                [w - cfg.learning_rate * g for w, g in zip(p.weights, gw)],
                [b - cfg.learning_rate * g for b, g in zip(p.biases, gb)])
        losses.append(pc.dataset_loss(p, X_val, y_val))
        snapshots.append(p)
    return snapshots[pc.best_epoch(losses)]


class TestStandardize:
    def test_range_endpoints_map_to_unit_interval(self):
        lo = [r[0] for r in pc.INPUT_RANGES]
        hi = [r[1] for r in pc.INPUT_RANGES]
        assert np.allclose(pc.standardize(lo), -1.0)
        assert np.allclose(pc.standardize(hi), 1.0)

    def test_midpoint_maps_to_zero(self):
        mid = [(a + b) / 2 for a, b in pc.INPUT_RANGES]
        assert np.allclose(pc.standardize(mid), 0.0)

    def test_batch_shape_preserved(self):
        X = np.zeros((7, 5))
        assert pc.standardize(X).shape == (7, 5)


class TestForward:
    def test_output_is_probability(self):
        params = pc.MLPParams.init_random(0)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = [rng.uniform(lo, hi) for lo, hi in pc.INPUT_RANGES]
            assert 0.0 < pc.forward(params, x) < 1.0

    def test_zero_params_give_half(self):
        params = pc.MLPParams.zeros()
        assert pc.forward(params, [0.0] * 5) == pytest.approx(0.5)

    def test_deterministic(self):
        params = pc.MLPParams.init_random(3)
        x = [1.0, 2.0, 3.0, 1.0, 0.1]
        assert pc.forward(params, x) == pc.forward(params, x)

    def test_non_finite_input_rejected(self):
        params = pc.MLPParams.init_random(0)
        with pytest.raises(pc.PerceptionError):
            pc.forward(params, [math.nan, 0, 0, 0, 0])

    def test_batch_agrees_with_single(self):
        params = pc.MLPParams.init_random(7)
        ds = make_dataset(20, lambda x: x[0] > 0, seed=1)
        X, _ = ds.matrix()
        batch = pc.MLPPredictor(params).predict_batch(X)
        single = [pc.MLPPredictor(params).predict(s.x) for s in ds]
        assert list(batch) == single


class TestGradients:
    def test_finite_difference_check(self):
        rng = np.random.default_rng(0)
        sizes = (5, 4, 3, 1)
        params = pc.MLPParams.init_random(0, sizes=sizes)
        X = rng.uniform(-1, 1, size=(6, 5))
        y = rng.integers(0, 2, size=6).astype(float)
        loss, gw, gb = pc.loss_and_gradients(params, X, y)
        h = 1e-6
        for layer in range(len(params.weights)):
            w = params.weights[layer]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                bumped = [np.array(m) for m in params.weights]
                bumped[layer][idx] += h
                plus = pc.MLPParams(bumped, params.biases)
                loss_plus, _, _ = pc.loss_and_gradients(plus, X, y)
                numeric = (loss_plus - loss) / h
                assert numeric == pytest.approx(gw[layer][idx], abs=1e-4)

    def test_bias_gradient_finite_difference(self):
        rng = np.random.default_rng(1)
        params = pc.MLPParams.init_random(1, sizes=(5, 4, 1))
        X = rng.uniform(-1, 1, size=(8, 5))
        y = rng.integers(0, 2, size=8).astype(float)
        loss, _, gb = pc.loss_and_gradients(params, X, y)
        h = 1e-6
        bumped = [np.array(b) for b in params.biases]
        bumped[0][0] += h
        plus = pc.MLPParams(params.weights, bumped)
        loss_plus, _, _ = pc.loss_and_gradients(plus, X, y)
        assert (loss_plus - loss) / h == pytest.approx(gb[0][0], abs=1e-4)

    def test_loss_matches_dataset_loss(self):
        params = pc.MLPParams.init_random(2)
        ds = make_dataset(30, lambda x: x[1] > 5, seed=2)
        X, y = ds.matrix()
        loss, _, _ = pc.loss_and_gradients(params, pc.standardize(X), y)
        assert loss == pytest.approx(pc.dataset_loss(params, pc.standardize(X), y))


class TestBestEpoch:
    def test_strict_minimum(self):
        assert pc.best_epoch([0.5, 0.3, 0.4]) == 1

    def test_tie_goes_to_earliest(self):
        assert pc.best_epoch([0.5, 0.3, 0.3, 0.3]) == 1

    def test_monotone_decrease_picks_last(self):
        assert pc.best_epoch([3.0, 2.0, 1.0]) == 2

    def test_empty_rejected(self):
        with pytest.raises(pc.PerceptionError):
            pc.best_epoch([])


class TestTrain:
    def test_learns_separable_rule(self):
        rule = lambda x: x[0] > 0.0
        train_set = make_dataset(600, rule, seed=10)
        val_set = make_dataset(200, rule, seed=11, role="val")
        cfg = pc.TrainConfig(epochs=30, seed=0)
        params = pc.train(0, train_set, val_set, cfg)
        test_set = make_dataset(300, rule, seed=12, role="test")
        from colavoid import uq
        assert uq.accuracy(pc.MLPPredictor(params), test_set) > 0.9

    def test_deterministic_given_seeds(self):
        rule = lambda x: x[1] > 5.0
        train_set = make_dataset(100, rule, seed=20)
        val_set = make_dataset(50, rule, seed=21, role="val")
        cfg = pc.TrainConfig(epochs=3, seed=4)
        a = pc.train(0, train_set, val_set, cfg)
        b = pc.train(0, train_set, val_set, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_returns_lowest_validation_snapshot(self):
        rule = lambda x: x[0] > 0.0
        train_set = make_dataset(200, rule, seed=30)
        val_set = make_dataset(80, rule, seed=31, role="val")
        cfg = pc.TrainConfig(epochs=10, seed=0)
        params = pc.train(0, train_set, val_set, cfg)
        # retrace the loss curve and confirm the returned snapshot attains it
        best = reference_train(pc.MLPParams.init_random(0), train_set, val_set, cfg)
        for wa, wb in zip(params.weights, best.weights):
            assert np.array_equal(wa, wb)

    def test_matches_reference_sgd_loop(self):
        # 150 samples leave a partial last batch; train must not write into
        # the snapshot it starts from
        rule = lambda x: x[0] + x[1] > 4.0
        train_set = make_dataset(150, rule, seed=40)
        val_set = make_dataset(60, rule, seed=41, role="val")
        cfg = pc.TrainConfig(learning_rate=0.2, epochs=6, seed=3)
        init = pc.MLPParams.init_random(5)
        init_weights = [w.copy() for w in init.weights]
        params = pc.train(init, train_set, val_set, cfg)
        best = reference_train(init, train_set, val_set, cfg)
        for a, b in zip(params.weights + params.biases, best.weights + best.biases):
            assert np.array_equal(a, b)
        for a, b in zip(init.weights, init_weights):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("learning_rate", [1e50, 1e100])
    def test_divergence_raises(self, learning_rate):
        rule = lambda x: x[0] > 0.0
        train_set = make_dataset(200, rule, seed=50)
        val_set = make_dataset(50, rule, seed=51, role="val")
        cfg = pc.TrainConfig(learning_rate=learning_rate, epochs=3, seed=0)
        with np.errstate(all="ignore"), pytest.raises(pc.PerceptionError, match="non-finite"):
            pc.train(0, train_set, val_set, cfg)

    def test_empty_sets_rejected(self):
        ds = make_dataset(10, lambda x: 0, seed=0)
        with pytest.raises(pc.PerceptionError):
            pc.train(0, pc.Dataset([], "train"), ds, pc.TrainConfig())
        with pytest.raises(pc.PerceptionError):
            pc.train(0, ds, pc.Dataset([], "val"), pc.TrainConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(pc.PerceptionError):
            pc.TrainConfig(learning_rate=0.0)
        with pytest.raises(pc.PerceptionError):
            pc.TrainConfig(epochs=0)


class TestParamsIO:
    def test_non_finite_rejected(self):
        with pytest.raises(pc.PerceptionError):
            pc.MLPParams([np.array([[math.inf]])], [np.zeros(1)])


class TestCounterexampleBookkeeping:
    @given(n=st.integers(1, 200), seed=st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_split_is_partition(self, n, seed):
        ce = make_dataset(n, lambda x: x[0] > 0, seed=seed, role="window")
        parts = pc.split_counterexamples(ce, (0.4, 0.2, 0.2, 0.2), seed=seed)
        assert sum(len(p) for p in parts) == n
        assert sorted(s.x for p in parts for s in p) == sorted(s.x for s in ce)
        assert tuple(p.role for p in parts) == pc.CE_ROLES

    def test_split_sizes_respect_ratios(self):
        ce = make_dataset(100, lambda x: 0, seed=1, role="window")
        parts = pc.split_counterexamples(ce, (0.4, 0.2, 0.2, 0.2), seed=0)
        assert [len(p) for p in parts] == [40, 20, 20, 20]

    def test_bad_ratios_rejected(self):
        ce = make_dataset(10, lambda x: 0, seed=0)
        with pytest.raises(pc.PerceptionError):
            pc.split_counterexamples(ce, (0.5, 0.5, 0.5, 0.5), seed=0)

    def test_merge_appends(self):
        a = make_dataset(5, lambda x: 0, seed=0, role="train")
        b = make_dataset(3, lambda x: 1, seed=1, role="train")
        merged = pc.merge_datasets(a, b)
        assert len(merged) == 8
        assert merged.samples[:5] == a.samples

    def test_merge_role_mismatch(self):
        a = make_dataset(2, lambda x: 0, seed=0, role="train")
        b = make_dataset(2, lambda x: 0, seed=0, role="val")
        with pytest.raises(pc.PerceptionError):
            pc.merge_datasets(a, b)

    @given(n=st.integers(1, 50), m=st.integers(1, 120), seed=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_sample_dataset_size_and_support(self, n, m, seed):
        src = make_dataset(n, lambda x: x[0] > 0, seed=seed)
        out = pc.sample_dataset(src, m, seed=seed)
        assert len(out) == m
        pool = set(s.x for s in src)
        assert all(s.x in pool for s in out)
        if m <= n:
            # without replacement: no duplicates beyond the source's own
            assert len(set(out.samples)) == len(out.samples)

    def test_sample_from_empty_rejected(self):
        with pytest.raises(pc.PerceptionError):
            pc.sample_dataset(pc.Dataset([], "train"), 3, seed=0)


class TestRandomGuess:
    def test_seeded_reproducibility(self):
        p1 = pc.RandomGuessPredictor(9)
        p2 = pc.RandomGuessPredictor(9)
        assert [p1.predict(None) for _ in range(20)] \
            == [p2.predict(None) for _ in range(20)]

    def test_roughly_balanced(self):
        p = pc.RandomGuessPredictor(0)
        outs = [p.predict(None) for _ in range(2000)]
        assert abs(sum(outs) - 1000) < 3 * math.sqrt(2000 * 0.25)
