import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colavoid import perception as pc
from oracles import loss_and_gradients


def make_dataset(n, rule, seed):
    """Labels rule(x) on uniformly drawn in-range inputs."""
    rng = np.random.default_rng(seed)
    xs = [tuple(float(rng.uniform(lo, hi)) for lo, hi in pc.INPUT_RANGES)
          for _ in range(n)]
    return pc.Dataset(xs, [int(rule(x)) for x in xs])


def pairs(ds):
    """The dataset's (input, label) pairs."""
    return list(zip(map(tuple, ds.X.tolist()), ds.y.tolist()))


def reference_train(init, train_set, val_set, cfg):
    """SGD as a loop over loss_and_gradients with a fresh MLPParams per
    minibatch; returns the snapshot with the lowest validation loss."""
    p = init
    rng = np.random.default_rng(cfg.seed)
    X, y = pc.standardize(train_set.X), train_set.y.astype(float)
    X_val, y_val = pc.standardize(val_set.X), val_set.y.astype(float)
    losses, snapshots = [], []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            _, gw, gb = loss_and_gradients(p, X[batch], y[batch])
            p = pc.MLPParams(
                [w - cfg.learning_rate * g for w, g in zip(p.weights, gw)],
                [b - cfg.learning_rate * g for b, g in zip(p.biases, gb)])
        losses.append(pc.dataset_loss(p, X_val, y_val))
        snapshots.append(p)
    return snapshots[losses.index(min(losses))]      # ties: the earliest epoch


class TestDataset:
    @pytest.mark.parametrize("labels, row, message", [
        ([1, 0.7, 0], 1, "label 0.7 is not 0 or 1"),
        ([0, 1, 2], 2, "label 2 is not 0 or 1"),
        ([300, 0, 1], 0, "label 300 is not 0 or 1"),
        ([1, -1, 0], 1, "label -1 is not 0 or 1"),
        ([0, math.nan, 1], 1, "label nan is not 0 or 1")],
        ids=["fraction", "two", "int8_overflow", "minus_one", "nan"])
    def test_label_other_than_0_or_1_rejected(self, labels, row, message):
        with pytest.raises(pc.PerceptionError, match=f"^row {row}: {message}$"):
            pc.Dataset(np.zeros((3, 5)), labels)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        X = np.zeros((4, 5))
        X[2, 3] = bad
        X[3, 0] = bad
        with pytest.raises(pc.PerceptionError, match=r"^row 2: non-finite input"):
            pc.Dataset(X, [0, 1, 0, 2])

    def test_first_bad_row_named(self):
        X = np.zeros((3, 5))
        X[2, 0] = math.nan
        with pytest.raises(pc.PerceptionError, match="^row 1: label 5"):
            pc.Dataset(X, [0, 5, 1])

    def test_labels_kept_as_int8(self):
        ds = pc.Dataset(np.zeros((4, 5)), [0, 1.0, True, False])
        assert ds.y.dtype == np.int8 and ds.y.tolist() == [0, 1, 1, 0]


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
            assert 0.0 < pc.forward(params, x)[0] < 1.0

    def test_zero_params_give_half(self):
        sizes = pc.LAYER_SIZES
        params = pc.MLPParams([np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])],
                              [np.zeros(b) for b in sizes[1:]])
        assert pc.forward(params, [0.0] * 5)[0] == pytest.approx(0.5)

    def test_deterministic(self):
        params = pc.MLPParams.init_random(3)
        x = [1.0, 2.0, 3.0, 1.0, 0.1]
        assert pc.forward(params, x)[0] == pc.forward(params, x)[0]

    def test_non_finite_input_rejected(self):
        params = pc.MLPParams.init_random(0)
        with pytest.raises(pc.PerceptionError):
            pc.forward(params, [math.nan, 0, 0, 0, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_batch_row_rejected(self, bad):
        # one bad row among good ones; NaN >= 0.5 would read as class 0
        X = np.tile([1.0, 2.0, 3.0, 1.0, 0.1], (6, 1))
        X[4, 2] = bad
        with pytest.raises(pc.PerceptionError, match="non-finite input"):
            pc.MLPPredictor(pc.MLPParams.init_random(0)).predict_batch(X)

    def test_batch_agrees_with_single(self):
        params = pc.MLPParams.init_random(7)
        ds = make_dataset(20, lambda x: x[0] > 0, seed=1)
        batch = pc.MLPPredictor(params).predict_batch(ds.X)
        single = [pc.MLPPredictor(params).predict(x) for x in ds.X.tolist()]
        assert list(batch) == single


class TestGradients:
    def test_finite_difference_check(self):
        rng = np.random.default_rng(0)
        sizes = (5, 4, 3, 1)
        params = pc.MLPParams.init_random(0, sizes=sizes)
        X = rng.uniform(-1, 1, size=(6, 5))
        y = rng.integers(0, 2, size=6).astype(float)
        loss, gw, gb = loss_and_gradients(params, X, y)
        h = 1e-6
        for layer in range(len(params.weights)):
            w = params.weights[layer]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                bumped = [np.array(m) for m in params.weights]
                bumped[layer][idx] += h
                plus = pc.MLPParams(bumped, params.biases)
                loss_plus, _, _ = loss_and_gradients(plus, X, y)
                numeric = (loss_plus - loss) / h
                assert numeric == pytest.approx(gw[layer][idx], abs=1e-4)

    def test_bias_gradient_finite_difference(self):
        rng = np.random.default_rng(1)
        params = pc.MLPParams.init_random(1, sizes=(5, 4, 1))
        X = rng.uniform(-1, 1, size=(8, 5))
        y = rng.integers(0, 2, size=8).astype(float)
        loss, _, gb = loss_and_gradients(params, X, y)
        h = 1e-6
        bumped = [np.array(b) for b in params.biases]
        bumped[0][0] += h
        plus = pc.MLPParams(params.weights, bumped)
        loss_plus, _, _ = loss_and_gradients(plus, X, y)
        assert (loss_plus - loss) / h == pytest.approx(gb[0][0], abs=1e-4)

    def test_loss_matches_dataset_loss(self):
        params = pc.MLPParams.init_random(2)
        ds = make_dataset(30, lambda x: x[1] > 5, seed=2)
        X, y = ds.X, ds.y.astype(float)
        loss, _, _ = loss_and_gradients(params, pc.standardize(X), y)
        assert loss == pytest.approx(pc.dataset_loss(params, pc.standardize(X), y))


class TestBestEpoch:
    """train returns the epoch of the lowest validation loss, the earliest
    on a tie: the losses are scripted through dataset_loss."""

    @pytest.mark.parametrize("losses, best", [
        ([0.5, 0.3, 0.4], 1), ([0.5, 0.3, 0.3, 0.3], 1), ([3.0, 2.0, 1.0], 2)],
        ids=["strict_minimum", "tie_goes_to_earliest", "monotone_decrease_picks_last"])
    def test_train_returns_the_best_epoch(self, monkeypatch, losses, best):
        snapshots = []
        init = pc.MLPParams.__init__

        def spy(self, weights, biases):
            init(self, weights, biases)
            snapshots.append(self)

        scripted = iter(losses)
        monkeypatch.setattr(pc.MLPParams, "__init__", spy)
        monkeypatch.setattr(pc, "dataset_loss", lambda params, X, y: next(scripted))
        rule = lambda x: x[0] > 0.0
        params = pc.train(pc.MLPParams.init_random(0), make_dataset(40, rule, seed=1),
                          make_dataset(10, rule, seed=2),
                          pc.TrainConfig(epochs=len(losses), seed=0))
        # snapshots[0] is the initial parameters; snapshots[1 + e] is epoch e's
        assert len(snapshots) == 1 + len(losses)
        assert params is snapshots[1 + best]

    def test_no_epoch_rejected(self):
        with pytest.raises(pc.PerceptionError):
            pc.TrainConfig(epochs=0)


class TestTrain:
    def test_learns_separable_rule(self):
        rule = lambda x: x[0] > 0.0
        train_set = make_dataset(600, rule, seed=10)
        val_set = make_dataset(200, rule, seed=11)
        cfg = pc.TrainConfig(epochs=30, seed=0)
        params = pc.train(0, train_set, val_set, cfg)
        test_set = make_dataset(300, rule, seed=12)
        from colavoid import uq
        assert uq.accuracy(pc.MLPPredictor(params), test_set) > 0.9

    def test_deterministic_given_seeds(self):
        rule = lambda x: x[1] > 5.0
        train_set = make_dataset(100, rule, seed=20)
        val_set = make_dataset(50, rule, seed=21)
        cfg = pc.TrainConfig(epochs=3, seed=4)
        a = pc.train(0, train_set, val_set, cfg)
        b = pc.train(0, train_set, val_set, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_returns_lowest_validation_snapshot(self):
        rule = lambda x: x[0] > 0.0
        train_set = make_dataset(200, rule, seed=30)
        val_set = make_dataset(80, rule, seed=31)
        cfg = pc.TrainConfig(epochs=10, seed=0)
        params = pc.train(0, train_set, val_set, cfg)
        # retrace the loss curve and confirm the returned snapshot attains it
        best = reference_train(pc.MLPParams.init_random(0), train_set, val_set, cfg)
        for wa, wb in zip(params.weights, best.weights):
            assert np.array_equal(wa, wb)

    @pytest.mark.parametrize("batch_size", [1, 7, 32, 151])
    @pytest.mark.parametrize("sizes", [(5, 4, 1), (5, 8, 6, 1), (5, 32, 32, 1)],
                             ids=["5-4-1", "5-8-6-1", "5-32-32-1"])
    def test_matches_reference_sgd_loop(self, sizes, batch_size):
        # 150 samples leave a partial last batch at 7 and 32 and one batch
        # at 151; train must not write into the snapshot it starts from
        rule = lambda x: x[0] + x[1] > 4.0
        train_set = make_dataset(150, rule, seed=40)
        val_set = make_dataset(60, rule, seed=41)
        cfg = pc.TrainConfig(learning_rate=0.2, epochs=6, batch_size=batch_size, seed=3)
        init = pc.MLPParams.init_random(5, sizes=sizes)
        init_weights = [w.copy() for w in init.weights]
        params = pc.train(init, train_set, val_set, cfg)
        best = reference_train(init, train_set, val_set, cfg)
        for a, b in zip(params.weights + params.biases, best.weights + best.biases):
            assert np.array_equal(a, b)
        for a, b in zip(init.weights, init_weights):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, batch_size, epochs, init", [
        (161, 32, 3, 5), (162, 32, 3, 5), (40, 64, 5, 5), (150, 32, 40, "params")],
        ids=["trailing_1_row", "trailing_2_rows", "batch_above_set", "fine_tune"])
    def test_matches_reference_at_blas_edge_shapes(self, n, batch_size, epochs, init):
        # the default net where BLAS may pick another kernel: one- and
        # two-row products, a single short batch, and a repair's fine-tune
        # from a trained snapshot with a partial last batch of 22
        rule = lambda x: x[0] + x[1] > 4.0
        train_set = make_dataset(n, rule, seed=42)
        val_set = make_dataset(60, rule, seed=43)
        cfg = pc.TrainConfig(learning_rate=0.2, epochs=epochs, batch_size=batch_size, seed=6)
        if init == "params":
            init = pc.train(7, make_dataset(300, rule, seed=44), val_set, pc.TrainConfig(epochs=5))
        params = pc.train(init, train_set, val_set, cfg)
        start = init if isinstance(init, pc.MLPParams) else pc.MLPParams.init_random(init)
        best = reference_train(start, train_set, val_set, cfg)
        for a, b in zip(params.weights + params.biases, best.weights + best.biases):
            assert np.array_equal(a, b)

    def test_matches_reference_with_saturated_outputs(self):
        # output logits past +-500 and past exp's overflow at -709, where
        # train leaves _forward_pass's clip of z to the loss's clip of p
        rule = lambda x: x[0] + x[1] > 4.0
        train_set = make_dataset(150, rule, seed=40)
        val_set = make_dataset(60, rule, seed=41)
        base = pc.MLPParams.init_random(5)
        init = pc.MLPParams(base.weights[:-1] + (base.weights[-1] * 1e3,), base.biases)
        acts, _ = pc._forward_pass(init.weights, init.biases, pc.standardize(train_set.X))
        z = acts[-2] @ init.weights[-1] + init.biases[-1]
        assert (z < -709).any() and (z > 500).any()
        cfg = pc.TrainConfig(learning_rate=0.2, epochs=4, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = pc.train(init, train_set, val_set, cfg)
        best = reference_train(init, train_set, val_set, cfg)
        for a, b in zip(params.weights + params.biases, best.weights + best.biases):
            assert np.array_equal(a, b)

    def test_golden_weights(self):
        # reference_train shares no minibatch code with train; pin the bytes
        # too: default architecture, a partial last batch of 22
        rule = lambda x: x[0] + x[1] > 4.0
        train_set = make_dataset(150, rule, seed=40)
        val_set = make_dataset(60, rule, seed=41)
        cfg = pc.TrainConfig(learning_rate=0.2, epochs=6, seed=3)
        params = pc.train(pc.MLPParams.init_random(5), train_set, val_set, cfg)
        digest = hashlib.sha256()
        for w, b in zip(params.weights, params.biases):
            digest.update(w.tobytes())
            digest.update(b.tobytes())
        assert digest.hexdigest() == \
            "f541c54152b3c513574689a75bd96f139471b5d0e400b17f397372b9ffd95f8c"

    def test_snapshot_is_a_copy(self, monkeypatch):
        # the returned epoch's weights must not move with the later epochs'
        snapshots, live = [], []
        init = pc.MLPParams.__init__

        def spy(self, weights, biases):
            init(self, weights, biases)
            snapshots.append(self)
            live.append(list(weights) + list(biases))

        monkeypatch.setattr(pc.MLPParams, "__init__", spy)
        rule = lambda x: x[0] > 0.0
        train_set = make_dataset(200, rule, seed=30)
        val_set = make_dataset(80, rule, seed=31)
        cfg = pc.TrainConfig(learning_rate=2.0, epochs=8, seed=0)
        params = pc.train(0, train_set, val_set, cfg)
        assert snapshots.index(params) < len(snapshots) - 1
        returned = params.weights + params.biases
        assert not all(np.array_equal(a, b) for a, b in zip(returned, live[-1]))
        for a in returned:
            assert not any(np.shares_memory(a, b) for b in live[-1])

    @pytest.mark.parametrize("learning_rate", [1e50, 1e100])
    def test_divergence_raises(self, learning_rate):
        rule = lambda x: x[0] > 0.0
        train_set = make_dataset(200, rule, seed=50)
        val_set = make_dataset(50, rule, seed=51)
        cfg = pc.TrainConfig(learning_rate=learning_rate, epochs=3, seed=0)
        with np.errstate(all="ignore"), pytest.raises(pc.PerceptionError, match="non-finite"):
            pc.train(0, train_set, val_set, cfg)

    def test_empty_sets_rejected(self):
        ds = make_dataset(10, lambda x: 0, seed=0)
        with pytest.raises(pc.PerceptionError):
            pc.train(0, pc.Dataset([], []), ds, pc.TrainConfig())
        with pytest.raises(pc.PerceptionError):
            pc.train(0, ds, pc.Dataset([], []), pc.TrainConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(pc.PerceptionError):
            pc.TrainConfig(learning_rate=0.0)
        with pytest.raises(pc.PerceptionError):
            pc.TrainConfig(epochs=0)

    @pytest.mark.parametrize("kwargs", [{"batch_size": 0}, {"batch_size": -4},
                                        {"learning_rate": math.nan}, {"epochs": 1.5},
                                        {"batch_size": 2.5}, {"learning_rate": math.inf}],
                             ids=["batch_size_0", "batch_size_-4", "learning_rate_nan",
                                  "epochs_1.5", "batch_size_2.5", "learning_rate_inf"])
    def test_config_that_trains_nothing_rejected(self, kwargs):
        with pytest.raises(pc.PerceptionError):
            pc.TrainConfig(**kwargs)


class TestParamsIO:
    def test_non_finite_rejected(self):
        with pytest.raises(pc.PerceptionError):
            pc.MLPParams([np.array([[math.inf]])], [np.zeros(1)])


class TestCounterexampleBookkeeping:
    @given(n=st.integers(1, 200), seed=st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_split_is_partition(self, n, seed):
        ce = make_dataset(n, lambda x: x[0] > 0, seed=seed)
        parts = pc.split_counterexamples(ce, seed=seed)
        assert len(parts) == len(pc.CE_ROLES)
        assert sum(len(p) for p in parts) == n
        assert sorted(xy for p in parts for xy in pairs(p)) == sorted(pairs(ce))

    def test_split_sizes_respect_ratios(self):
        ce = make_dataset(100, lambda x: 0, seed=1)
        parts = pc.split_counterexamples(ce, seed=0)
        assert [len(p) for p in parts] == [40, 20, 20, 20]

    def test_ratios_cover_each_role_once(self):
        assert len(pc.CE_RATIOS) == len(pc.CE_ROLES)
        assert sum(pc.CE_RATIOS) == pytest.approx(1.0, abs=1e-9)

    def test_merge_appends(self):
        a = make_dataset(5, lambda x: 0, seed=0)
        b = make_dataset(3, lambda x: 1, seed=1)
        merged = pc.merge_datasets(a, b)
        assert len(merged) == 8
        assert pairs(merged) == pairs(a) + pairs(b)

    @given(n=st.integers(1, 50), m=st.integers(1, 120), seed=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_sample_dataset_size_and_support(self, n, m, seed):
        src = make_dataset(n, lambda x: x[0] > 0, seed=seed)
        out = pc.sample_dataset(src, m, seed=seed)
        assert len(out) == m
        pool = set(pairs(src))
        assert all(xy in pool for xy in pairs(out))
        if m <= n:
            # without replacement: no duplicates beyond the source's own
            assert len(set(pairs(out))) == m

    def test_sample_from_empty_rejected(self):
        with pytest.raises(pc.PerceptionError):
            pc.sample_dataset(pc.Dataset([], []), 3, seed=0)


class TestRandomGuess:
    def test_seeded_reproducibility(self):
        # one coin per row: the same seed and blocks give the same coins
        X = np.zeros((256, 5))
        p1 = pc.RandomGuessPredictor(9)
        p2 = pc.RandomGuessPredictor(9)
        a = np.concatenate([p1.predict_batch(X), p1.predict_batch(X[:20])])
        b = np.concatenate([p2.predict_batch(X), p2.predict_batch(X[:20])])
        assert len(a) == 276 and np.array_equal(a, b)
        assert not np.array_equal(a, np.concatenate(
            [pc.RandomGuessPredictor(10).predict_batch(X[:k]) for k in (256, 20)]))

    def test_roughly_balanced(self):
        outs = pc.RandomGuessPredictor(0).predict_batch(np.zeros((2000, 5)))
        assert set(outs.tolist()) == {0, 1}
        assert abs(outs.sum() - 1000) < 3 * math.sqrt(2000 * 0.25)
