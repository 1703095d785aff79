"""Serving: World answers each query from one batched forward pass per
block of trace rows, made with the predictor the runtime serves."""

import numpy as np
import pytest

from colavoid import harness, runtime, simenv
from colavoid import perception as pc
from colavoid.perception import TrainConfig

BLOCK = simenv.SERVE_BLOCK
PHI_OLD, PHI_NEW = pc.MLPParams.init_random(1), pc.MLPParams.init_random(2)


def serving_runtime(phi, kappa=(0.5, 0.5)):
    return runtime.DualRuntime(runtime.SystemState(phi, kappa), pc.MLPPredictor(phi),
                               {}, runtime.RepairConfig())


def served(world, rt, rng, queries):
    """The observations (x, prediction, label) of steps until `queries`
    queries have been made."""
    out = []
    while len(out) < queries:
        out += world.step(rt, rng).observations
    return out


class StaleWorld(simenv.World):
    """Fault double: keeps its block's predictions across a swap."""

    def step(self, runtime, rng):
        self._predictor = runtime.predictor
        return super().step(runtime, rng)


def swap_mid_block(world_cls):
    """Serve PHI_OLD until the cursor is 100 rows into the second block,
    swap to PHI_NEW through a repair and serve to the end of that block;
    returns the queries after the swap as (x, served prediction)."""
    trace = simenv.generate_trace(4 * BLOCK, 0.8, simenv.EnvGenerator(seed=3), 4)
    rt = serving_runtime(PHI_OLD)
    rt.run_repair = lambda ce, step: (True, runtime.SystemState(PHI_NEW, (0.5, 0.5), 1))
    world, rng = world_cls(trace), np.random.default_rng(5)
    while world.cursor < BLOCK + 100:
        world.step(rt, rng)
    assert world.cursor < 2 * BLOCK
    assert rt.signal_repair(None, {"accuracy"}, step=1)
    assert rt.finish_repair(step=1) is True
    after = []
    while world.cursor < 2 * BLOCK:
        after += [(x, p) for x, p, _ in world.step(rt, rng).observations]
    return after


class TestServing:
    def test_swap_mid_block_serves_the_new_predictor(self):
        old, new = pc.MLPPredictor(PHI_OLD), pc.MLPPredictor(PHI_NEW)
        after = swap_mid_block(simenv.World)
        assert after and [p for _, p in after] == [new.predict(x) for x, _ in after]
        # the two predictors disagree on some of these rows, so a world that
        # kept the old block would serve other predictions; the double does
        assert any(old.predict(x) != new.predict(x) for x, _ in after)
        stale = swap_mid_block(StaleWorld)
        assert [p for _, p in stale] != [new.predict(x) for x, _ in stale]

    @pytest.mark.parametrize("environment", ["us", "rw"])
    def test_every_served_prediction_is_the_single_row_prediction(self, environment,
                                                                  tmp_path):
        # the trace and classifier of the golden sa/us run, and its rw twin
        cfg = harness.ExperimentConfig(
            method="sa", environment=environment, steps=2500, seed=5,
            out_dir=str(tmp_path), dataset_sizes=(400, 100, 100, 100),
            train_config=TrainConfig(epochs=15))
        seeds = harness.derive_seeds(cfg.seed)
        init = harness.initial_system(cfg, seeds)
        single = pc.MLPPredictor(init["phi0"])
        world = simenv.World(harness.load_or_generate_trace(cfg, seeds))
        obs = served(world, serving_runtime(init["phi0"], init["kappa0"]),
                     np.random.default_rng(seeds["action"]), 3000)
        assert [p for _, p, _ in obs] == [single.predict(x) for x, _, _ in obs]
        held = world.trace.X
        assert held.shape[0] >= simenv.LABEL_CHUNK
        assert single.predict_batch(held).tolist() == [single.predict(x) for x in held]

    def test_lazy_and_file_traces_serve_alike(self, tmp_path):
        n = 2 * simenv.LABEL_CHUNK

        def gen():
            return simenv.EnvGenerator(mode="random_walk", seed=7)

        path = tmp_path / "trace.csv"
        simenv.write_trace(path, simenv.generate_trace(n, 0.8, gen(), 8))
        runs = [served(simenv.World(trace), serving_runtime(PHI_OLD),
                       np.random.default_rng(9), 5000)
                for trace in (simenv.lazy_trace(n, 0.8, gen(), 8), simenv.read_trace(path))]
        assert runs[0] == runs[1]

    def test_random_guess_draws_one_coin_per_trace_row(self):
        # every row has a collider, so query i is trace row i
        trace = simenv.generate_trace(3 * BLOCK + 40, 1.0, simenv.EnvGenerator(seed=1), 2)
        expected = pc.RandomGuessPredictor(11)
        coins = np.concatenate([expected.predict_batch(trace.X[i:i + BLOCK])
                                for i in range(0, trace.held, BLOCK)]).tolist()
        runs = []
        for _ in range(2):
            rt = runtime.DualRuntime(runtime.SystemState(PHI_OLD, (0.5, 0.5)),
                                     pc.RandomGuessPredictor(11), {}, runtime.RepairConfig())
            obs = served(simenv.World(trace), rt, np.random.default_rng(4), 3 * BLOCK)
            runs.append([p for _, p, _ in obs])
        assert runs[0] == runs[1] == coins[:len(runs[0])]
