import numpy as np
import pytest

from colavoid import perception as pc
from colavoid import pmc, runtime, simenv, synthesis


def make_ce(n, seed):
    """Counterexample dataset labelled by the trajectory oracle."""
    rng = np.random.default_rng(seed)
    oracle = simenv.OracleConfig(radius=simenv.CALIBRATED_RADIUS)
    states = simenv.ball_sample(simenv.ColliderState(0.0, 5.0, 3.0, 1.0, 0.0),
                                2.0, n, rng)
    return pc.Dataset([pc.Sample(s.as_tuple(),
                                 simenv.ground_truth_label(s, oracle))
                       for s in states], role="train")


def make_runtime(ref_model, threaded=False, test_gate=0.0, seed=0):
    oracle = simenv.OracleConfig(radius=simenv.CALIBRATED_RADIUS)
    datasets = dict(zip(("train", "val", "confusion", "test"),
                        simenv.gen_initial_datasets(
                            simenv.ColliderState(0.0, 5.0, 3.0, 1.0, 0.0),
                            2.0, (200, 60, 60, 60), seed, oracle)))
    cfg = runtime.RepairConfig(
        sample_sizes={"train": 150, "val": 50, "confusion": 60, "test": 60},
        train_config=pc.TrainConfig(epochs=3, seed=seed),
        test_gate=test_gate,
        param_space=synthesis.ParamSpace(counts=(3, 3)),
        model=ref_model,
        state_specs=(pmc.StateSpec(avoid="collision", target="done", bound=0.9),),
        reward_specs=(pmc.RewardSpec(targets=frozenset({"done", "collision"}),
                                     bound=15.0),),
        base_valuation={"p_collider": 0.8, "p_occ": 0.25})
    state = runtime.SystemState(pc.MLPParams.init_random(seed), (0.2, 0.0), 0)
    return runtime.DualRuntime(state, datasets, cfg, threaded=threaded)


class TestComponents:
    def test_both_modules_at_once_forbidden(self):
        with pytest.raises(runtime.RuntimeError_):
            runtime.Component("A", prediction_active=True, repair_active=True)

    def test_exactly_one_active(self, ref_model):
        rt = make_runtime(ref_model)
        rt.assert_invariants()
        assert rt.active.name == "A"

    def test_zero_active_detected(self, ref_model):
        rt = make_runtime(ref_model)
        rt.components["A"].prediction_active = False
        with pytest.raises(runtime.RuntimeError_):
            rt.active


class TestCache:
    def test_put_take(self):
        c = runtime.Cache()
        c.put("k", 3)
        assert c.take("k") == 3
        assert c.take("k") is None


class TestPrediction:
    def test_move_probability_uses_kappa(self, ref_model):
        rt = make_runtime(ref_model)
        assert rt.move_probability(0) == 0.2
        assert rt.move_probability(1) == 0.0

    def test_predict_matches_active_params(self, ref_model):
        rt = make_runtime(ref_model)
        x = (0.0, 5.0, 3.0, 1.0, 0.0)
        expected = pc.MLPPredictor(rt.state.phi).predict(x)
        assert rt.predict(x) == expected


class TestRepairPipeline:
    def test_accept_swaps_and_bumps_version(self, ref_model):
        rt = make_runtime(ref_model, test_gate=0.0)
        ce = make_ce(60, seed=1)
        assert rt.signal_repair(ce, {"accuracy"}, step=100)
        accepted = rt.finish_repair(step=101)
        assert accepted is True
        assert rt.active.name == "B"
        assert rt.state.version == 1
        rt.assert_invariants()

    def test_masters_grow_by_counterexamples(self, ref_model):
        rt = make_runtime(ref_model, test_gate=0.0)
        before = {r: len(d) for r, d in rt.datasets.items()}
        ce = make_ce(50, seed=2)
        rt.signal_repair(ce, {"accuracy"}, step=1)
        rt.finish_repair(step=2)
        grown = sum(len(d) - before[r] for r, d in rt.datasets.items())
        assert grown == 50

    def test_gate_reject_keeps_active_component(self, ref_model):
        rt = make_runtime(ref_model, test_gate=1.1)
        ce = make_ce(60, seed=3)
        rt.signal_repair(ce, {"accuracy"}, step=1)
        accepted = rt.finish_repair(step=2)
        assert accepted is False
        assert rt.active.name == "A"
        assert rt.state.version == 0
        assert any(e[3] == "reject" for e in rt.events)

    def test_pipeline_error_is_reject(self, ref_model, monkeypatch):
        rt = make_runtime(ref_model, test_gate=0.0)

        def boom(*args, **kwargs):
            raise synthesis.SynthesisError("forced failure")

        monkeypatch.setattr(runtime.synthesis, "synthesize", boom)
        rt.signal_repair(make_ce(60, seed=4), {"safety"}, step=1)
        assert rt.finish_repair(step=2) is False
        assert any("forced failure" in e[4] for e in rt.events)

    @pytest.mark.parametrize("threaded", [False, True])
    def test_check_error_is_reject(self, ref_model, monkeypatch, threaded):
        rt = make_runtime(ref_model, threaded=threaded, test_gate=0.0)
        x = (0.0, 5.0, 3.0, 1.0, 0.0)
        before = rt.predict(x)

        def boom(*args, **kwargs):
            raise pmc.CheckError("forced check failure")

        monkeypatch.setattr(runtime.synthesis, "synthesize", boom)
        assert rt.signal_repair(make_ce(60, seed=4), {"safety"}, step=1)
        assert rt.finish_repair(step=2) is False
        assert any(e[3] == "reject" and "forced check failure" in e[4]
                   for e in rt.events)
        assert rt.active.name == "A" and rt.state.version == 0
        assert rt.predict(x) == before
        rt.assert_invariants()
        monkeypatch.undo()
        assert rt.signal_repair(make_ce(60, seed=5), {"safety"}, step=3)
        assert rt.finish_repair(step=4) is True
        assert rt.active.name == "B"

    def test_signal_suppressed_while_in_flight(self, ref_model):
        rt = make_runtime(ref_model, test_gate=0.0)
        rt.signal_repair(make_ce(60, seed=5), {"accuracy"}, step=1)
        # sequential mode finishes the pipeline inside signal_repair, but the
        # flight flag stays up until the step-boundary collection
        assert not rt.signal_repair(make_ce(20, seed=6), {"time"}, step=2)
        assert any(e[3] == "signal_suppressed" for e in rt.events)
        rt.finish_repair(step=3)
        assert rt.signal_repair(make_ce(20, seed=7), {"time"}, step=4)
        rt.finish_repair(step=5)

    def test_finish_without_signal_is_noop(self, ref_model):
        rt = make_runtime(ref_model)
        assert rt.finish_repair(step=0) is None

    def test_repair_ignores_predictions_in_flight(self, ref_model):
        rt = make_runtime(ref_model, threaded=True, test_gate=0.0)
        rt.signal_repair(make_ce(60, seed=8), {"accuracy"}, step=1)
        x = (0.0, 5.0, 3.0, 1.0, 0.0)
        before = pc.MLPPredictor(rt.components["A"].state.phi).predict(x)
        assert rt.predict(x) == before    # still served by the old component
        rt.finish_repair(step=2)
        rt.assert_invariants()


class TestSwap:
    def test_swap_without_published_state_is_noop(self, ref_model):
        rt = make_runtime(ref_model)
        rt.swap_roles(step=0)
        assert rt.active.name == "A"
        assert any(e[3] == "swap_noop" for e in rt.events)

    def test_double_swap_restores_roles(self, ref_model):
        rt = make_runtime(ref_model)
        s1 = runtime.SystemState(rt.state.phi, (0.5, 0.1), 1)
        rt.components["B"].state = s1
        rt.cache.put("published_state", s1)
        rt.swap_roles(step=1)
        assert rt.active.name == "B" and rt.state.kappa == (0.5, 0.1)
        s2 = runtime.SystemState(rt.state.phi, (0.3, 0.0), 2)
        rt.components["A"].state = s2
        rt.cache.put("published_state", s2)
        rt.swap_roles(step=2)
        assert rt.active.name == "A" and rt.state.kappa == (0.3, 0.0)


class TestThreadedEquivalence:
    def test_sequential_and_threaded_agree(self, ref_model):
        results = []
        for threaded in (False, True):
            rt = make_runtime(ref_model, threaded=threaded, test_gate=0.0)
            rt.signal_repair(make_ce(60, seed=9), {"accuracy"}, step=1)
            rt.finish_repair(step=2)
            results.append(rt)
        a, b = results
        assert a.state.kappa == b.state.kappa
        assert a.state.version == b.state.version
        for wa, wb in zip(a.state.phi.weights, b.state.phi.weights):
            assert np.array_equal(wa, wb)


class TestEventLog:
    def test_csv_export(self, ref_model, tmp_path):
        rt = make_runtime(ref_model, test_gate=0.0)
        rt.signal_repair(make_ce(60, seed=10), {"accuracy"}, step=7)
        rt.finish_repair(step=8)
        path = tmp_path / "events.csv"
        rt.write_event_log(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,active,version,event,detail"
        assert len(lines) >= 3
