import numpy as np
from hypothesis import given, settings, strategies as st

from colavoid import perception as pc
from colavoid import pmc, runtime, simenv, synthesis


def make_ce(n, seed):
    """Counterexample dataset labelled by the trajectory oracle."""
    rng = np.random.default_rng(seed)
    oracle = simenv.OracleConfig(radius=simenv.CALIBRATED_RADIUS)
    X = simenv.ball_sample(simenv.ColliderState(0.0, 5.0, 3.0, 1.0, 0.0), 2.0, n, rng)
    return pc.Dataset(X, simenv.ground_truth_labels(X, oracle), role="train")


def make_runtime(ref_model, test_gate=0.0, seed=0):
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
    return runtime.DualRuntime(state, pc.MLPPredictor(state.phi), datasets, cfg)


def active_name(rt):
    return runtime.NAMES[rt.active]


class TestComponents:
    def test_exactly_one_active(self, ref_model):
        rt = make_runtime(ref_model)
        assert active_name(rt) == "A"
        assert rt.states[0] is rt.states[1] is rt.state
        assert rt.pending is None


class TestPrediction:
    def test_move_probability_uses_kappa(self, ref_model):
        rt = make_runtime(ref_model)
        assert rt.move_probability(0) == 0.2
        assert rt.move_probability(1) == 0.0

    def test_predict_matches_active_params(self, ref_model):
        rt = make_runtime(ref_model)
        X = np.array([(0.0, 5.0, 3.0, 1.0, 0.0), (-4.0, 1.0, 0.5, 2.0, 0.3)])
        assert rt.predictor.params is rt.state.phi
        assert np.array_equal(rt.predictor.predict_batch(X),
                              pc.MLPPredictor(rt.state.phi).predict_batch(X))


class TestRepairPipeline:
    def test_accept_swaps_and_bumps_version(self, ref_model):
        rt = make_runtime(ref_model, test_gate=0.0)
        ce = make_ce(60, seed=1)
        assert rt.signal_repair(ce, {"accuracy"}, step=100)
        accepted = rt.finish_repair(step=101)
        assert accepted is True
        assert active_name(rt) == "B"
        assert rt.state.version == 1
        assert [e[3] for e in rt.events] == ["signal", "accept", "swap"]
        assert rt.events[-1] == (101, "B", 1, "swap", "A->B")

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
        assert active_name(rt) == "A"
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

    def test_check_error_is_reject(self, ref_model, monkeypatch):
        rt = make_runtime(ref_model, test_gate=0.0)
        before = rt.predictor

        def boom(*args, **kwargs):
            raise pmc.CheckError("forced check failure")

        monkeypatch.setattr(runtime.synthesis, "synthesize", boom)
        assert rt.signal_repair(make_ce(60, seed=4), {"safety"}, step=1)
        assert rt.finish_repair(step=2) is False
        assert any(e[3] == "reject" and "forced check failure" in e[4]
                   for e in rt.events)
        assert active_name(rt) == "A" and rt.state.version == 0
        assert rt.predictor is before
        monkeypatch.undo()
        assert rt.signal_repair(make_ce(60, seed=5), {"safety"}, step=3)
        assert rt.finish_repair(step=4) is True
        assert active_name(rt) == "B"

    def test_signal_suppressed_while_in_flight(self, ref_model):
        rt = make_runtime(ref_model, test_gate=0.0)
        rt.signal_repair(make_ce(60, seed=5), {"accuracy"}, step=1)
        # the pipeline ran inside signal_repair, but its result stays pending
        # until the step-boundary collection
        assert not rt.signal_repair(make_ce(20, seed=6), {"time"}, step=2)
        assert any(e[3] == "signal_suppressed" for e in rt.events)
        rt.finish_repair(step=3)
        assert rt.signal_repair(make_ce(20, seed=7), {"time"}, step=4)
        rt.finish_repair(step=5)

    def test_finish_without_signal_is_noop(self, ref_model):
        rt = make_runtime(ref_model)
        assert rt.finish_repair(step=0) is None

    def test_repair_ignores_predictions_in_flight(self, ref_model):
        rt = make_runtime(ref_model, test_gate=0.0)
        old_phi = rt.state.phi
        rt.signal_repair(make_ce(60, seed=8), {"accuracy"}, step=1)
        xs = simenv.ball_sample(simenv.ColliderState(0.0, 5.0, 3.0, 1.0, 0.0),
                                2.0, 20, np.random.default_rng(8)).tolist()
        # between the signal and the finish the old component still serves
        assert active_name(rt) == "A" and rt.state.phi is old_phi
        for x in xs:
            assert rt.predictor.predict(x) == pc.MLPPredictor(old_phi).predict(x)
        assert rt.finish_repair(step=2) is True
        new_phi = rt.state.phi
        assert new_phi is not old_phi
        for x in xs:
            assert rt.predictor.predict(x) == pc.MLPPredictor(new_phi).predict(x)


class TestSwap:
    def test_double_swap_restores_roles(self, ref_model):
        rt = make_runtime(ref_model, test_gate=0.0)
        assert rt.signal_repair(make_ce(60, seed=11), {"accuracy"}, step=1)
        assert rt.finish_repair(step=1) is True
        assert active_name(rt) == "B" and rt.state.version == 1
        first = rt.state
        assert rt.signal_repair(make_ce(60, seed=12), {"accuracy"}, step=2)
        assert rt.finish_repair(step=2) is True
        assert active_name(rt) == "A" and rt.state.version == 2
        assert rt.states == [rt.state, first]
        swaps = [(e[0], e[1], e[2], e[4]) for e in rt.events if e[3] == "swap"]
        assert swaps == [(1, "B", 1, "A->B"), (2, "A", 2, "B->A")]


#: Distinct parameter sets, so a served predictor names the repair it came from.
PHIS = [pc.MLPParams.init_random(seed) for seed in range(5)]


class TestSignalFinishSequences:
    @given(ops=st.lists(st.tuples(st.sampled_from(("signal", "finish")), st.booleans()),
                        max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_random_sequences(self, ops):
        """`ops` is a list of (call, accept): `accept` decides the outcome of
        the repair a signal runs and is ignored for a finish."""
        rt = runtime.DualRuntime(runtime.SystemState(PHIS[0], (0.2, 0.0), 0),
                                 pc.MLPPredictor(PHIS[0]), {}, runtime.RepairConfig())
        outcome = []

        def forced_repair(ce, step):
            if outcome[0]:
                phi = PHIS[(rt.state.version + 1) % len(PHIS)]
                return (True, runtime.SystemState(phi, (0.1, 0.0), rt.state.version + 1))
            return (False, None)

        rt.run_repair = forced_repair
        pending = None          # expected outcome of the held result
        accepted = 0
        for step, (call, accept) in enumerate(ops):
            logged = len(rt.events)
            if call == "signal":
                outcome[:] = [accept]
                assert rt.signal_repair(None, {"accuracy"}, step) is (pending is None)
                assert rt.events[logged][3] == (
                    "signal" if pending is None else "signal_suppressed")
                if pending is None:
                    pending = accept
            else:
                assert rt.finish_repair(step) is pending
                accepted += pending is True
                pending = None
            assert rt.predictor.params is rt.state.phi
            assert rt.kappa is rt.state.kappa
            assert rt.state.version == accepted
            assert (rt.pending is None) == (pending is None)
        assert sum(e[3] == "swap" for e in rt.events) == accepted


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
