"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline;
under plain `pytest` the verdict is the test outcome itself.
"""

import contextlib
import math
import os
from importlib import resources

import numpy as np
import pytest

from colavoid import harness, perception, pmc, runtime, simenv, synthesis
from colavoid.pdtmc import (ModelConstants, instantiate, parse_model, reference_model,
                            serialize_model)
from colavoid.perception import TrainConfig
from colavoid.synthesis import ParamSpace
from conftest import ref_valuation


@contextlib.contextmanager
def report(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL — {description}")
        raise
    print(f"[criterion {number}] PASS — {description}")


@pytest.fixture(scope="module")
def comparison(tmp_path_factory):
    """Full-scale three-method comparison on one shared benchmark trace."""
    root = tmp_path_factory.mktemp("acceptance")
    results = harness.run_comparison(harness.ExperimentConfig(
        environment="us", steps=15000, seed=0, out_dir=str(root)))
    return root, results


def test_criterion_1_quantification_exactness(u_initial, u_shifted):
    with report(1, "quantify matches both published confusion matrices to 4 dp"):
        assert round(u_initial.p00, 4) == 0.8734
        assert round(u_initial.p01, 4) == 0.1266
        assert round(u_initial.p10, 4) == 0.0476
        assert round(u_initial.p11, 4) == 0.9524
        assert round(u_shifted.p00, 4) == 0.8333
        assert round(u_shifted.p01, 4) == 0.1667
        assert round(u_shifted.p10, 4) == 0.9231
        assert round(u_shifted.p11, 4) == 0.0769


def test_criterion_2_checker_oracle_agreement(corpus_chains):
    n = 100_000
    with report(2, f"checker vs {n}-path Monte-Carlo within 3-sigma on every "
                   "corpus chain (probabilities and rewards)"):
        for name, chain in corpus_chains.items():
            exact_p = pmc.until_probability(chain, "collision", "done")
            exact_r = pmc.expected_reward_to_absorption(chain,
                                                        {"done", "collision"})
            p_hat, r_hat, r_std = pmc.simulate_chain(chain, n, seed=17,
                                                     with_std=True)
            p_bound = 3.0 * math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / n)
            assert abs(p_hat - exact_p) <= p_bound, name
            r_bound = 3.0 * r_std / math.sqrt(n)
            assert abs(r_hat - exact_r) <= max(r_bound, 1e-9), name


def test_criterion_3_shift_degradation(ref_model, u_initial, u_shifted,
                                       default_specs):
    with report(3, "fixed controller loses >= 10 percentage points of safety "
                   "under the shifted perception rates"):
        # documented derived values at kappa = (1, 0)
        before = pmc.until_probability(
            instantiate(ref_model, ref_valuation(u_initial, 1.0, 0.0)),
            "collision", "done")
        after = pmc.until_probability(
            instantiate(ref_model, ref_valuation(u_shifted, 1.0, 0.0)),
            "collision", "done")
        assert before == pytest.approx(0.98702, abs=1e-5)
        assert after == pytest.approx(0.79130, abs=1e-5)
        assert before - after >= 0.10
        # the same property at the initially synthesized controller
        state_specs, reward_specs = default_specs
        kappa0, _, _ = synthesis.synthesize(
            u_initial, ref_model, ParamSpace(), state_specs, reward_specs,
            base_valuation={"p_collider": 0.8, "p_occ": 0.25})
        b0 = pmc.until_probability(
            instantiate(ref_model, ref_valuation(u_initial, *kappa0)),
            "collision", "done")
        a0 = pmc.until_probability(
            instantiate(ref_model, ref_valuation(u_shifted, *kappa0)),
            "collision", "done")
        assert b0 - a0 >= 0.10


def test_criterion_4_synthesis_correctness(ref_model, u_initial, default_specs):
    with report(4, "11x11 synthesis returns kappa = (0.2, 0.0) with "
                   "safety ~0.9938, time ~14.52, and no feasible candidate "
                   "is safer"):
        state_specs, reward_specs = default_specs
        kappa, qr, feasible = synthesis.synthesize(
            u_initial, ref_model, ParamSpace(), state_specs, reward_specs,
            base_valuation={"p_collider": 0.8, "p_occ": 0.25})
        assert kappa == pytest.approx((0.2, 0.0))
        assert feasible
        safety, time = qr.row_for(kappa)
        assert safety == pytest.approx(0.9938, abs=1e-4)
        assert time == pytest.approx(14.52, abs=1e-2)
        assert safety >= state_specs[0].bound and time <= reward_specs[0].bound
        # exhaustive re-check of the whole table
        for cand, (s, t) in zip(qr.candidates, qr.rows):
            if t <= reward_specs[0].bound:
                assert s <= safety + 1e-12, cand


def test_criterion_5_end_to_end_adaptation(comparison):
    with report(5, "15k-step shared-trace comparison: adaptive accuracy beats "
                   "the static baseline by >= 5 pp at no safety cost; the "
                   "random baseline stays near chance"):
        _, results = comparison
        sa, no, rnd = results["sa"], results["no"], results["random"]
        assert sa.accuracy - no.accuracy >= 0.05
        assert sa.safety_rate >= no.safety_rate
        assert 0.45 <= rnd.accuracy <= 0.55


def test_criterion_6_availability(comparison):
    with report(6, "every step of a run with triggered repairs receives a "
                   "prediction and exactly one predictor is active throughout"):
        _, results = comparison
        sa = results["sa"]
        assert sa.repairs_signalled >= 1
        assert sa.unserved == 0
        # the runtime serves from one index into its two state slots, so zero
        # or two active predictors cannot be represented
        assert sa.attempts > 0


def test_criterion_7_gradient_check():
    with report(7, "analytic gradients match central finite differences with "
                   "relative error <= 1e-4 at 10 random points"):
        rng = np.random.default_rng(0)
        h = 1e-6
        for point in range(10):
            params = perception.MLPParams.init_random(point, sizes=(5, 8, 6, 1))
            X = rng.uniform(-1, 1, size=(4, 5))
            y = rng.integers(0, 2, size=4).astype(float)
            _, gw, gb = perception.loss_and_gradients(params, X, y)
            layer = int(rng.integers(0, len(params.weights)))
            w = params.weights[layer]
            i = int(rng.integers(0, w.shape[0]))
            j = int(rng.integers(0, w.shape[1]))

            def loss_with(delta):
                bumped = [np.array(m) for m in params.weights]
                bumped[layer][i, j] += delta
                loss, _, _ = perception.loss_and_gradients(
                    perception.MLPParams(bumped, params.biases), X, y)
                return loss

            numeric = (loss_with(h) - loss_with(-h)) / (2 * h)
            analytic = gw[layer][i, j]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / scale <= 1e-4


def test_criterion_8_determinism_and_round_trip(tmp_path):
    with report(8, "identical seeds give byte-identical metric files and the "
                   "model format round-trips to identity"):
        trace = tmp_path / "trace.csv"
        outputs = []
        for run in ("a", "b"):
            cfg = harness.ExperimentConfig(
                method="sa", environment="us", steps=2500, seed=5,
                out_dir=str(tmp_path / run), trace_path=str(trace),
                dataset_sizes=(400, 100, 100, 100),
                train_config=TrainConfig(epochs=15))
            harness.run_experiment(cfg)
            outputs.append(cfg.out_dir)
        for name in ("metrics.csv", "periods.csv", "steps.csv",
                     "monitor_trace.csv", "events.csv"):
            a = open(os.path.join(outputs[0], name), "rb").read()
            b = open(os.path.join(outputs[1], name), "rb").read()
            assert a == b, name
        shipped = [f for f in resources.files("colavoid").iterdir()
                   if f.name.endswith(".pdtmc")]
        assert shipped
        for f in shipped:
            model = parse_model(f.read_text(), ModelConstants().valuation())
            assert parse_model(serialize_model(model)) == model, f.name
        ref = reference_model()
        assert parse_model(serialize_model(ref)) == ref


def test_criterion_9_dataset_accounting(ref_model, monkeypatch):
    with report(9, "one repair round yields working sets of 4000/1000/1000/1000 "
                   "built from disjoint counterexample parts"):
        oracle = simenv.OracleConfig(radius=simenv.CALIBRATED_RADIUS)
        datasets = dict(zip(("train", "val", "confusion", "test"),
                            simenv.gen_initial_datasets(
                                harness.DEFAULT_C0, 0.1,
                                (4000, 1000, 1000, 1000), seed=0,
                                oracle=oracle)))
        cfg = runtime.RepairConfig(
            train_config=TrainConfig(epochs=2, seed=0), test_gate=0.0,
            param_space=ParamSpace(counts=(3, 3)), model=ref_model,
            state_specs=(pmc.StateSpec(avoid="collision", target="done",
                                       bound=0.9),),
            reward_specs=(pmc.RewardSpec(targets=frozenset({"done", "collision"}),
                                         bound=15.0),),
            base_valuation={"p_collider": 0.8, "p_occ": 0.25})
        state = runtime.SystemState(perception.MLPParams.init_random(0),
                                    (0.2, 0.0), 0)
        rt = runtime.DualRuntime(state, perception.MLPPredictor(state.phi),
                                 datasets, cfg)
        rng = np.random.default_rng(3)
        ce_states = simenv.ball_sample(harness.DEFAULT_C0, 0.3, 600, rng)
        ce = perception.Dataset(ce_states, simenv.ground_truth_labels(ce_states, oracle))

        def pairs(ds):
            return list(zip(map(tuple, ds.X.tolist()), ds.y.tolist()))

        # the split is a disjoint partition across the four roles
        parts = perception.split_counterexamples(ce, seed=1)
        seen = [xy for p in parts for xy in pairs(p)]
        assert len(seen) == len(ce)
        assert sorted(seen) == sorted(pairs(ce))
        # the repair round resamples the merged masters to the exact sizes:
        # record the size of each working set where the repair consumes it
        working = {}
        train, accuracy = runtime.perception.train, runtime.uq.accuracy
        confusion = runtime.uq.evaluate_confusion

        def spy_train(seed, train_set, val_set, tc):
            working.update(train=len(train_set), val=len(val_set))
            return train(seed, train_set, val_set, tc)

        def spy_accuracy(predictor, test_set):
            working["test"] = len(test_set)
            return accuracy(predictor, test_set)

        def spy_confusion(predictor, confusion_set):
            working["confusion"] = len(confusion_set)
            return confusion(predictor, confusion_set)

        monkeypatch.setattr(runtime.perception, "train", spy_train)
        monkeypatch.setattr(runtime.uq, "accuracy", spy_accuracy)
        monkeypatch.setattr(runtime.uq, "evaluate_confusion", spy_confusion)
        accepted, new_state = rt.run_repair(ce, step=0)
        assert accepted
        assert working == {"train": 4000, "val": 1000, "confusion": 1000, "test": 1000}
        assert {r: len(d) for r, d in rt.datasets.items()} == {
            "train": 4000 + len(parts[0]), "val": 1000 + len(parts[1]),
            "confusion": 1000 + len(parts[2]), "test": 1000 + len(parts[3])}
