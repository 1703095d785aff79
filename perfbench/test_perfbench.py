"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q perfbench
"""

import csv
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from checks import check_experiment  # noqa: E402
from stats import TooFewSamples, percentile  # noqa: E402
from tracer import Tracer, self_times, targets  # noqa: E402


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 3.0, 0, None],
        ["a.child", 1.5, 2.0, 1, None],
        ["b", 2.0, 5.0, 0, None],        # overlaps a: the union 1..5 counts once
        ["c", 9.0, 12.0, 0, None],       # runs past the root: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 1.5, 0.5, 3.0, 3.0])


def test_tracer_records_parents_and_self_time():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    selfs = self_times(tracer.spans)
    root = tracer.spans[0]
    children = sum(s[2] - s[1] for s in tracer.spans[1:])
    assert selfs[0] + children == pytest.approx(root[2] - root[1], abs=1e-12)


def test_percentile_refuses_thin_tail():
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) > 980
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) > 85


def test_library_unpatched_after_traced_run():
    from colavoid import harness, synthesis, uq
    from colavoid.pdtmc import ModelConstants, reference_model

    wrapped = targets()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in wrapped]
    tracer = Tracer()
    tracer.install(wrapped)
    try:
        constants = ModelConstants()
        u = uq.quantify(uq.ConfusionMatrix.from_rows([[2000, 290], [10, 200]]))
        state, reward = harness.default_specs()
        synthesis.synthesize(u, reference_model(constants), synthesis.ParamSpace(counts=(2, 2)),
                             state, reward, base_valuation=constants.valuation())
    finally:
        tracer.uninstall()
    assert any(s[0] == "pdtmc.instantiate" for s in tracer.spans)
    for (owner, attr, _, _), original in zip(wrapped, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} left patched"


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    from colavoid.harness import ExperimentConfig, run_experiment
    from colavoid.perception import TrainConfig

    cfg = ExperimentConfig(method="no", environment="us", steps=300, seed=0,
                           out_dir=str(tmp_path_factory.mktemp("run")),
                           dataset_sizes=(200, 100, 100, 100), train_config=TrainConfig(epochs=3))
    run_experiment(cfg)
    return cfg


def _failed(results):
    return [name for name, ok, _ in results if not ok]


def test_intact_run_passes(small_run):
    assert _failed(check_experiment(small_run.out_dir, small_run)) == []


@pytest.mark.parametrize("key, check", [("queries", "queries_sum"),
                                        ("attempts", "attempts_rows"),
                                        ("collisions", "collisions"),
                                        ("unserved", "unserved")])
def test_mutated_metrics_csv_fails(small_run, tmp_path, key, check):
    import shutil
    run = str(tmp_path / "run")
    shutil.copytree(small_run.out_dir, run)
    path = os.path.join(run, "metrics.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [[k, str(int(v) + 1)] if k == key else [k, v] for k, v in rows]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert check in _failed(check_experiment(run, small_run))
