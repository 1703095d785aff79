import csv
import hashlib
import json
import os
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from colavoid import cli, harness, perception, runtime, simenv
from colavoid.monitor import MonitorConfig, MonitorError
from colavoid.perception import PerceptionError, TrainConfig
from colavoid.synthesis import ParamSpace


def small_config(out_dir, trace_path, method="sa", **kw):
    defaults = dict(
        method=method, environment="us", steps=2500, seed=7,
        out_dir=str(out_dir),
        monitor=MonitorConfig(t_monitor=1250, d_window=1000),
        param_space=ParamSpace(counts=(6, 6)),
        train_config=TrainConfig(epochs=15),
        dataset_sizes=(400, 100, 100, 100),
        trace_path=str(trace_path))
    defaults.update(kw)
    return harness.ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One run per method over a shared benchmark trace."""
    root = tmp_path_factory.mktemp("runs")
    metrics = harness.run_comparison(small_config(root, root / "trace.csv"))
    return root, {m: (small_config(root / m, root / "trace.csv", method=m), metrics[m])
                  for m in harness.METHODS}


class TestSeeds:
    def test_derive_seeds_is_stable(self):
        assert harness.derive_seeds(42) == harness.derive_seeds(42)

    def test_subsystem_seeds_are_distinct(self):
        seeds = harness.derive_seeds(0)
        assert len(set(seeds.values())) == len(seeds)
        assert set(seeds) == {"data", "train", "trace", "action", "random_pred"}

    def test_different_roots_differ(self):
        assert harness.derive_seeds(0) != harness.derive_seeds(1)


class TestConfig:
    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(harness.HarnessError):
            small_config(tmp_path, tmp_path / "t.csv", method="magic")

    def test_unknown_environment_rejected(self, tmp_path):
        with pytest.raises(harness.HarnessError):
            small_config(tmp_path, tmp_path / "t.csv", environment="mars")

    def test_sa_needs_a_full_period(self, tmp_path):
        with pytest.raises(harness.HarnessError, match="period"):
            small_config(tmp_path, tmp_path / "t.csv", steps=100)

    def test_baselines_allow_short_runs(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "t.csv", method="no", steps=100)
        assert cfg.steps == 100

    @pytest.mark.parametrize("steps", [0, -3, 2.5, "100"])
    def test_steps_must_be_a_positive_integer(self, tmp_path, steps):
        # rejected when the config is built, before any training
        with pytest.raises(harness.HarnessError, match="steps must be a positive integer"):
            small_config(tmp_path, tmp_path / "t.csv", method="no", steps=steps)

    @pytest.mark.parametrize("steps", ["0", "-3", "2.5"])
    def test_from_json_rejects_bad_steps(self, tmp_path, steps):
        path = tmp_path / "cfg.json"
        path.write_text('{"method": "no", "steps": %s}' % steps)
        with pytest.raises(harness.HarnessError, match="steps must be a positive integer"):
            harness.ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("sizes", [(40, 10, 10), (40, 10, 10, 10, 10), (40, 0, 10, 10),
                                       (40, 10, 2.5, 10), ("40", 10, 10, 10), 40])
    def test_dataset_sizes_must_be_four_positive_integers(self, tmp_path, sizes):
        # rejected when the config is built, before any training
        with pytest.raises(harness.HarnessError,
                           match="dataset_sizes must be four positive integers"):
            small_config(tmp_path, tmp_path / "t.csv", method="no", dataset_sizes=sizes)

    def test_config_hash_covers_training_and_grid(self, tmp_path):
        cfg = small_config(tmp_path, tmp_path / "t.csv")
        base = harness._config_hash(cfg)
        assert harness._config_hash(replace(cfg, out_dir="elsewhere",
                                            trace_path=None)) == base
        changed = [replace(cfg, train_config=TrainConfig(epochs=16)),
                   replace(cfg, param_space=ParamSpace(counts=(6, 7))),
                   replace(cfg, monitor=MonitorConfig(t_monitor=1250, d_window=999))]
        hashes = {harness._config_hash(c) for c in changed}
        assert len(hashes) == len(changed) and base not in hashes

    def test_from_json(self, tmp_path):
        payload = {"method": "no", "environment": "rw", "steps": 2000, "seed": 3,
                   "dataset_sizes": [100, 50, 50, 50], "eps0": 0.2,
                   "monitor": {"t_monitor": 500, "d_window": 400},
                   "train": {"epochs": 5}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        cfg = harness.ExperimentConfig.from_json(path)
        assert cfg.method == "no" and cfg.environment == "rw"
        assert cfg.monitor.t_monitor == 500
        assert cfg.train_config.epochs == 5
        assert cfg.dataset_sizes == (100, 50, 50, 50)

    def test_from_json_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"method": "sa", "threaded": True, "stepz": 10}))
        with pytest.raises(harness.HarnessError, match="stepz, threaded"):
            harness.ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("train", ['{"batch_size": 0}', '{"batch_size": -4}',
                                       '{"learning_rate": NaN}',
                                       '{"epochs": 1.5}', '{"batch_size": 2.5}'])
    def test_from_json_rejects_a_train_block_that_trains_nothing(self, tmp_path, train):
        path = tmp_path / "cfg.json"
        path.write_text('{"method": "sa", "train": %s}' % train)
        with pytest.raises(PerceptionError):
            harness.ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("monitor", ['{"d_window": 0}', '{"d_window": 2.5}',
                                         '{"t_monitor": 2.5}', '{"time_bound": NaN}'])
    def test_from_json_rejects_a_bad_monitor_block(self, tmp_path, monitor):
        # rejected when the config is built, before any training
        path = tmp_path / "cfg.json"
        path.write_text('{"method": "no", "monitor": %s}' % monitor)
        with pytest.raises(MonitorError):
            harness.ExperimentConfig.from_json(path)


class TestInitialSystem:
    def test_specs_are_the_monitor_bounds(self):
        cfg = harness.ExperimentConfig(
            method="no", steps=10, dataset_sizes=(60, 20, 20, 20),
            monitor=MonitorConfig(safety_bound=0.95, time_bound=20.0),
            param_space=ParamSpace(counts=(3, 3)), train_config=TrainConfig(epochs=1))
        repair_cfg = harness.initial_system(cfg, harness.derive_seeds(0))["repair_cfg"]
        assert [s.bound for s in repair_cfg.state_specs] == [0.95]
        assert [s.bound for s in repair_cfg.reward_specs] == [20.0]
        assert repair_cfg.test_gate == cfg.monitor.threshold_2

    def test_initial_training_is_cold_and_full_length(self, train_calls):
        cfg = harness.ExperimentConfig(
            method="no", steps=10, dataset_sizes=(60, 20, 20, 20),
            param_space=ParamSpace(counts=(3, 3)), train_config=TrainConfig(epochs=50))
        seeds = harness.derive_seeds(0)
        harness.initial_system(cfg, seeds)
        [(init, tc)] = train_calls
        assert type(init) is int and init == seeds["train"] == tc.seed
        assert tc.epochs == 50 > runtime.REPAIR_EPOCHS

    def test_default_bounds_are_the_monitor_defaults(self):
        (state,), (reward,) = harness.default_specs()
        defaults = MonitorConfig()
        assert (state.bound, reward.bound) == (defaults.safety_bound, defaults.time_bound)
        args = cli.build_parser().parse_args(["synthesize", "--confusion", "c.csv"])
        assert (args.safety_bound, args.time_bound) == (state.bound, reward.bound)

    def test_initial_controller_lies_on_grid(self, runs):
        _, out = runs
        cfg, _ = out["sa"]
        meta = json.load(open(os.path.join(cfg.out_dir, "metadata.json")))
        grid_values = {round(k / 5, 10) for k in range(6)}
        for v in meta["kappa0"]:
            assert round(v, 10) in grid_values
        assert sum(meta["u0"][:2]) == pytest.approx(1.0)
        assert sum(meta["u0"][2:]) == pytest.approx(1.0)

    def test_all_methods_share_the_initial_system(self, runs):
        _, out = runs
        metas = [json.load(open(os.path.join(cfg.out_dir, "metadata.json")))
                 for cfg, _ in out.values()]
        assert len({tuple(m["kappa0"]) for m in metas}) == 1
        assert len({tuple(m["u0"]) for m in metas}) == 1


class TestRunArtifacts:
    ARTIFACTS = ("metrics.csv", "periods.csv", "steps.csv",
                 "monitor_trace.csv", "metadata.json")

    def test_artifacts_exist(self, runs):
        _, out = runs
        for method, (cfg, _) in out.items():
            for name in self.ARTIFACTS:
                assert os.path.exists(os.path.join(cfg.out_dir, name)), (method, name)
        assert os.path.exists(os.path.join(out["sa"][0].out_dir, "events.csv"))

    def test_metrics_file_matches_returned_metrics(self, runs):
        _, out = runs
        cfg, metrics = out["sa"]
        rows = dict(line.split(",") for line in
                    open(os.path.join(cfg.out_dir, "metrics.csv"))
                    .read().strip().splitlines()[1:])
        assert float(rows["accuracy"]) == pytest.approx(metrics.accuracy)
        assert int(rows["attempts"]) == metrics.attempts
        assert int(rows["repairs_accepted"]) == metrics.repairs_accepted

    def test_shared_trace_hash(self, runs):
        _, out = runs
        hashes = {json.load(open(os.path.join(cfg.out_dir, "metadata.json")))
                  ["trace_hash"] for cfg, _ in out.values()}
        assert len(hashes) == 1

    def test_query_budget_respected(self, runs):
        _, out = runs
        for cfg, metrics in out.values():
            assert metrics.queries >= cfg.steps
            # overshoot is bounded by one movement attempt's queries
            assert metrics.queries < cfg.steps + 1000

    def test_repair_rows_are_the_signal_steps(self, runs):
        _, out = runs
        cfg, metrics = out["sa"]
        with open(os.path.join(cfg.out_dir, "monitor_trace.csv"), newline="") as fh:
            flagged = [r["step"] for r in csv.DictReader(fh) if r["repair"] == "1"]
        with open(os.path.join(cfg.out_dir, "events.csv"), newline="") as fh:
            signals = [r["step"] for r in csv.DictReader(fh) if r["event"] == "signal"]
        assert metrics.repairs_signalled >= 1
        assert flagged == signals
        assert len(flagged) == metrics.repairs_signalled
        for method in ("no", "random"):
            with open(os.path.join(out[method][0].out_dir, "monitor_trace.csv"),
                      newline="") as fh:
                assert all(r["repair"] == "0" for r in csv.DictReader(fh))

    def test_metrics_agree_with_the_logs(self, runs):
        """metrics.csv's repair counts, mean step time and periods.csv's length
        re-derived from events.csv and steps.csv."""
        def rows(cfg, name):
            with open(os.path.join(cfg.out_dir, name), newline="") as fh:
                return list(csv.DictReader(fh))

        _, out = runs
        for method, (cfg, _) in out.items():
            metrics = {r["metric"]: r["value"] for r in rows(cfg, "metrics.csv")}
            events = rows(cfg, "events.csv") if method == "sa" else []
            steps = rows(cfg, "steps.csv")
            assert int(metrics["repairs_signalled"]) == sum(
                e["event"] == "signal" for e in events), method
            assert int(metrics["repairs_accepted"]) == sum(
                e["event"] == "swap" for e in events), method
            elapsed = [float(r["elapsed"]) for r in steps]
            assert float(metrics["mean_step_time"]) == pytest.approx(
                sum(elapsed) / len(elapsed), rel=1e-12), method
            # a step that crosses a multiple of t_monitor ends a period
            queries, t = [0] + [int(r["step"]) for r in steps], cfg.monitor.t_monitor
            boundaries = sum(b // t > a // t for a, b in zip(queries, queries[1:]))
            assert len(rows(cfg, "periods.csv")) == boundaries >= 1, method


class TestDeterminism:
    def test_identical_seeds_identical_artifacts(self, runs):
        root, out = runs
        cfg0, m0 = out["sa"]
        cfg = small_config(root / "sa_repeat", root / "trace.csv", method="sa")
        m1 = harness.run_experiment(cfg)
        for name in ("metrics.csv", "periods.csv", "steps.csv",
                     "monitor_trace.csv"):
            a = open(os.path.join(cfg0.out_dir, name), "rb").read()
            b = open(os.path.join(cfg.out_dir, name), "rb").read()
            assert a == b, name

    #: sha256 of the artifacts of the acceptance criterion-8 run; a change
    #: that alters any output byte of a fixed-seed run must update these and
    #: say why.  metrics.csv's mean_step_time is the mean over every attempted
    #: move, collisions included (12.232712765957446 here).  A repair fine-tunes
    #: the serving phi (runtime.REPAIR_EPOCHS), so the accepted repair at step
    #: 1250 reaches test accuracy 0.95.
    GOLDEN = {
        "metrics.csv": "eff59f0d9e15255d39da010ebe17885e701fd84ee2005c142569ebaa028e4973",
        "periods.csv": "4cde49f89cf6a0c611f1e8c6be037ec2835531695918617d75490541670a53f9",
        "steps.csv": "87d9effdd87fede53f19089c0c60915a22bc5587c95e5ecf629a87c114b306df",
        "monitor_trace.csv": "212f3e6fc492fd89acc22bd0cd4787a179f3dafe10addedd9152d0551682ba9c",
        "events.csv": "e370607ada21db9fd7090bfd7eae5f83df881dbb8381b34c5bbe66d4cc1c9d0a",
    }
    #: sha256 of the trace's arrays (present uint8, X <f8, label int8); the
    #: trace file it is read from has the same bytes as before the hash
    #: changed from a digest of per-row repr text.
    GOLDEN_TRACE_HASH = "a2d04c5c5508848cd4411660cac229d9470793635a39355e774612f8206b1b2c"

    def test_golden_artifacts(self, tmp_path):
        cfg = harness.ExperimentConfig(
            method="sa", environment="us", steps=2500, seed=5,
            out_dir=str(tmp_path / "run"), trace_path=str(tmp_path / "trace.csv"),
            dataset_sizes=(400, 100, 100, 100),
            train_config=TrainConfig(epochs=15))
        harness.run_experiment(cfg)
        for name, digest in self.GOLDEN.items():
            data = open(os.path.join(cfg.out_dir, name), "rb").read()
            assert hashlib.sha256(data).hexdigest() == digest, name
        meta = json.load(open(os.path.join(cfg.out_dir, "metadata.json")))
        assert meta["trace_hash"] == self.GOLDEN_TRACE_HASH

    #: The same digests for a file-backed "no" run on a random-walk trace;
    #: trace.csv is the written trace file.  A baseline writes no events.csv.
    GOLDEN_NO_RW = {
        "metrics.csv": "5b934f640c41dcc190c2af77da578d6983178ba78568531509820075da6b8bda",
        "periods.csv": "a3057b0b3256c41a8f8d87a6829d3299b526ba96bea9cbb776f57be0ed86f915",
        "steps.csv": "f024f58018b360f01796bef78ce759c2823cd1b6b783be72ce4bfbe0579391b2",
        "monitor_trace.csv": "95c9380da4687435527a2afb3d436fb7ecfc2c9d4a3ec97a4d053dedbf0a3745",
        "trace.csv": "71e047fb022506e5a189e783fc6bfbf3224e816e31b1bcffe016a79ef708c140",
    }

    def test_golden_artifacts_no_rw_file_backed(self, tmp_path):
        cfg = harness.ExperimentConfig(
            method="no", environment="rw", steps=1500, seed=5,
            out_dir=str(tmp_path), trace_path=str(tmp_path / "trace.csv"),
            dataset_sizes=(400, 100, 100, 100),
            train_config=TrainConfig(epochs=15))
        harness.run_experiment(cfg)
        for name, digest in self.GOLDEN_NO_RW.items():
            data = open(os.path.join(cfg.out_dir, name), "rb").read()
            assert hashlib.sha256(data).hexdigest() == digest, name
        assert not os.path.exists(os.path.join(cfg.out_dir, "events.csv"))
        meta = json.load(open(os.path.join(cfg.out_dir, "metadata.json")))
        assert meta["trace_hash"] == simenv.trace_hash(simenv.read_trace(cfg.trace_path))
        assert meta["trace_rows"] == harness.trace_cap(cfg.steps)

    def test_different_seed_changes_metrics(self, runs):
        root, out = runs
        cfg = small_config(root / "no_seed9", root / "trace9.csv",
                           method="no", seed=9)
        m = harness.run_experiment(cfg)
        assert m.accuracy != out["no"][1].accuracy


class TestComparison:
    """run_comparison builds the seeds, the initial system and the trace once
    and runs each method's loop on them."""

    def test_compare_writes_the_bytes_of_three_simulate_runs(self, runs):
        root, out = runs
        for method in harness.METHODS:
            cfg = small_config(root / "simulate" / method, root / "trace.csv", method=method)
            harness.run_experiment(cfg)
            shared = out[method][0].out_dir
            names = sorted(os.listdir(cfg.out_dir))
            assert names == sorted(os.listdir(shared)) and "metadata.json" in names
            for name in names:
                assert (open(os.path.join(cfg.out_dir, name), "rb").read()
                        == open(os.path.join(shared, name), "rb").read()), (method, name)

    def test_setup_is_built_once_and_left_unchanged(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path, None, steps=1300, dataset_sizes=(200, 60, 60, 60),
                           train_config=TrainConfig(epochs=5),
                           param_space=ParamSpace(counts=(4, 4)))
        train, initial_system = perception.train, harness.initial_system
        train_seeds, built = [], []

        def arrays(init):
            phi0 = init["phi0"]
            return ([a.copy() for d in init["datasets"].values() for a in (d.X, d.y)]
                    + [a.copy() for a in (*phi0.weights, *phi0.biases)])

        def counted_train(seed, *args, **kw):
            train_seeds.append(seed)
            return train(seed, *args, **kw)

        def kept_initial_system(cfg, seeds):
            init = initial_system(cfg, seeds)
            built.append((init, dict(init["datasets"]), arrays(init)))
            return init

        monkeypatch.setattr(perception, "train", counted_train)
        monkeypatch.setattr(harness, "initial_system", kept_initial_system)
        metrics = harness.run_comparison(cfg)
        assert train_seeds.count(harness.derive_seeds(cfg.seed)["train"]) == 1
        # the sa run repaired, so it merged counterexamples into its datasets
        assert metrics["sa"].repairs_signalled >= 1
        [(init, datasets, before)] = built
        assert init["datasets"].keys() == datasets.keys()
        assert all(a is b for a, b in zip(init["datasets"].values(), datasets.values()))
        after = arrays(init)
        assert len(after) == len(before)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))


class TestTraceAccounting:
    """metadata.json: trace_used is World.cursor, one situation per query
    plus one per step that ended on an absent collider (queries == waits);
    trace_rows counts the rows trace_hash covers."""

    @staticmethod
    def trace_meta(out_dir):
        meta = json.load(open(os.path.join(out_dir, "metadata.json")))
        with open(os.path.join(out_dir, "steps.csv"), newline="") as fh:
            steps = list(csv.DictReader(fh))
        drawn = (sum(int(r["queries"]) for r in steps)
                 + sum(r["queries"] == r["waits"] for r in steps))
        assert meta["trace_used"] == drawn
        assert 0 < meta["trace_used"] <= meta["trace_rows"]
        return meta

    def test_file_backed_runs(self, runs):
        _, out = runs
        for cfg, _ in out.values():
            meta = self.trace_meta(cfg.out_dir)
            assert meta["trace_rows"] == harness.trace_cap(cfg.steps)

    def test_traceless_run_matches_the_file_backed_run(self, tmp_path):
        kw = dict(method="sa", environment="rw", steps=1300, seed=4,
                  dataset_sizes=(200, 60, 60, 60), train_config=TrainConfig(epochs=5),
                  param_space=ParamSpace(counts=(4, 4)))
        lazy = harness.ExperimentConfig(out_dir=str(tmp_path / "lazy"), **kw)
        eager = harness.ExperimentConfig(out_dir=str(tmp_path / "eager"),
                                         trace_path=str(tmp_path / "trace.csv"), **kw)
        for cfg in (lazy, eager):
            harness.run_experiment(cfg)
        for name in ("metrics.csv", "periods.csv", "steps.csv", "monitor_trace.csv",
                     "events.csv"):
            assert (open(os.path.join(lazy.out_dir, name), "rb").read()
                    == open(os.path.join(eager.out_dir, name), "rb").read()), name
        meta = self.trace_meta(lazy.out_dir)
        full = self.trace_meta(eager.out_dir)
        # the lazy run holds whole chunks, a prefix of the written trace
        assert meta["trace_used"] == full["trace_used"]
        assert meta["trace_rows"] % simenv.LABEL_CHUNK == 0
        assert meta["trace_rows"] < full["trace_rows"] == harness.trace_cap(1300)
        prefix = simenv.read_trace(eager.trace_path)
        n = meta["trace_rows"]
        prefix = simenv.Trace(prefix.present[:n], prefix.X[:n], prefix.label[:n])
        assert meta["trace_hash"] == simenv.trace_hash(prefix)


class TestMethodBehavior:
    def test_random_accuracy_near_half(self, runs):
        _, out = runs
        assert 0.4 <= out["random"][1].accuracy <= 0.6

    def test_adaptive_repairs_and_serves_every_step(self, runs):
        _, out = runs
        _, metrics = out["sa"]
        assert metrics.repairs_signalled >= 1
        assert metrics.unserved == 0

    def test_baselines_never_repair(self, runs):
        _, out = runs
        for method in ("no", "random"):
            assert out[method][1].repairs_signalled == 0

    def test_installed_kappa_is_the_synthesized_one(self, tmp_path, monkeypatch):
        """Each accepted repair installs the kappa its synthesis returned,
        and its accept row in events.csv names that kappa."""
        assessed, installed = [], []
        assess, finish = runtime.RepairConfig.assess, runtime.DualRuntime.finish_repair

        def recording_assess(self, phi, confusion_set):
            result = assess(self, phi, confusion_set)
            assessed.append(result[1])
            return result

        def recording_finish(self, step):
            before, accepted = self.kappa, finish(self, step)
            if accepted:
                installed.append((before, self.kappa))
            return accepted

        monkeypatch.setattr(runtime.RepairConfig, "assess", recording_assess)
        monkeypatch.setattr(runtime.DualRuntime, "finish_repair", recording_finish)
        cfg = small_config(tmp_path / "run", tmp_path / "trace.csv")
        metrics = harness.run_experiment(cfg)
        assert metrics.repairs_accepted == len(installed) >= 1
        # the initial system's kappa_0 is assessed first; in this run a
        # repair moves kappa, so keeping the old one would show
        assert [new for _, new in installed] == assessed[1:]
        assert any(old != new for old, new in installed)
        with open(os.path.join(cfg.out_dir, "events.csv"), newline="") as fh:
            accepts = [r["detail"] for r in csv.DictReader(fh) if r["event"] == "accept"]
        assert [re.search(r"kappa=(\(.*?\))", d).group(1) for d in accepts] \
            == [str(new) for _, new in installed]


class TestSummarize:
    def test_rows_match_run_artifacts(self, runs):
        _, out = runs
        dirs = [cfg.out_dir for cfg, _ in out.values()]
        header, rows = harness.summarize(dirs)
        assert header[0] == "run"
        assert {r[1] for r in rows} == set(harness.METHODS)
        by_method = {r[1]: r for r in rows}
        for method, (cfg, metrics) in out.items():
            assert float(by_method[method][3]) == pytest.approx(metrics.accuracy)

    def test_incomplete_dir_rejected(self, tmp_path):
        with pytest.raises(harness.HarnessError, match="incomplete"):
            harness.summarize([str(tmp_path)])

    @staticmethod
    def run_dir(tmp_path, metadata='{"method": "no", "environment": "us"}',
                metrics="metric,value\naccuracy,0.5\nsafety_rate,0.9\n"
                        "mean_step_time,12.0\nrepairs_accepted,0\n"):
        d = tmp_path / "run"
        d.mkdir()
        # a lone surrogate escape writes a byte that is not UTF-8
        (d / "metadata.json").write_bytes(metadata.encode("utf-8", "surrogateescape"))
        (d / "metrics.csv").write_bytes(metrics.encode("utf-8", "surrogateescape"))
        return str(d)

    def test_written_run_dir_is_read(self, tmp_path):
        _, rows = harness.summarize([self.run_dir(tmp_path)])
        assert rows == [["run", "no", "us", "0.5", "0.9", "12.0", "0"]]

    @pytest.mark.parametrize("files,message", [
        pytest.param({"metadata": "{}"}, r"metadata\.json: missing key 'method'$",
                     id="empty-metadata"),
        pytest.param({"metrics": "metric,value\n"}, r"metrics\.csv: missing key 'accuracy'$",
                     id="header-only-metrics"),
        pytest.param({"metadata": '{"method": "no",'}, r"metadata\.json: malformed: Expecting",
                     id="malformed-json"),
        pytest.param({"metrics": "metric,value\naccuracy,\udcff\n"},
                     r"metrics\.csv: malformed: 'utf-8' codec", id="not-utf-8"),
        pytest.param({"metrics": "metric,value\naccuracy,0.5,0.6\n"},
                     r"metrics\.csv: line 2: expected 2 columns \(metric, value\), got 3$",
                     id="wrong-column-count"),
    ])
    def test_bad_run_file_is_an_input_error(self, tmp_path, files, message):
        d = self.run_dir(tmp_path, **files)
        with pytest.raises(harness.HarnessError, match=re.escape(d) + "/" + message):
            harness.summarize([d])

    def test_empty_input_rejected(self):
        with pytest.raises(harness.HarnessError):
            harness.summarize([])

    def test_format_table_is_aligned(self, runs):
        _, out = runs
        header, rows = harness.summarize([cfg.out_dir for cfg, _ in out.values()])
        text = harness.format_table(header, rows)
        lines = text.splitlines()
        assert len(lines) == 1 + len(rows)
        assert all(len(line.split()) >= len(header) - 1 for line in lines)


class TestCli:
    def test_check_command(self, capsys, tmp_path):
        confusion = tmp_path / "c.csv"
        confusion.write_text("2000,290\n10,200\n")
        rc = cli.main(["check", "--params", "1.0,0.0", "--confusion", str(confusion)])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["safety"] == pytest.approx(0.98702, abs=1e-5)
        assert result["expected_time"] == pytest.approx(10.727, abs=1e-3)

    @pytest.mark.parametrize("model_file", [False, True], ids=["shipped", "file"])
    def test_synthesize_command(self, capsys, tmp_path, model_file):
        confusion = tmp_path / "c.csv"
        confusion.write_text("2000,290\n10,200\n")
        out = tmp_path / "synth.json"
        model = []
        if model_file:  # a copy of the shipped file, outside the package
            copy = tmp_path / "copy.pdtmc"
            copy.write_text(resources.files("colavoid").joinpath("collision.pdtmc").read_text())
            model = ["--model", str(copy)]
        rc = cli.main(["synthesize", *model,
                       "--confusion", str(confusion), "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["kappa"] == pytest.approx([0.2, 0.0])
        assert result["feasible"]
        assert (tmp_path / "synth_report.csv").exists()
        # the JSON and the report keep their bytes
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("synth.json", "synth_report.csv")}
        assert digests == {
            "synth.json": "cce821c0dc4fe57df1faa760b812b9832a5ec23c2ee4631e01a83d902d55dfe6",
            "synth_report.csv":
                "bd709c51df8e7406f65d4ff604787bfa251041b63a74ab0bd2aff6e51c62647d",
        }

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["check", "--params", "0.2"],
                     "colavoid check: error: argument --params: "
                     "expected two floats 'c1,c2', got '0.2'", id="one-param"),
        pytest.param(["check", "--params", "0.2,0.0,0.1"], "expected two floats",
                     id="three-params"),
        pytest.param(["check", "--params", "1.5,0.0"],
                     "colavoid: error: value 1.5 for 'c1' outside", id="param-out-of-bounds"),
        pytest.param(["synthesize", "--grid", "1"], "colavoid: error: need at least 2 points",
                     id="grid-1"),
        pytest.param(["synthesize", "--confusion", "three_rows.csv"],
                     "colavoid: error: .*3 rows", id="three-row-confusion"),
        pytest.param(["synthesize", "--model", "bad.pdtmc"],
                     "colavoid: error: bad.pdtmc: line 2: undeclared state 'b'",
                     id="malformed-model"),
        pytest.param(["synthesize", "--model", "missing.pdtmc"],
                     "colavoid: error: .*missing.pdtmc", id="missing-model"),
        pytest.param(["check", "--params", "0.2,0.0", "--model", "no_init.pdtmc"],
                     "colavoid: error: no_init.pdtmc: line 2: "
                     "initial state 'nowhere' is not declared", id="undeclared-init"),
        pytest.param(["check", "--params", "0.2,0.0", "--model", "no_done.pdtmc"],
                     "colavoid: error: no state carries label 'done'", id="check-no-done"),
        pytest.param(["synthesize", "--model", "no_done.pdtmc"],
                     r"colavoid: error: candidate 0 \(\(0.0, 0.0\)\): "
                     "no state carries label 'done'", id="synthesize-no-done"),
        pytest.param(["synthesize", "--model", "free_param.pdtmc"],
                     r"colavoid: error: candidate 0 \(\(0.0, 0.0\)\): "
                     "valuation missing parameter 'p'", id="synthesize-free-param"),
    ])
    def test_input_error_is_one_line(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.csv").write_text("2000,290\n10,200\n")
        (tmp_path / "three_rows.csv").write_text("2000,290\n10,200\n1,1\n")
        (tmp_path / "bad.pdtmc").write_text("state a;\ntrans a -> b : 1;\n")
        (tmp_path / "no_init.pdtmc").write_text("state a;\ninit nowhere;\ntrans a -> a : 1;\n")
        # the checker rejects these: no state is labelled done; p has no value
        (tmp_path / "no_done.pdtmc").write_text("state a [collision];\ninit a;\n"
                                                "trans a -> a : 1;\n")
        (tmp_path / "free_param.pdtmc").write_text("param p in [0,1];\nstate a [done];\n"
                                                   "init a;\ntrans a -> a : p + 1 - p;\n")
        if "--confusion" not in argv:
            argv = argv + ["--confusion", "c.csv"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert err.count("error:") == 1
        assert "Traceback" not in err

    def test_calibrate_command(self, capsys):
        rc = cli.main(["calibrate-oracle", "--target", "0.25",
                       "--samples", "1500", "--seed", "3"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert abs(result["positive_rate"] - 0.25) <= 0.01 + 0.05

    def test_summarize_command(self, capsys, runs, tmp_path):
        _, out = runs
        out_csv = tmp_path / "summary.csv"
        rc = cli.main(["summarize"] + [cfg.out_dir for cfg, _ in out.values()]
                      + ["--out", str(out_csv)])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out
        assert len(out_csv.read_text().strip().splitlines()) == 4

    @staticmethod
    def small_config_file(tmp_path, **kw):
        payload = {"method": "no", "environment": "us", "steps": 300, "seed": 1,
                   "dataset_sizes": [200, 60, 60, 60], "eps0": 0.1,
                   "train": {"epochs": 5},
                   "out_dir": str(tmp_path / "out")}
        payload.update(kw)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        return str(cfg_path)

    def test_simulate_command_with_config(self, capsys, tmp_path):
        rc = cli.main(["simulate", "--config", self.small_config_file(tmp_path),
                       "--trace", str(tmp_path / "trace.csv")])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert 0.0 <= result["accuracy"] <= 1.0
        assert (tmp_path / "out" / "metrics.csv").exists()

    @staticmethod
    def assert_usage_error(capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert err.count("colavoid: error:") == 1
        assert "Traceback" not in err

    def test_simulate_flags_are_validated(self, capsys, tmp_path):
        # a flag takes part in the config check: "sa" needs a full period
        self.assert_usage_error(capsys, ["simulate", "--config", self.small_config_file(tmp_path),
                                         "--method", "sa", "--steps", "10"],
                                "colavoid: error: .*period")

    def test_simulate_rejects_zero_steps(self, capsys, tmp_path):
        # --steps 0 is an empty budget, not the 15000 default, and it is
        # rejected before any training
        self.assert_usage_error(capsys, ["simulate", "--config", self.small_config_file(tmp_path),
                                         "--steps", "0"],
                                "colavoid: error: steps must be a positive integer, got 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        pytest.param(["simulate", "--steps", "0", "--out", "out"],
                     "colavoid: error: steps must be a positive integer, got 0",
                     id="zero-steps"),
        pytest.param(["simulate", "--config", "unknown.json", "--out", "out"],
                     "colavoid: error: unknown config keys: stepz", id="unknown-key"),
        pytest.param(["simulate", "--config", "nested.json", "--out", "out"],
                     "colavoid: error: config block 'monitor': .*'t_monitr'",
                     id="unknown-nested-key"),
        pytest.param(["compare", "--config", "nested.json", "--out", "out"],
                     "colavoid: error: config block 'monitor': .*'t_monitr'",
                     id="compare-unknown-nested-key"),
        pytest.param(["simulate", "--config", "malformed.json", "--out", "out"],
                     "colavoid: error: malformed.json: malformed JSON", id="malformed-json"),
        pytest.param(["simulate", "--config", "missing.json", "--out", "out"],
                     "colavoid: error: .*missing.json", id="missing-config"),
        pytest.param(["simulate", "--config", "train_seed.json", "--out", "out"],
                     "colavoid: error: train.seed is not read: the training seed is derived "
                     "from seed, got train.seed=7", id="train-seed"),
        pytest.param(["summarize", "not_a_run"],
                     "colavoid: error: incomplete run directory: not_a_run", id="not-a-run"),
    ])
    def test_run_input_error_is_one_line(self, capsys, tmp_path, monkeypatch, train_calls,
                                         argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "unknown.json").write_text('{"method": "no", "stepz": 10}')
        (tmp_path / "nested.json").write_text('{"monitor": {"t_monitr": 5}}')
        (tmp_path / "malformed.json").write_text('{"steps": 10,')
        (tmp_path / "train_seed.json").write_text('{"method": "no", "train": {"seed": 7}}')
        (tmp_path / "not_a_run").mkdir()
        self.assert_usage_error(capsys, argv, message)
        assert not (tmp_path / "out").exists()
        assert train_calls == []                # rejected before any training

    def test_simulate_rejects_three_dataset_sizes(self, capsys, tmp_path, train_calls):
        path = self.small_config_file(tmp_path, dataset_sizes=[40, 10, 10])
        self.assert_usage_error(capsys, ["simulate", "--config", path],
                                r"colavoid: error: dataset_sizes must be four positive "
                                r"integers .*got \(40, 10, 10\)")
        assert not (tmp_path / "out").exists()
        assert train_calls == []                # rejected before any training

    def test_summarize_bad_run_is_one_line(self, capsys, tmp_path):
        run = tmp_path / "bad"
        run.mkdir()
        (run / "metrics.csv").write_text("metric,value\n")
        (run / "metadata.json").write_text("{}")
        self.assert_usage_error(capsys, ["summarize", str(run)],
                                "colavoid: error: .*metadata.json: missing key 'method'")

    def test_compare_command(self, capsys, tmp_path):
        # "sa" needs a monitoring period within the budget
        path = self.small_config_file(tmp_path, steps=600,
                                      monitor={"t_monitor": 300, "d_window": 200})
        rc = cli.main(["compare", "--config", path, "--out", str(tmp_path / "cmp")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + len(harness.METHODS)
        assert [line.split()[1] for line in lines[1:]] == list(harness.METHODS)
        for method in harness.METHODS:
            assert (tmp_path / "cmp" / method / "metrics.csv").exists()
        assert (tmp_path / "cmp" / "trace.csv").exists()
