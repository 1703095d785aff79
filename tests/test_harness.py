import csv
import hashlib
import json
import os

import pytest

from colavoid import cli, harness, simenv
from colavoid.monitor import MonitorConfig
from colavoid.perception import TrainConfig
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


class TestInitialSystem:
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

    def test_period_series_length(self, runs):
        _, out = runs
        cfg, metrics = out["sa"]
        assert len(metrics.series) == cfg.steps // cfg.monitor.t_monitor


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
    #: say why.
    GOLDEN = {
        "metrics.csv": "b5371a1e1ceb9bd39355337decfd2e63d2d266304f057fa5ce8c19bae3aec9ef",
        "periods.csv": "2043f0eca81227330de41e173b2e46b9cd4cbb5e0f440865ea5bbba4b5ca1609",
        "steps.csv": "8a10f55e4ac4912cdb6782f77867fde75b84f51328525b129467eb2fa4c43b6c",
        "monitor_trace.csv": "8ac33e163127f16c46c5e7f47ae6cdd17a471e060ef15b5fe5342178c09c4420",
        "events.csv": "4152a359b0474bee50444ce5a668ab951d028f5ec7d0923de1087ffc60195c81",
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
        "metrics.csv": "954d38fe7a3a88de256d28a235f0a6297f53dcdc2db4fb015ec40d9e670cbdac",
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
        rc = cli.main(["check", "--model", "models/collision.pdtmc",
                       "--params", "1.0,0.0", "--confusion", str(confusion)])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["safety"] == pytest.approx(0.98702, abs=1e-5)
        assert result["expected_time"] == pytest.approx(10.727, abs=1e-3)

    def test_synthesize_command(self, capsys, tmp_path):
        confusion = tmp_path / "c.csv"
        confusion.write_text("2000,290\n10,200\n")
        out = tmp_path / "synth.json"
        rc = cli.main(["synthesize", "--model", "models/collision.pdtmc",
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

    def test_simulate_flags_are_validated(self, tmp_path):
        # a flag takes part in the config check: "sa" needs a full period
        with pytest.raises(harness.HarnessError, match="period"):
            cli.main(["simulate", "--config", self.small_config_file(tmp_path),
                      "--method", "sa", "--steps", "10"])

    def test_simulate_zero_steps_is_a_budget(self, capsys, tmp_path):
        rc = cli.main(["simulate", "--config", self.small_config_file(tmp_path),
                       "--steps", "0"])
        assert rc == 0
        metrics = dict(line.split(",") for line in
                       (tmp_path / "out" / "metrics.csv").read_text().splitlines()[1:])
        assert metrics["queries"] == "0"

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
