"""Experiment driver: the adaptive method against its two baselines.

A run trains the shared initial classifier/controller pair from the
pre-collected neighborhood datasets, replays a benchmark trace (a shared
file, or drawn from the seed as the run reaches it) through a
`DualRuntime` under a `Monitor`, and keeps only that loop.  It writes
metrics.csv (the monitor's totals and the runtime's repair counts) and
metadata.json; the monitor writes its step, period and trace CSVs and, for
the adaptive method, the runtime its event log.  The baselines serve a
fixed predictor through a runtime that is never signalled.
`run_comparison` builds that set-up once and runs all three methods on it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import numbers
import os
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import perception, pmc, simenv
from .monitor import Monitor, MonitorConfig
from .pdtmc import ModelConstants, reference_model
from .perception import MLPPredictor, RandomGuessPredictor, TrainConfig
from .runtime import DualRuntime, RepairConfig, SystemState
from .simenv import ColliderState, EnvGenerator, OracleConfig, World
from .synthesis import ParamSpace


class HarnessError(Exception):
    pass


#: Training-neighborhood center: a mixed-label region near the oracle's
#: decision boundary, so the initial confusion matrix has both classes.
DEFAULT_C0 = ColliderState(-0.442, 4.169, 1.461, 0.735, -0.42)

METHODS = ("sa", "no", "random")
ENVIRONMENTS = ("us", "rw")


@dataclass
class ExperimentConfig:
    method: str = "sa"
    environment: str = "us"
    steps: int = 15000                  # perception-query budget
    seed: int = 0
    out_dir: str = "runs/out"
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    constants: ModelConstants = field(default_factory=ModelConstants)
    param_space: ParamSpace = field(default_factory=ParamSpace)
    oracle: OracleConfig = field(
        default_factory=lambda: OracleConfig(radius=simenv.CALIBRATED_RADIUS))
    train_config: TrainConfig = field(default_factory=TrainConfig)
    dataset_sizes: tuple = (4000, 1000, 1000, 1000)
    c0: ColliderState = DEFAULT_C0
    eps0: float = 0.1
    trace_path: str = None              # shared benchmark trace (CSV)

    def __post_init__(self):
        if not isinstance(self.steps, numbers.Integral) or self.steps < 1:
            raise HarnessError(f"steps must be a positive integer, got {self.steps!r}")
        if self.method not in METHODS:
            raise HarnessError(f"unknown method {self.method!r}")
        if self.environment not in ENVIRONMENTS:
            raise HarnessError(f"unknown environment {self.environment!r}")
        if self.train_config.seed != 0:
            raise HarnessError("train.seed is not read: the training seed is derived "
                               f"from seed, got train.seed={self.train_config.seed!r}")
        if self.method == "sa" and self.steps < self.monitor.t_monitor:
            raise HarnessError("step budget must cover at least one monitoring period")
        sizes = self.dataset_sizes
        if not (isinstance(sizes, (tuple, list)) and len(sizes) == 4 and all(
                isinstance(v, numbers.Integral) and v > 0 for v in sizes)):
            raise HarnessError("dataset_sizes must be four positive integers (train, "
                               f"validation, confusion, test), got {sizes!r}")

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            raw = json.load(fh)
        plain = ("method", "environment", "steps", "seed", "out_dir", "eps0",
                 "trace_path")
        built = {  # JSON key -> (field, constructor)
            "dataset_sizes": ("dataset_sizes", tuple),
            "c0": ("c0", lambda v: ColliderState(*v)),
            "monitor": ("monitor", lambda v: MonitorConfig(**v)),
            "constants": ("constants", lambda v: ModelConstants(**v)),
            "oracle": ("oracle", lambda v: OracleConfig(**v)),
            "train": ("train_config", lambda v: TrainConfig(**v)),
        }
        unknown = sorted(set(raw) - set(plain) - set(built))
        if unknown:
            raise HarnessError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = {key: raw[key] for key in plain if key in raw}
        for key, (name, build) in built.items():
            if key in raw:
                try:
                    kwargs[name] = build(raw[key])
                except TypeError as exc:    # an unknown key or a wrong shape
                    raise HarnessError(f"config block {key!r}: {exc}") from None
        return cls(**kwargs)


@dataclass
class Metrics:
    accuracy: float
    safety_rate: float
    mean_step_time: float        # every attempted move (RunningStats.mean_time)
    queries: int
    attempts: int
    collisions: int
    completed: int
    repairs_signalled: int
    repairs_accepted: int
    unserved: int


def derive_seeds(seed):
    """Stable per-subsystem seed split."""
    root = np.random.SeedSequence(seed)
    names = ("data", "train", "trace", "action", "random_pred")
    children = root.spawn(len(names))
    return {n: int(c.generate_state(1)[0]) for n, c in zip(names, children)}


def default_specs(safety_bound=MonitorConfig.safety_bound,
                  time_bound=MonitorConfig.time_bound):
    """The (state specs, reward specs) pair every synthesis checks:
    P[!collision U done] >= safety_bound and R[F done|collision] <= time_bound."""
    state = (pmc.StateSpec(avoid="collision", target="done", bound=safety_bound),)
    reward = (pmc.RewardSpec(targets=frozenset({"done", "collision"}), bound=time_bound),)
    return state, reward


def initial_system(cfg, seeds):
    """Shared starting point of every method: datasets, phi_0, kappa_0, and
    the run's one RepairConfig, whose specs are the monitor's bounds."""
    datasets = simenv.gen_initial_datasets(
        cfg.c0, cfg.eps0, cfg.dataset_sizes, seeds["data"], oracle=cfg.oracle)
    train_set, val_set, confusion_set, _ = datasets
    tc = replace(cfg.train_config, seed=seeds["train"])
    phi0 = perception.train(seeds["train"], train_set, val_set, tc)
    state_specs, reward_specs = default_specs(cfg.monitor.safety_bound,
                                              cfg.monitor.time_bound)
    repair_cfg = RepairConfig(
        train_config=tc, test_gate=cfg.monitor.threshold_2,
        param_space=cfg.param_space, model=reference_model(cfg.constants),
        state_specs=state_specs, reward_specs=reward_specs,
        base_valuation=cfg.constants.valuation())
    u0, kappa0, _, feasible = repair_cfg.assess(phi0, confusion_set)
    return {
        "datasets": dict(zip(perception.CE_ROLES, datasets)), "phi0": phi0,
        "u0": u0, "kappa0": kappa0, "feasible": feasible, "repair_cfg": repair_cfg,
    }


def trace_cap(steps):
    """Situations a run of `steps` queries may draw.  A run draws about 1.25
    per query on the reference constants (waits and free moves draw one
    each), so the cap leaves a wide margin and still stops a controller
    that never moves.  It sizes a lazy trace and a newly written trace file."""
    return 8 * steps + 1000


def load_or_generate_trace(cfg, seeds):
    """The run's trace: cfg.trace_path if that file exists; otherwise drawn
    from the seed, lazily, or in full and written when cfg.trace_path names
    a file to create."""
    if cfg.trace_path and os.path.exists(cfg.trace_path):
        return simenv.read_trace(cfg.trace_path)
    gen = EnvGenerator(mode="uniform" if cfg.environment == "us" else "random_walk",
                       seed=seeds["trace"],
                       center=cfg.c0 if cfg.environment == "rw" else None)
    source = (trace_cap(cfg.steps), cfg.constants.p_collider, gen, seeds["trace"])
    if not cfg.trace_path:
        return simenv.lazy_trace(*source, oracle=cfg.oracle)
    trace = simenv.generate_trace(*source, oracle=cfg.oracle)
    os.makedirs(os.path.dirname(cfg.trace_path) or ".", exist_ok=True)
    simenv.write_trace(cfg.trace_path, trace)
    trace.path = cfg.trace_path
    return trace


def run_experiment(cfg):
    """Execute one method on one environment; returns Metrics and writes
    all run artifacts into cfg.out_dir."""
    seeds = derive_seeds(cfg.seed)
    return _run(cfg, seeds, initial_system(cfg, seeds), load_or_generate_trace(cfg, seeds))


def _run(cfg, seeds, init, trace):
    """The loop of cfg.method from the set-up (seeds, initial_system,
    trace); returns Metrics and writes the run artifacts into cfg.out_dir.
    It leaves `init` and `trace` as it found them, so methods can share them."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    predictor = (RandomGuessPredictor(seeds["random_pred"]) if cfg.method == "random"
                 else MLPPredictor(init["phi0"]))
    rt = DualRuntime(SystemState(init["phi0"], init["kappa0"], 0), predictor,
                     init["datasets"], init["repair_cfg"])

    world = World(trace, t_move=cfg.constants.t_move, t_wait=cfg.constants.t_wait)
    monitor = Monitor(cfg.monitor)
    rng_action = np.random.default_rng(seeds["action"])

    while monitor.queries < cfg.steps:
        rec = world.step(rt, rng_action)
        monitor.observe(rec)
        monitor.log_trace_row(rec)

        # first step boundary at/after each monitoring-period boundary
        if monitor.at_period_boundary():
            reasons, ce = monitor.close_period(world.trace, cfg.method == "sa")
            if len(ce):
                rt.signal_repair(ce, reasons, monitor.queries)
                rt.finish_repair(monitor.queries)

    total = monitor.total
    metrics = Metrics(
        accuracy=monitor.correct / monitor.queries,
        safety_rate=total.safety_rate, mean_step_time=total.mean_time,
        queries=monitor.queries, attempts=total.attempts, collisions=total.collisions,
        completed=total.completed, repairs_signalled=rt.repairs_signalled,
        repairs_accepted=rt.repairs_accepted, unserved=rt.unserved)

    _write_outputs(cfg, seeds, init, world, monitor, rt, metrics)
    return metrics


def run_comparison(base_cfg):
    """Run every method in METHODS from one set-up, built once: the seeds,
    the initial system and the trace, <base_cfg.out_dir>/trace.csv.  Each
    method writes into <base_cfg.out_dir>/<method>, the same bytes as
    run_experiment on that trace file.  Returns {method: Metrics}."""
    out = base_cfg.out_dir
    cfg = replace(base_cfg, trace_path=os.path.join(out, "trace.csv"))
    seeds = derive_seeds(cfg.seed)
    init, trace = initial_system(cfg, seeds), load_or_generate_trace(cfg, seeds)
    return {m: _run(replace(cfg, method=m, out_dir=os.path.join(out, m)), seeds, init, trace)
            for m in METHODS}


def _config_hash(cfg):
    """Digest of every config field except where the run reads and writes."""
    payload = asdict(cfg)
    del payload["out_dir"], payload["trace_path"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _write_outputs(cfg, seeds, init, world, monitor, rt, metrics):
    out = cfg.out_dir
    with open(os.path.join(out, "metrics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerows(asdict(metrics).items())
    monitor.write_csvs(out)
    if cfg.method == "sa":
        rt.write_event_log(os.path.join(out, "events.csv"))
    meta = {
        "method": cfg.method, "environment": cfg.environment,
        "steps": cfg.steps, "seed": cfg.seed, "seeds": seeds,
        "config_hash": _config_hash(cfg),
        "trace_hash": simenv.trace_hash(world.trace),
        "trace_rows": world.trace.held,
        "trace_used": world.cursor,
        "kappa0": list(init["kappa0"]),
        "u0": [init["u0"].p00, init["u0"].p01, init["u0"].p10, init["u0"].p11],
        "initial_feasible": bool(init["feasible"]),
    }
    with open(os.path.join(out, "metadata.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def _read_run_file(path, parse):
    """parse(fh) of the run file at `path`; text it cannot parse is an input error."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return parse(fh)
    except (ValueError, csv.Error) as exc:     # malformed JSON or CSV, or not UTF-8
        raise HarnessError(f"{path}: malformed: {exc}") from None


def _field(values, path, key):
    """values[key] of the run file at `path`, which must hold it."""
    if not isinstance(values, dict) or key not in values:
        raise HarnessError(f"{path}: missing key {key!r}")
    return values[key]


def summarize(run_dirs):
    """Comparison table over completed run directories.

    Returns (header, rows); every value is re-read from the run artifacts.
    """
    if not run_dirs:
        raise HarnessError("no run directories given")
    header = ["run", "method", "environment", "accuracy", "safety_rate",
              "mean_step_time", "repairs_accepted"]
    rows = []
    for d in run_dirs:
        metrics_path = os.path.join(d, "metrics.csv")
        meta_path = os.path.join(d, "metadata.json")
        if not (os.path.exists(metrics_path) and os.path.exists(meta_path)):
            raise HarnessError(f"incomplete run directory: {d}")
        meta = _read_run_file(meta_path, json.load)
        lines = _read_run_file(metrics_path, lambda fh: list(csv.reader(fh))[1:])
        for line_no, line in enumerate(lines, start=2):
            if len(line) != 2:
                raise HarnessError(f"{metrics_path}: line {line_no}: expected 2 columns "
                                   f"(metric, value), got {len(line)}")
        values = dict(lines)
        rows.append([os.path.basename(os.path.normpath(d))]
                    + [_field(meta, meta_path, key) for key in header[1:3]]
                    + [_field(values, metrics_path, key) for key in header[3:]])
    return header, rows


def format_table(header, rows):
    widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows])
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
