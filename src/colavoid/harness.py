"""Experiment driver: the adaptive method against its two baselines.

A run trains the shared initial classifier/controller pair from the
pre-collected neighborhood datasets, replays a benchmark trace (a shared
file, or drawn from the seed as the run reaches it) through a
`DualRuntime`, and persists metrics, per-period series, the monitor
trace, a JSON metadata record and, for the adaptive method, the event
log.  The baselines serve a fixed predictor through a runtime that is
never signalled.  `run_comparison` runs all three methods on one trace.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import perception, pmc, simenv, synthesis, uq
from .monitor import Monitor, MonitorConfig, Observation
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
        if self.method not in METHODS:
            raise HarnessError(f"unknown method {self.method!r}")
        if self.environment not in ENVIRONMENTS:
            raise HarnessError(f"unknown environment {self.environment!r}")
        if self.method == "sa" and self.steps < self.monitor.t_monitor:
            raise HarnessError("step budget must cover at least one monitoring period")

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
                kwargs[name] = build(raw[key])
        return cls(**kwargs)


@dataclass
class Metrics:
    accuracy: float
    safety_rate: float
    mean_step_time: float        # completed moves only (see RunningStats.mean_time)
    queries: int
    attempts: int
    collisions: int
    completed: int
    repairs_signalled: int
    repairs_accepted: int
    unserved: int
    series: list                 # (period, accuracy, safety, mean_time)


def derive_seeds(seed):
    """Stable per-subsystem seed split."""
    root = np.random.SeedSequence(seed)
    names = ("data", "train", "trace", "action", "random_pred")
    children = root.spawn(len(names))
    return {n: int(c.generate_state(1)[0]) for n, c in zip(names, children)}


def default_specs(safety_bound=0.9, time_bound=15.0):
    """The (state specs, reward specs) pair every synthesis checks:
    P[!collision U done] >= safety_bound and R[F done|collision] <= time_bound."""
    state = (pmc.StateSpec(avoid="collision", target="done", bound=safety_bound),)
    reward = (pmc.RewardSpec(targets=frozenset({"done", "collision"}), bound=time_bound),)
    return state, reward


def initial_system(cfg, seeds):
    """Shared starting point of every method: datasets, phi_0, kappa_0."""
    datasets = simenv.gen_initial_datasets(
        cfg.c0, cfg.eps0, cfg.dataset_sizes, seeds["data"], oracle=cfg.oracle)
    train_set, val_set, confusion_set, test_set = datasets
    tc = replace(cfg.train_config, seed=seeds["train"])
    phi0 = perception.train(seeds["train"], train_set, val_set, tc)
    matrix = uq.evaluate_confusion(MLPPredictor(phi0), confusion_set)
    u0 = uq.quantify(matrix)
    model = reference_model(cfg.constants)
    state_specs, reward_specs = default_specs()
    kappa0, qr, feasible = synthesis.synthesize(
        u0, model, cfg.param_space, state_specs, reward_specs,
        base_valuation=cfg.constants.valuation())
    role_map = {"train": train_set, "val": val_set,
                "confusion": confusion_set, "test": test_set}
    return {
        "datasets": role_map, "phi0": phi0, "u0": u0, "kappa0": kappa0,
        "qr": qr, "feasible": feasible, "model": model,
        "state_specs": state_specs, "reward_specs": reward_specs, "tc": tc,
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
    return trace


def run_experiment(cfg):
    """Execute one method on one environment; returns Metrics and writes
    all run artifacts into cfg.out_dir."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    seeds = derive_seeds(cfg.seed)
    init = initial_system(cfg, seeds)
    trace = load_or_generate_trace(cfg, seeds)

    predictor = (RandomGuessPredictor(seeds["random_pred"]) if cfg.method == "random"
                 else MLPPredictor(init["phi0"]))
    repair_cfg = RepairConfig(
        sample_sizes=dict(zip(perception.CE_ROLES, cfg.dataset_sizes)),
        train_config=init["tc"], test_gate=cfg.monitor.threshold_2,
        param_space=cfg.param_space, model=init["model"],
        state_specs=init["state_specs"], reward_specs=init["reward_specs"],
        base_valuation=cfg.constants.valuation())
    rt = DualRuntime(SystemState(init["phi0"], init["kappa0"], 0), predictor,
                     init["datasets"], repair_cfg)

    world = World(trace, t_move=cfg.constants.t_move, t_wait=cfg.constants.t_wait)
    monitor = Monitor(cfg.monitor)
    rng_action = np.random.default_rng(seeds["action"])

    correct = attempts = collisions = completed = 0
    total_done_time = 0.0
    series = []
    repairs_signalled = repairs_accepted = 0
    step_rows = []

    while monitor.queries < cfg.steps:
        rec = world.step(rt, rng_action)
        for (x, pred, truth) in rec.observations:
            monitor.observe(Observation(tuple(x), pred, truth, monitor.queries + 1))
            if pred == truth:
                correct += 1
        collided = rec.outcome == "collision"
        attempts += 1
        collisions += 1 if collided else 0
        if not collided:
            completed += 1
            total_done_time += rec.elapsed
        monitor.record_outcome(collided, rec.elapsed)
        step = monitor.queries
        monitor.log_trace_row(step, rec.observations[-1][1] if rec.observations else "",
                              rec.observations[-1][2] if rec.observations else "")
        step_rows.append([step, rec.outcome, rec.elapsed, rec.waits, rec.queries])

        # first step boundary at/after each monitoring-period boundary
        if monitor.at_period_boundary():
            decision = monitor.evaluate()
            series.append([len(series), decision.period_accuracy, decision.safety_rate,
                           decision.mean_time])
            if cfg.method == "sa" and decision.repair and not decision.skipped:
                ce = monitor.drain_counterexamples()
                if len(ce):
                    repairs_signalled += 1
                    rt.signal_repair(ce, decision.reasons, step)
                    accepted = rt.finish_repair(step)
                    repairs_accepted += 1 if accepted else 0
            else:
                monitor.reset_period()

    metrics = Metrics(
        accuracy=correct / monitor.queries if monitor.queries else float("nan"),
        safety_rate=1.0 - collisions / attempts if attempts else 1.0,
        mean_step_time=total_done_time / completed if completed else float("nan"),
        queries=monitor.queries, attempts=attempts, collisions=collisions,
        completed=completed, repairs_signalled=repairs_signalled,
        repairs_accepted=repairs_accepted,
        unserved=rt.unserved,
        series=series)

    _write_outputs(cfg, seeds, init, world, monitor, rt, metrics, step_rows)
    return metrics


def run_comparison(base_cfg):
    """Run every method in METHODS on one shared trace: each writes into
    <base_cfg.out_dir>/<method>, and the trace is <base_cfg.out_dir>/trace.csv.
    Returns {method: Metrics}."""
    out, trace = base_cfg.out_dir, os.path.join(base_cfg.out_dir, "trace.csv")
    return {m: run_experiment(replace(base_cfg, method=m, out_dir=os.path.join(out, m),
                                      trace_path=trace))
            for m in METHODS}


def _config_hash(cfg):
    payload = json.dumps({
        "method": cfg.method, "environment": cfg.environment, "steps": cfg.steps,
        "seed": cfg.seed, "dataset_sizes": list(cfg.dataset_sizes),
        "c0": list(cfg.c0.as_tuple()), "eps0": cfg.eps0,
        "monitor": asdict(cfg.monitor), "constants": asdict(cfg.constants),
        "oracle": asdict(cfg.oracle),
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _write_outputs(cfg, seeds, init, world, monitor, rt, metrics, step_rows):
    out = cfg.out_dir
    with open(os.path.join(out, "metrics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for key in ("accuracy", "safety_rate", "mean_step_time", "queries",
                    "attempts", "collisions", "completed", "repairs_signalled",
                    "repairs_accepted", "unserved"):
            writer.writerow([key, getattr(metrics, key)])
    with open(os.path.join(out, "periods.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "accuracy", "safety_rate", "mean_time"])
        writer.writerows(metrics.series)
    with open(os.path.join(out, "steps.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "outcome", "elapsed", "waits", "queries"])
        writer.writerows(step_rows)
    monitor.write_trace(os.path.join(out, "monitor_trace.csv"))
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
        with open(meta_path) as fh:
            meta = json.load(fh)
        values = {}
        with open(metrics_path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for key, value in reader:
                values[key] = value
        rows.append([os.path.basename(os.path.normpath(d)), meta["method"],
                     meta["environment"], values["accuracy"], values["safety_rate"],
                     values["mean_step_time"], values["repairs_accepted"]])
    return header, rows


def format_table(header, rows):
    widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows])
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
