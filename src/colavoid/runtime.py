"""Dual-component runtime: one component predicts while its twin repairs.

Both components carry the full prediction and repair machinery; exactly
one prediction module is active at any instant.  A keyed cache mediates
repair signals, drained counterexamples and published state snapshots;
role swap happens at a step boundary after an accepted repair.

The repair pipeline itself is deterministic, so the threaded mode (repair
on a worker thread, joined at the same step boundary) and the sequential
fallback produce identical experiment metrics for identical seeds.
"""

from __future__ import annotations

import csv
import threading
from dataclasses import dataclass, field, replace

from . import perception, pmc, synthesis, uq
from .perception import MLPPredictor, TrainConfig


class RuntimeError_(Exception):
    pass


@dataclass(frozen=True)
class SystemState:
    """Versioned (perception parameters, controller parameters) pair."""

    phi: object              # MLPParams
    kappa: tuple             # (c1, c2)
    version: int = 0


@dataclass
class Component:
    name: str                          # "A" | "B"
    prediction_active: bool
    repair_active: bool = False
    state: SystemState = None

    def __post_init__(self):
        if self.prediction_active and self.repair_active:
            raise RuntimeError_("a component cannot run both modules at once")


class Cache:
    """Keyed store with atomic snapshot publication."""

    def __init__(self):
        self._lock = threading.Lock()
        self._store = {}

    def put(self, key, value):
        with self._lock:
            self._store[key] = value

    def take(self, key):
        with self._lock:
            return self._store.pop(key, None)


@dataclass
class RepairConfig:
    """Everything the three-phase repair pipeline needs."""

    ce_ratios: tuple = (0.4, 0.2, 0.2, 0.2)
    sample_sizes: dict = field(default_factory=lambda: {
        "train": 4000, "val": 1000, "confusion": 1000, "test": 1000})
    train_config: TrainConfig = field(default_factory=TrainConfig)
    test_gate: float = 0.8             # threshold_2
    param_space: object = None         # synthesis.ParamSpace
    model: object = None               # PDTMC
    state_specs: tuple = ()
    reward_specs: tuple = ()
    base_valuation: dict = field(default_factory=dict)


class DualRuntime:
    """Two functionally identical components plus the shared cache."""

    def __init__(self, initial_state, datasets, repair_cfg, threaded=False):
        self.components = {
            "A": Component("A", prediction_active=True, state=initial_state),
            "B": Component("B", prediction_active=False, state=initial_state),
        }
        self.datasets = dict(datasets)   # role -> master Dataset (grows over repairs)
        self.working = dict(datasets)    # role -> current working Dataset
        self.cfg = repair_cfg
        self.cache = Cache()
        self.threaded = threaded
        self.repair_in_flight = False
        self.events = []                 # (step, active, version, event, detail)
        self.unserved = 0
        self._repair_seed = 0
        self._thread = None
        self._predictor = MLPPredictor(initial_state.phi)

    # -- prediction side ---------------------------------------------------

    @property
    def active(self):
        active = [c for c in self.components.values() if c.prediction_active]
        if len(active) != 1:
            raise RuntimeError_(f"{len(active)} active prediction modules")
        return active[0]

    @property
    def state(self):
        return self.active.state

    def predict(self, x):
        return self._predictor.predict(x)

    def move_probability(self, prediction):
        kappa = self.state.kappa
        return kappa[0] if prediction == 0 else kappa[1]

    # -- repair side -------------------------------------------------------

    def signal_repair(self, ce, reasons, step):
        """Monitor-issued repair signal; ignored while one is in flight."""
        if self.repair_in_flight:
            self._log(step, "signal_suppressed", ",".join(sorted(reasons)))
            return False
        self.cache.put("repair_signal", {"ce": ce, "reasons": reasons, "step": step})
        self._log(step, "signal", ",".join(sorted(reasons)))
        self.repair_in_flight = True
        spare = [c for c in self.components.values() if not c.prediction_active][0]
        spare.repair_active = True
        if self.threaded:
            self._thread = threading.Thread(target=self._repair_worker)
            self._thread.start()
        else:
            self._repair_worker()
        return True

    def _repair_worker(self):
        signal = self.cache.take("repair_signal")
        result = self.run_repair(signal["ce"], signal["step"])
        self.cache.put("repair_result", result)

    def run_repair(self, ce, step):
        """Three-phase pipeline: dataset update + retrain, uncertainty
        quantification, synthesis.  Returns (accepted, new state or None)."""
        cfg = self.cfg
        self._repair_seed += 1
        seed = cfg.train_config.seed + 1000 * self._repair_seed
        try:
            parts = perception.split_counterexamples(ce, cfg.ce_ratios, seed=seed)
            for part in parts:
                self.datasets[part.role] = perception.merge_datasets(
                    self.datasets[part.role], part)
            working = {
                role: perception.sample_dataset(self.datasets[role],
                                                cfg.sample_sizes[role], seed + i)
                for i, role in enumerate(("train", "val", "confusion", "test"))
            }
            tc = replace(cfg.train_config, seed=seed)
            phi = perception.train(seed, working["train"], working["val"], tc)
            test_acc = uq.accuracy(MLPPredictor(phi), working["test"])
            if test_acc < cfg.test_gate:
                self._log(step, "reject", f"test_accuracy={test_acc:.4f}")
                return (False, None)
            matrix = uq.evaluate_confusion(MLPPredictor(phi), working["confusion"])
            u = uq.quantify(matrix)
            kappa, _, feasible = synthesis.synthesize(
                u, cfg.model, cfg.param_space, cfg.state_specs, cfg.reward_specs,
                base_valuation=cfg.base_valuation)
            self.working = working
            new_state = SystemState(phi, kappa, self.state.version + 1)
            self.cache.put("published_state", new_state)
            self._log(step, "accept",
                      f"test_accuracy={test_acc:.4f};kappa={kappa};feasible={feasible}")
            return (True, new_state)
        except (perception.PerceptionError, uq.QuantifyError,
                synthesis.SynthesisError, pmc.CheckError) as exc:
            self._log(step, "reject", f"error={exc}")
            return (False, None)

    def _log(self, step, event, detail):
        self.events.append((step, self.active.name, self.state.version, event, detail))

    def finish_repair(self, step):
        """Collect the repair result at a step boundary; swap on accept."""
        if not self.repair_in_flight:
            return None
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        result = self.cache.take("repair_result")
        if result is None:
            return None
        accepted, new_state = result
        spare = [c for c in self.components.values() if not c.prediction_active][0]
        spare.repair_active = False
        if accepted:
            spare.state = new_state
            self.swap_roles(step)
        self.repair_in_flight = False
        return accepted

    def swap_roles(self, step=None):
        """Activate the repaired component's prediction module."""
        published = self.cache.take("published_state")
        if published is None:
            self._log(step, "swap_noop", "no completed repair")
            return self
        old_active = self.active
        new_active = [c for c in self.components.values() if c is not old_active][0]
        # flip both flags together so there is never zero or two active modules
        old_active.prediction_active, new_active.prediction_active = False, True
        self._predictor = MLPPredictor(new_active.state.phi)
        self._log(step, "swap", f"{old_active.name}->{new_active.name}")
        self.active  # assert exactly-one-active
        return self

    def assert_invariants(self):
        active = [c for c in self.components.values() if c.prediction_active]
        assert len(active) == 1, "exactly one prediction module must be active"
        for c in self.components.values():
            assert not (c.prediction_active and c.repair_active)

    def write_event_log(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "active", "version", "event", "detail"])
            writer.writerows(self.events)
