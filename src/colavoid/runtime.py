"""Dual-component runtime: one component serves while its twin is repaired.

This is the one runtime of every method.  The two components are two
slots of `SystemState`s, named "A" and "B"; `active` is the index of the
one that serves predictions.  A repair signal runs the repair pipeline in
line and holds its (accepted, state) result as pending; `finish_repair`
installs that result at a later step boundary, and on accept the repaired
slot becomes the active one.  Until then the old component keeps serving
and further signals are suppressed.  The baselines are never signalled,
so they serve the predictor they were built with throughout.  The world
calls the serving `predictor` in batches (simenv.World); a swap replaces it.

Repair completion is a step, not a wall-clock event, so a fixed seed
gives the same results however long a repair takes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

from . import perception, pmc, synthesis, uq
from .perception import MLPPredictor, TrainConfig

#: Event-log names of the two slots.
NAMES = ("A", "B")


@dataclass(frozen=True)
class SystemState:
    """Versioned (perception parameters, controller parameters) pair."""

    phi: object              # MLPParams
    kappa: tuple             # (c1, c2)
    version: int = 0


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
    """Two state slots, the active index and at most one pending repair."""

    def __init__(self, initial_state, predictor, datasets, repair_cfg):
        self.states = [initial_state, initial_state]
        self.active = 0
        self.pending = None              # (accepted, state) not yet installed
        self.datasets = dict(datasets)   # role -> master Dataset (grows over repairs)
        self.working = dict(datasets)    # role -> current working Dataset
        self.cfg = repair_cfg
        self.events = []                 # (step, active, version, event, detail)
        self.unserved = 0
        self._repair_seed = 0
        # the serving pair: the active slot's kappa, read on every query, and
        # a predictor (of its phi, or a baseline's own), read on every step
        self.predictor = predictor
        self.kappa = initial_state.kappa

    # -- prediction side ---------------------------------------------------

    @property
    def state(self):
        return self.states[self.active]

    def move_probability(self, prediction):
        return self.kappa[0] if prediction == 0 else self.kappa[1]

    # -- repair side -------------------------------------------------------

    def signal_repair(self, ce, reasons, step):
        """Monitor-issued repair signal: run the repair and hold its result;
        ignored while an earlier result is pending."""
        detail = ",".join(sorted(reasons))
        if self.pending is not None:
            self._log(step, "signal_suppressed", detail)
            return False
        self._log(step, "signal", detail)
        self.pending = self.run_repair(ce, step)
        return True

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
            self._log(step, "accept",
                      f"test_accuracy={test_acc:.4f};kappa={kappa};feasible={feasible}")
            return (True, SystemState(phi, kappa, self.state.version + 1))
        except (perception.PerceptionError, uq.QuantifyError,
                synthesis.SynthesisError, pmc.CheckError) as exc:
            self._log(step, "reject", f"error={exc}")
            return (False, None)

    def finish_repair(self, step):
        """Install the pending result at a step boundary; on accept the
        repaired slot starts serving.  None when nothing is pending."""
        if self.pending is None:
            return None
        (accepted, new_state), self.pending = self.pending, None
        if accepted:
            old, self.active = self.active, 1 - self.active
            self.states[self.active] = new_state
            self.predictor = MLPPredictor(new_state.phi)
            self.kappa = new_state.kappa
            self._log(step, "swap", f"{NAMES[old]}->{NAMES[self.active]}")
        return accepted

    def _log(self, step, event, detail):
        self.events.append((step, NAMES[self.active], self.state.version, event, detail))

    def write_event_log(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "active", "version", "event", "detail"])
            writer.writerows(self.events)
