"""Dual-component runtime: one component serves while its twin is repaired.

This is the one runtime of every method.  The two components are two
slots, named "A" and "B"; `active` is the index of the one that serves
predictions and `state` its `SystemState`.  A repair signal runs the repair
pipeline in line and holds its (accepted, state) result as pending;
`finish_repair` installs that result at a later step boundary, and on
accept the repaired slot becomes the active one.  Until then the old
component keeps serving and further signals are suppressed.  The runtime
counts the signals it runs and the repairs it installs.  The baselines are
never signalled, so they serve the predictor they were built with
throughout.  The world calls the serving `predictor` in batches
(simenv.World); a swap replaces it.

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
#: Most epochs a repair fine-tunes the serving phi for.
REPAIR_EPOCHS = 40


@dataclass(frozen=True)
class SystemState:
    """Versioned (perception parameters, controller parameters) pair."""

    phi: object              # MLPParams
    kappa: tuple             # (c1, c2)
    version: int = 0


@dataclass
class RepairConfig:
    """The run's synthesis problem and the repair's training and test gate."""

    train_config: TrainConfig = field(default_factory=TrainConfig)
    test_gate: float = 0.8             # threshold_2
    param_space: object = None         # synthesis.ParamSpace
    model: object = None               # PDTMC
    state_specs: tuple = ()
    reward_specs: tuple = ()
    base_valuation: dict = field(default_factory=dict)

    def assess(self, phi, confusion_set):
        """Quantify perception parameters `phi` on `confusion_set` and
        synthesize a controller for the rates: (u, kappa, qr, feasible)."""
        u = uq.quantify(uq.evaluate_confusion(MLPPredictor(phi), confusion_set))
        kappa, qr, feasible = synthesis.synthesize(
            u, self.model, self.param_space, self.state_specs, self.reward_specs,
            base_valuation=self.base_valuation)
        return u, kappa, qr, feasible


class DualRuntime:
    """The serving state, the active slot's index, at most one pending
    repair and the counts of repair signals and swaps."""

    def __init__(self, initial_state, predictor, datasets, repair_cfg):
        self.state = initial_state       # the active slot's SystemState
        self.active = 0
        self.pending = None              # (accepted, state) not yet installed
        self.datasets = dict(datasets)   # role -> master Dataset (grows over repairs)
        # a repair resamples each grown master to its initial size
        self.sizes = {role: len(d) for role, d in datasets.items()}
        self.cfg = repair_cfg
        self.events = []                 # (step, active, version, event, detail)
        self.repairs_signalled = 0       # signals that ran a repair
        self.repairs_accepted = 0        # accepted repairs installed (swaps)
        self.unserved = 0
        self._repair_seed = 0
        # the serving pair: the active slot's kappa, read on every query, and
        # a predictor (of its phi, or a baseline's own), read on every step
        self.predictor = predictor
        self.kappa = initial_state.kappa

    # -- prediction side ---------------------------------------------------

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
        self.repairs_signalled += 1
        self.pending = self.run_repair(ce, step)
        return True

    def run_repair(self, ce, step):
        """Three-phase pipeline: dataset update + fine-tuning of the serving
        phi, uncertainty quantification, synthesis.  Returns (accepted, new
        state or None)."""
        cfg = self.cfg
        self._repair_seed += 1
        seed = cfg.train_config.seed + 1000 * self._repair_seed
        try:
            parts = perception.split_counterexamples(ce, seed=seed)
            for role, part in zip(perception.CE_ROLES, parts):
                self.datasets[role] = perception.merge_datasets(self.datasets[role], part)
            working = {
                role: perception.sample_dataset(self.datasets[role],
                                                self.sizes[role], seed + i)
                for i, role in enumerate(perception.CE_ROLES)
            }
            tc = replace(cfg.train_config, seed=seed,
                         epochs=min(cfg.train_config.epochs, REPAIR_EPOCHS))
            phi = perception.train(self.state.phi, working["train"], working["val"], tc)
            test_acc = uq.accuracy(MLPPredictor(phi), working["test"])
            if test_acc < cfg.test_gate:
                self._log(step, "reject", f"test_accuracy={test_acc:.4f}")
                return (False, None)
            _, kappa, _, feasible = cfg.assess(phi, working["confusion"])
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
            self.state = new_state
            self.repairs_accepted += 1
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
