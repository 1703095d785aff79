"""Controller-parameter discretization and grid synthesis.

The candidate grid is swept through the model checker; the filter keeps
the safest candidate among those meeting every reward bound, with a total
tie-break order so synthesis is deterministic.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import pmc


class SynthesisError(Exception):
    pass


@dataclass(frozen=True)
class ParamSpace:
    """Per-dimension bounds and point counts for the controller parameters."""

    names: tuple = ("c1", "c2")
    bounds: tuple = ((0.0, 1.0), (0.0, 1.0))
    counts: tuple = (11, 11)

    def __post_init__(self):
        if not (len(self.names) == len(self.bounds) == len(self.counts)):
            raise SynthesisError("dimension mismatch in parameter space")
        for (a, b), m in zip(self.bounds, self.counts):
            if a >= b:
                raise SynthesisError(f"degenerate bounds [{a}, {b}]")
            if m < 2:
                raise SynthesisError("need at least 2 points per dimension")


@dataclass(frozen=True)
class CandidateGrid:
    """Lexicographically ordered grid of candidate parameter vectors."""

    dim_names: tuple
    candidates: tuple       # of tuples


def discretize(space):
    """Exact grid points a_i + k_i * delta_i, lexicographic, no duplicates."""
    axes = []
    for (a, b), m in zip(space.bounds, space.counts):
        delta = (b - a) / (m - 1)
        axes.append([a + k * delta for k in range(m)])
    candidates = [()]
    for axis in axes:
        candidates = [c + (v,) for c in candidates for v in axis]
    return CandidateGrid(dim_names=tuple(space.names), candidates=tuple(candidates))


def filter_optimal(grid, qr, state_specs, reward_specs):
    """Pick the best candidate under the synthesis objective.

    Among candidates meeting every reward bound, maximize the first state
    spec's probability; ties break toward lower first-reward expectation,
    then lexicographic candidate order.  When no candidate meets the reward
    bounds, return the max-safety candidate with feasibility False.  The
    candidate returned is the grid's own tuple.
    """
    if len(qr.rows) != len(grid.candidates) or list(qr.candidates) != list(grid.candidates):
        raise SynthesisError("QR table is not aligned with the candidate grid")
    rows, n_state = qr.rows, len(state_specs)
    meets = np.ones(len(rows), dtype=bool)
    for j, spec in enumerate(reward_specs):
        meets &= spec.satisfied(rows[:, n_state + j])
    feasible_rewards = bool(meets.any())
    pool = meets if feasible_rewards else np.ones(len(rows), dtype=bool)
    safety = rows[:, 0] if n_state else np.ones(len(rows))
    reward = rows[:, n_state] if reward_specs else np.zeros(len(rows))
    pool &= safety == safety[pool].max()
    pool &= reward == reward[pool].min()
    best = min(np.flatnonzero(pool), key=lambda i: grid.candidates[i])
    all_bounds = feasible_rewards and all(
        spec.satisfied(v) for spec, v in zip(state_specs, rows[best, :n_state]))
    return grid.candidates[best], all_bounds


def synthesize(u, model, space, state_specs, reward_specs, base_valuation=None):
    """discretize -> quantify -> filter; returns (candidate, QR table, feasible)."""
    grid = discretize(space)
    qr = pmc.quantify_candidates(model, u, grid, state_specs, reward_specs,
                                 base_valuation=base_valuation)
    cand, feasible = filter_optimal(grid, qr, state_specs, reward_specs)
    return cand, qr, feasible


def write_report(path, qr, chosen, feasible):
    """Synthesis report CSV: one row per candidate plus a chosen-marker column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(qr.dim_names) + qr.columns + ["chosen", "feasible"])
        for cand, row in zip(qr.candidates, qr.rows.tolist()):
            mark = 1 if cand == tuple(chosen) else 0
            writer.writerow(list(cand) + list(row) + [mark, int(feasible) if mark else ""])
