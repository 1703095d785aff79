"""Embedded probabilistic model checker for concrete DTMCs.

Supports constrained reachability P[!avoid U target] and expected
cumulated transition reward to an absorption set, both computed by graph
precomputation followed by a dense linear solve.  A Monte-Carlo path
sampler acts as an independent oracle for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pdtmc import instantiate

RESIDUAL_TOL = 1e-10
PATH_STEP_CAP = 1_000_000


class CheckError(Exception):
    """Raised for ill-posed model-checking queries."""


@dataclass(frozen=True)
class StateSpec:
    """Constrained-reachability bound: P[!avoid U target] >= bound."""

    avoid: str
    target: str
    bound: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.bound <= 1.0:
            raise CheckError("probability bound must lie in [0, 1]")

    def satisfied(self, value):
        return value >= self.bound

    @property
    def name(self):
        return f"P[!{self.avoid} U {self.target}]"


@dataclass(frozen=True)
class RewardSpec:
    """Expected-reward bound: R[F targets] <= bound."""

    targets: frozenset
    bound: float = 15.0

    def __post_init__(self):
        if self.bound < 0:
            raise CheckError("reward bound must be nonnegative")

    def satisfied(self, value):
        return value <= self.bound

    @property
    def name(self):
        return f"R[F {'|'.join(sorted(self.targets))}]"


@dataclass
class QRTable:
    """Per-candidate quantification results, aligned with the candidate grid."""

    candidates: list           # of tuples (candidate components)
    columns: list              # spec display names, state specs first
    rows: list                 # of lists of floats (math.inf allowed for rewards)

    def __post_init__(self):
        if len(self.rows) != len(self.candidates):
            raise CheckError("QR table rows must align with candidates")

    def row_for(self, candidate):
        return self.rows[self.candidates.index(tuple(candidate))]


# ---------------------------------------------------------------------------
# Graph helpers
# ---------------------------------------------------------------------------

def _backward_reachable(P, sources, allowed):
    """Mask of the states in `allowed` from which some state of the mask
    `sources` is reachable through `allowed` states (sources included)."""
    edge = P > 0.0
    reached = sources
    while True:
        grown = reached | (allowed & (edge @ reached))
        if (grown == reached).all():
            return grown
        reached = grown


def _check_absorbing(chain, stop, what):
    """Raise when a state reachable from the initial state without entering
    the `stop` set cannot reach that set, so a sampled path could stay out
    forever."""
    P, start = chain.P, chain.initial
    if stop[start]:
        return
    outside = _backward_reachable(P.T, np.arange(len(P)) == start, ~stop)
    reaches = _backward_reachable(P, stop, np.ones(len(P), dtype=bool))
    stuck = [chain.names[i] for i in np.flatnonzero(outside & ~reaches)]
    if stuck:
        raise CheckError(f"chain is not absorbing: states {stuck} reachable from "
                         f"{chain.names[start]!r} cannot reach the {what} states")


def _label_mask(chain, labels):
    """Mask of the states carrying any of `labels`."""
    mask = np.zeros(len(chain.P), dtype=bool)
    for label in labels:
        if label not in chain.labels or not chain.labels[label].any():
            raise CheckError(f"no state carries label {label!r}")
        mask |= chain.labels[label]
    return mask


def _solve(A, b):
    """Dense solve with residual check.  After graph precomputation the
    system is nonsingular, so a singular one or a large residual is an
    ill-posed query."""
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise CheckError(f"singular system after precomputation ({exc})") from None
    residual = np.max(np.abs(A @ x - b)) if len(b) else 0.0
    if not np.isfinite(residual) or residual > RESIDUAL_TOL:
        raise CheckError(f"linear solve residual {residual} exceeds {RESIDUAL_TOL}")
    return x


def _solve_reach(P, yes, unknown):
    """x = 1 on the mask `yes`, x = P x on the mask `unknown`, 0 elsewhere."""
    x = yes.astype(float)
    idx = np.flatnonzero(unknown)
    if len(idx):
        A = np.eye(len(idx)) - P[np.ix_(idx, idx)]
        x[idx] = _solve(A, P[np.ix_(idx, np.flatnonzero(yes))].sum(axis=1))
    return x


# ---------------------------------------------------------------------------
# Core queries
# ---------------------------------------------------------------------------

def until_probability(chain, avoid, target):
    """Probability of !avoid U target from the initial state."""
    P = chain.P
    is_target = _label_mask(chain, [target])
    # target wins when a state carries both labels
    is_avoid = _label_mask(chain, [avoid]) & ~is_target

    # prob-0: cannot reach target through non-avoid states
    prob0 = ~_backward_reachable(P, is_target, ~is_avoid) | is_avoid
    prob0[is_target] = False
    # prob-1: cannot stray into a prob-0 state before hitting target
    prob1 = ~_backward_reachable(P, prob0, ~is_target) & ~prob0
    prob1[is_target] = True

    x = _solve_reach(P, prob1, ~prob0 & ~prob1)
    return float(np.clip(x[chain.initial], 0.0, 1.0))


def expected_reward_to_absorption(chain, targets):
    """Expected cumulated transition reward until first entering any
    target-labelled state; math.inf when the set is not reached almost surely."""
    P = chain.P
    is_target = _label_mask(chain, targets)

    # reachability probability of the target set from every state
    reach = _backward_reachable(P, is_target, np.ones(len(P), dtype=bool))
    x = _solve_reach(P, is_target, ~is_target & reach)
    if x[chain.initial] < 1.0 - 1e-9:
        return math.inf

    # expected reward: y = r + P y over non-target states (y = 0 on targets),
    # with r the per-state one-step expected reward
    r = (P * chain.R).sum(axis=1)
    rel = np.flatnonzero(~is_target & (x > 1.0 - 1e-9))
    y = np.zeros(len(P))
    if len(rel):
        y[rel] = _solve(np.eye(len(rel)) - P[np.ix_(rel, rel)], r[rel])
    return float(y[chain.initial])


def simulate_chain(chain, n, seed, avoid="collision", target="done",
                   reward_targets=("done", "collision"), with_std=False):
    """Monte-Carlo oracle: sample `n` paths to absorption and report the
    empirical (until probability, mean reward to the reward-target set).

    With with_std=True a third element gives the sample standard deviation
    of the per-path rewards, for confidence-bound construction."""
    if n < 1:
        raise CheckError("need at least one path")
    P, R = chain.P, chain.R
    rng = np.random.default_rng(seed)
    is_target = _label_mask(chain, [target])
    is_avoid = _label_mask(chain, [avoid]) & ~is_target
    is_reward_stop = _label_mask(chain, reward_targets)
    _check_absorbing(chain, is_target | is_avoid, f"{target}/{avoid}")
    _check_absorbing(chain, is_reward_stop, "|".join(reward_targets))

    n_states = len(P)
    cum = np.cumsum(P, axis=1)
    # all paths advance in lockstep; a path stops once its until verdict is
    # known and it has entered the reward-target set
    s = np.full(n, chain.initial)
    verdict = np.zeros(n, dtype=np.int8)          # 0 unknown, 1 sat, -1 unsat
    collecting = np.ones(n, dtype=bool)
    rewards = np.zeros(n)
    for _ in range(PATH_STEP_CAP):
        verdict = np.where((verdict == 0) & is_target[s], 1, verdict)
        verdict = np.where((verdict == 0) & is_avoid[s], -1, verdict)
        collecting &= ~is_reward_stop[s]
        active = ~((verdict != 0) & ~collecting)
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        draws = rng.random(len(idx))
        nxt = (cum[s[idx]] < draws[:, None]).sum(axis=1)
        nxt = np.minimum(nxt, n_states - 1)
        take = collecting[idx]
        rewards[idx[take]] += R[s[idx][take], nxt[take]]
        s[idx] = nxt
    else:
        raise CheckError(f"paths hit the {PATH_STEP_CAP}-step cap; chain may not be absorbing")
    if with_std:
        return (float(np.mean(verdict == 1)), float(np.mean(rewards)),
                float(np.std(rewards, ddof=1)) if n > 1 else 0.0)
    return float(np.mean(verdict == 1)), float(np.mean(rewards))


def quantify_candidates(model, u, grid, state_specs, reward_specs, base_valuation=None):
    """Instantiate every grid candidate and evaluate all specs.

    `u` provides the perception rates (`u.as_valuation()`); `base_valuation`
    supplies any remaining model parameters (e.g. environment constants).
    """
    if not grid.candidates:
        raise CheckError("empty candidate grid")
    base = dict(base_valuation or {})
    base.update(u.as_valuation())
    columns = [s.name for s in state_specs] + [s.name for s in reward_specs]
    rows = []
    for i, cand in enumerate(grid.candidates):
        valuation = dict(base)
        for name, value in zip(grid.dim_names, cand):
            valuation[name] = value
        try:
            chain = instantiate(model, valuation)
            row = [until_probability(chain, s.avoid, s.target) for s in state_specs]
            row += [expected_reward_to_absorption(chain, s.targets) for s in reward_specs]
        except Exception as exc:
            raise CheckError(f"candidate {i} ({cand}): {exc}") from exc
        rows.append(row)
    return QRTable(candidates=[tuple(c) for c in grid.candidates], columns=columns, rows=rows)
