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
    """Constrained-reachability bound: P[!avoid U target] {>=,<=} bound."""

    avoid: str
    target: str
    comparison: str = ">="
    bound: float = 0.9

    def __post_init__(self):
        if self.comparison not in (">=", "<="):
            raise CheckError(f"bad comparison {self.comparison!r}")
        if not 0.0 <= self.bound <= 1.0:
            raise CheckError("probability bound must lie in [0, 1]")

    def satisfied(self, value):
        return value >= self.bound if self.comparison == ">=" else value <= self.bound

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

def _index_chain(chain):
    states = list(chain.states)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    P = np.zeros((n, n))
    for (src, dst), p in chain.probs.items():
        P[index[src], index[dst]] += p
    return states, index, P


def _backward_reachable(P, sources, allowed):
    """States in `allowed` from which some state in `sources` is reachable
    through `allowed` states (sources included)."""
    n = P.shape[0]
    reached = np.zeros(n, dtype=bool)
    frontier = [i for i in sources]
    reached[frontier] = True
    pos = (P > 0.0)
    while frontier:
        nxt = []
        for j in frontier:
            for i in np.nonzero(pos[:, j])[0]:
                if allowed[i] and not reached[i]:
                    reached[i] = True
                    nxt.append(i)
        frontier = nxt
    return reached


def _check_absorbing(states, P, start, stop, what):
    """Raise when a state reachable from `start` without entering the `stop`
    set cannot reach that set, so a sampled path could stay out forever."""
    if stop[start]:
        return
    outside = _backward_reachable(P.T, [start], ~stop)
    reaches = _backward_reachable(P, np.nonzero(stop)[0], np.ones(len(states), dtype=bool))
    stuck = [states[i] for i in np.nonzero(outside & ~reaches)[0]]
    if stuck:
        raise CheckError(f"chain is not absorbing: states {stuck} reachable from "
                         f"{states[start]!r} cannot reach the {what} states")


def _label_indices(chain, index, label):
    idxs = [index[s] for s in chain.states_with_label(label)]
    if not idxs:
        raise CheckError(f"no state carries label {label!r}")
    return idxs


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


# ---------------------------------------------------------------------------
# Core queries
# ---------------------------------------------------------------------------

def until_probabilities(chain, avoid, target):
    """Per-state probabilities of !avoid U target, as a dict."""
    states, index, P = _index_chain(chain)
    n = len(states)
    target_idx = _label_indices(chain, index, target)
    avoid_idx = _label_indices(chain, index, avoid)

    is_target = np.zeros(n, dtype=bool)
    is_target[target_idx] = True
    is_avoid = np.zeros(n, dtype=bool)
    is_avoid[avoid_idx] = True
    is_avoid &= ~is_target  # target wins when a state carries both labels

    # prob-0: cannot reach target through non-avoid states
    can_reach = _backward_reachable(P, target_idx, ~is_avoid)
    prob0 = ~can_reach | is_avoid
    prob0[is_target] = False
    # prob-1: cannot stray into a prob-0 state before hitting target
    reaches_bad = _backward_reachable(P, np.nonzero(prob0)[0], ~is_target)
    prob1 = ~reaches_bad & ~prob0
    prob1[is_target] = True

    x = np.zeros(n)
    x[prob1] = 1.0
    unknown = np.nonzero(~prob0 & ~prob1)[0]
    if len(unknown):
        A = np.eye(len(unknown)) - P[np.ix_(unknown, unknown)]
        b = P[np.ix_(unknown, np.nonzero(prob1)[0])].sum(axis=1)
        x[unknown] = _solve(A, b)
    x = np.clip(x, 0.0, 1.0)
    return {s: float(x[index[s]]) for s in states}


def until_probability(chain, avoid, target):
    """Probability of !avoid U target from the initial state."""
    return until_probabilities(chain, avoid, target)[chain.initial]


def expected_reward_to_absorption(chain, targets):
    """Expected cumulated transition reward until first entering any
    target-labelled state; math.inf when the set is not reached almost surely."""
    states, index, P = _index_chain(chain)
    n = len(states)
    target_idx = set()
    for label in targets:
        target_idx.update(_label_indices(chain, index, label))
    is_target = np.zeros(n, dtype=bool)
    is_target[list(target_idx)] = True

    # reachability probability of the target set from every state
    reach = _backward_reachable(P, sorted(target_idx), np.ones(n, dtype=bool))
    x = np.zeros(n)
    x[is_target] = 1.0
    unknown = np.nonzero(~is_target & reach)[0]
    if len(unknown):
        A = np.eye(len(unknown)) - P[np.ix_(unknown, unknown)]
        b = P[np.ix_(unknown, np.nonzero(is_target)[0])].sum(axis=1)
        x[unknown] = _solve(A, b)
    if x[index[chain.initial]] < 1.0 - 1e-9:
        return math.inf

    # per-state one-step expected reward
    r = np.zeros(n)
    for (src, dst), reward in chain.rewards.items():
        p = chain.probs.get((src, dst), 0.0)
        r[index[src]] += p * reward

    # expected reward: y = r + P y over non-target states (y = 0 on targets)
    rel = np.nonzero(~is_target & (x > 1.0 - 1e-9))[0]
    y = np.zeros(n)
    if len(rel):
        A = np.eye(len(rel)) - P[np.ix_(rel, rel)]
        y[rel] = _solve(A, r[rel])
    return float(y[index[chain.initial]])


def simulate_chain(chain, n, seed, avoid="collision", target="done",
                   reward_targets=("done", "collision"), with_std=False):
    """Monte-Carlo oracle: sample `n` paths to absorption and report the
    empirical (until probability, mean reward to the reward-target set).

    With with_std=True a third element gives the sample standard deviation
    of the per-path rewards, for confidence-bound construction."""
    if n < 1:
        raise CheckError("need at least one path")
    states, index, P = _index_chain(chain)
    rng = np.random.default_rng(seed)
    target_set = set(_label_indices(chain, index, target))
    avoid_set = set(_label_indices(chain, index, avoid)) - target_set
    reward_set = set()
    for label in reward_targets:
        reward_set.update(_label_indices(chain, index, label))
    reward_lookup = {(index[s], index[d]): w for (s, d), w in chain.rewards.items()}

    n_states = len(states)
    cum = np.cumsum(P, axis=1)
    R = np.zeros((n_states, n_states))
    for (i, j), w in reward_lookup.items():
        R[i, j] = w
    is_target = np.zeros(n_states, dtype=bool)
    is_target[list(target_set)] = True
    is_avoid = np.zeros(n_states, dtype=bool)
    is_avoid[list(avoid_set)] = True
    is_reward_stop = np.zeros(n_states, dtype=bool)
    is_reward_stop[list(reward_set)] = True
    start = index[chain.initial]
    _check_absorbing(states, P, start, is_target | is_avoid, f"{target}/{avoid}")
    _check_absorbing(states, P, start, is_reward_stop, "|".join(reward_targets))

    # all paths advance in lockstep; a path stops once its until verdict is
    # known and it has entered the reward-target set
    s = np.full(n, start)
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
