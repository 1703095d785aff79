"""Embedded probabilistic model checker for concrete DTMCs.

Supports constrained reachability P[!avoid U target] and expected
cumulated transition reward to an absorption set, both computed by graph
precomputation followed by a dense linear solve.  Both also take a stack of
chains: members are grouped by support pattern (P > 0), the precomputation
runs once per pattern and its systems are solved as one stack.  A single
chain is the stack of one, so a member gets the bits it gets alone.  A
Monte-Carlo path sampler acts as an independent oracle for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pdtmc import instantiate

RESIDUAL_TOL = 1e-10
PATH_STEP_CAP = 1_000_000
#: candidates per stack in quantify_candidates; bounds the memory of a large grid
STACK_SIZE = 128


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

    dim_names: tuple           # names of the candidate components
    candidates: list           # of tuples (candidate components)
    columns: list              # spec display names, state specs first
    rows: np.ndarray           # (candidates x columns) floats; math.inf allowed for rewards

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if len(self.rows) != len(self.candidates):
            raise CheckError("QR table rows must align with candidates")

    def row_for(self, candidate):
        """The row of one candidate as a list of floats."""
        return self.rows[self.candidates.index(tuple(candidate))].tolist()


# ---------------------------------------------------------------------------
# Graph helpers
# ---------------------------------------------------------------------------

def _backward_reachable(edge, sources, allowed):
    """Mask of the states in `allowed` from which some state of the mask
    `sources` is reachable through `allowed` states (sources included), over
    the boolean support matrix `edge`."""
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
    outside = _backward_reachable(P.T > 0.0, np.arange(len(P)) == start, ~stop)
    reaches = _backward_reachable(P > 0.0, stop, np.ones(len(P), dtype=bool))
    stuck = [chain.names[i] for i in np.flatnonzero(outside & ~reaches)]
    if stuck:
        raise CheckError(f"chain is not absorbing: states {stuck} reachable from "
                         f"{chain.names[start]!r} cannot reach the {what} states")


def _label_mask(chain, labels):
    """Mask of the states carrying any of `labels`."""
    mask = np.zeros(len(chain.names), dtype=bool)
    for label in labels:
        if label not in chain.labels or not chain.labels[label].any():
            raise CheckError(f"no state carries label {label!r}")
        mask |= chain.labels[label]
    return mask


def _groups(masks):
    """(mask, indices of the entries equal to it) per distinct mask of a stack."""
    members = {}
    for i, key in enumerate(map(bytes, np.packbits(masks, axis=-1))):
        members.setdefault(key, []).append(i)
    return [(masks[ids[0]], np.array(ids)) for ids in members.values()]


def _solve(A, b):
    """Dense solve of A x = b, or of a stack of them, with a residual check.
    After graph precomputation every system is nonsingular, so a singular
    one or a large residual is an ill-posed query."""
    try:
        x = np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise CheckError(f"singular system after precomputation ({exc})") from None
    residual = np.max(np.abs((A @ x[..., None])[..., 0] - b))
    if not residual <= RESIDUAL_TOL:
        raise CheckError(f"linear solve residual {residual} exceeds {RESIDUAL_TOL}")
    return x


def _solve_reach(P, yes, unknown):
    """Per matrix of the stack P: x = 1 on the mask `yes`, x = P x on the
    mask `unknown`, 0 elsewhere."""
    x = np.tile(yes.astype(float), (len(P), 1))
    idx = np.flatnonzero(unknown)
    if len(idx):
        A = np.eye(len(idx)) - P[:, idx[:, None], idx]
        x[:, idx] = _solve(A, P[:, idx[:, None], np.flatnonzero(yes)].sum(axis=2))
    return x


def _stack(chain):
    """P of a chain or a stack as a (K, n, n) stack."""
    return chain.P.reshape((-1,) + chain.P.shape[-2:])


def _per_chain(chain, values):
    """A float for a chain, the array of per-member values for a stack."""
    return values if chain.P.ndim == 3 else float(values[0])


# ---------------------------------------------------------------------------
# Core queries
# ---------------------------------------------------------------------------

def until_probability(chain, avoid, target):
    """Probability of !avoid U target from the initial state."""
    is_target = _label_mask(chain, [target])
    # target wins when a state carries both labels
    is_avoid = _label_mask(chain, [avoid]) & ~is_target
    P = _stack(chain)
    x = np.empty(len(P))
    for edge, members in _groups(P > 0.0):
        # prob-0: cannot reach target through non-avoid states
        prob0 = ~_backward_reachable(edge, is_target, ~is_avoid) | is_avoid
        prob0[is_target] = False
        # prob-1: cannot stray into a prob-0 state before hitting target
        prob1 = ~_backward_reachable(edge, prob0, ~is_target) & ~prob0
        prob1[is_target] = True
        x[members] = _solve_reach(P[members], prob1, ~prob0 & ~prob1)[:, chain.initial]
    return _per_chain(chain, np.clip(x, 0.0, 1.0))


def expected_reward_to_absorption(chain, targets):
    """Expected cumulated transition reward until first entering any
    target-labelled state; math.inf when the set is not reached almost surely."""
    is_target = _label_mask(chain, targets)
    P = _stack(chain)
    n = P.shape[1]
    # per-state one-step expected reward
    r = (P * chain.R).sum(axis=2)
    y = np.full(len(P), math.inf)
    for edge, members in _groups(P > 0.0):
        # reachability probability of the target set from every state
        reach = _backward_reachable(edge, is_target, np.ones(n, dtype=bool))
        x = _solve_reach(P[members], is_target, ~is_target & reach)
        sure = ~(x[:, chain.initial] < 1.0 - 1e-9)
        # expected reward: y = r + P y over the states that reach the target
        # set almost surely (y = 0 on targets), grouped by that set
        rel_masks = ~is_target & (x[sure] > 1.0 - 1e-9)
        for mask, sub in _groups(rel_masks):
            ids, rel = members[sure][sub], np.flatnonzero(mask)
            full = np.zeros((len(ids), n))
            if len(rel):
                full[:, rel] = _solve(np.eye(len(rel)) - P[np.ix_(ids, rel, rel)],
                                      r[np.ix_(ids, rel)])
            y[ids] = full[:, chain.initial]
    return _per_chain(chain, y)


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
    Candidates are checked in stacks of STACK_SIZE; a stack that fails is
    checked again one candidate at a time, so the error names the first
    failing candidate and its own message.
    """
    if not grid.candidates:
        raise CheckError("empty candidate grid")
    base = dict(base_valuation or {})
    base.update(u.as_valuation())
    columns = [s.name for s in state_specs] + [s.name for s in reward_specs]

    def check(values):
        chain = instantiate(model, {**base, **dict(zip(grid.dim_names, values))})
        return np.array([until_probability(chain, s.avoid, s.target) for s in state_specs]
                        + [expected_reward_to_absorption(chain, s.targets)
                           for s in reward_specs]).T

    points = np.array(grid.candidates, dtype=float)
    rows = np.empty((len(points), len(columns)))
    for start in range(0, len(points), STACK_SIZE):
        stop = min(start + STACK_SIZE, len(points))
        try:
            rows[start:stop] = check(points[start:stop].T)
        except Exception:
            for i in range(start, stop):
                try:
                    check(grid.candidates[i])
                except Exception as exc:
                    raise CheckError(f"candidate {i} ({grid.candidates[i]}): {exc}") from exc
            raise
    return QRTable(dim_names=tuple(grid.dim_names),
                   candidates=[tuple(c) for c in grid.candidates], columns=columns, rows=rows)
