"""Embedded probabilistic model checker for concrete DTMCs.

Supports constrained reachability P[!avoid U target] and expected
cumulated transition reward to an absorption set, both computed by one
graph precomputation (the prob0/prob1 states, which alone decide
almost-sure reachability) followed by a dense linear solve.  Both also
take a stack of chains and check it in one pass: one precomputation over
the whole support stack and one stacked solve, each member's system the
leading block of an identity-padded matrix.  A single chain is the stack of
one, and a member gets the bits it gets alone.  A Monte-Carlo path sampler
acts as an independent oracle for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pdtmc import instantiate

#: largest normwise backward error a linear solve may leave, of order n * eps
RESIDUAL_TOL = 1e-12
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
    candidates: tuple          # the grid's candidate tuples, in grid order
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
    the boolean support matrix `edge`, or per member of a stack of them."""
    reached = sources
    while True:
        grown = reached | (allowed & (edge @ reached[..., None])[..., 0])
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


def _prob01(edge, is_avoid, is_target):
    """(K, n) masks (prob0, prob1) of the states that satisfy !avoid U target
    with probability 0 and 1, decided on each member's support in the stack
    `edge` alone (Baier and Katoen, Principles of Model Checking, 2008, section 10.1)."""
    # prob-0: cannot reach target through non-avoid states
    prob0 = (~_backward_reachable(edge, is_target, ~is_avoid) | is_avoid) & ~is_target
    # prob-1: cannot stray into a prob-0 state before hitting target
    prob1 = (~_backward_reachable(edge, prob0, ~is_target) & ~prob0) | is_target
    return prob0, prob1


def _solve(A, b, members=None, own=True):
    """Dense solve of A x = b, or of a stack of them for the chain members
    `members`, with a normwise backward-error check per member over its own
    rows, the mask `own` (Rigal and Gaches, 1967; Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 7.1).  After graph
    precomputation every system is nonsingular, so a singular one or a large
    backward error is an ill-posed query."""
    try:
        x = np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise CheckError(f"singular system after precomputation ({exc})") from None
    residual = np.atleast_1d(np.where(own, np.abs((A @ x[..., None])[..., 0] - b), 0.0)
                             .max(axis=-1))
    scale = (np.where(own, np.abs(A).sum(axis=-1), 0.0).max(axis=-1)
             * np.where(own, np.abs(x), 0.0).max(axis=-1) + np.abs(b).max(axis=-1))
    # an exact solve of x = 0, b = 0 has error 0; a nan residual stays nan
    error = np.divide(residual, scale, out=np.zeros_like(residual), where=residual != 0)
    bad = np.flatnonzero(~(error <= RESIDUAL_TOL))
    if len(bad):
        i = bad[0]
        raise CheckError(f"member {i if members is None else members[i]}: linear solve "
                         f"backward error {error[i]} exceeds {RESIDUAL_TOL}")
    return x


def _solve_at_initial(P, rel, b, initial, members=None):
    """Per member of the stack P, x[initial] of (I - P[rel, rel]) x = b[rel]
    over its state mask `rel`, or 0 where `initial` is not in it, in one
    solve.  A member's system, its states in index order, is the leading
    block of an m x m matrix filled with the identity, which no elimination
    step mixes into the block: a member gets the bits it gets alone."""
    size = rel.sum(axis=1)
    m = size.max(initial=0)
    if m == 0:
        return np.zeros(len(P))
    own = np.arange(m) < size[:, None]
    # each member's rel states first, in index order, then the others
    order = np.argsort(~rel, axis=1, kind="stable")[:, :m]
    k = np.arange(len(P))
    A = np.where(own[:, :, None] & own[:, None, :],
                 np.eye(m) - P[k[:, None, None], order[:, :, None], order[:, None, :]],
                 np.eye(m))
    x = _solve(A, np.where(own, np.take_along_axis(b, order, axis=1), 0.0), members, own)
    # the initial state's place among the member's rel states
    at = np.minimum(rel[:, :initial].sum(axis=1), m - 1)
    return np.where(rel[:, initial], x[k, at], 0.0)


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
    prob0, prob1 = _prob01(P > 0.0, is_avoid, is_target)
    # x = 1 on prob1, x = P x on the unknown states, 0 elsewhere
    x = _solve_at_initial(P, ~prob0 & ~prob1,
                          np.where(prob1[:, None, :], P, 0.0).sum(axis=2), chain.initial)
    return _per_chain(chain, np.clip(np.where(prob1[:, chain.initial], 1.0, x), 0.0, 1.0))


def expected_reward_to_absorption(chain, targets):
    """Expected cumulated transition reward until first entering any
    target-labelled state; math.inf when the set is not reached almost
    surely, which the support graph decides."""
    is_target = _label_mask(chain, targets)
    P = _stack(chain)
    # per-state one-step expected reward
    r = (P * chain.R).sum(axis=2)
    _, sure = _prob01(P > 0.0, np.zeros(P.shape[1], dtype=bool), is_target)
    # y = r + P y over the states that reach the target set almost surely;
    # their successors are targets or such states, and y = 0 on targets
    solved = np.flatnonzero(sure[:, chain.initial])
    y = np.full(len(P), math.inf)
    y[solved] = _solve_at_initial(P[solved], sure[solved] & ~is_target, r[solved],
                                  chain.initial, solved)
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
    return QRTable(dim_names=tuple(grid.dim_names), candidates=grid.candidates,
                   columns=columns, rows=rows)
