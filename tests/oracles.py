"""Test oracles: independent references the library is checked against.

- `simulate_chain` samples paths of a concrete DTMC to absorption, a
  Monte-Carlo estimate of what `pmc` computes exactly.  It decides
  reachability with its own graph search, not the checker's.
- `serialize_model` renders a PDTMC back to the text format, so that
  `parse_model(serialize_model(m)) == m` checks the parser.
- `loss_and_gradients` gives the analytic gradients of one batch by plain
  back-propagation through `perception._forward_pass`, for finite-difference
  checks and for an SGD loop that shares no minibatch code with
  `perception.train`.
"""

import numpy as np

from colavoid import perception as pc
from colavoid.pmc import CheckError, _label_mask

PATH_STEP_CAP = 1_000_000


# ---------------------------------------------------------------------------
# Monte-Carlo path sampler
# ---------------------------------------------------------------------------

def _closure(edge, sources, allowed):
    """Mask of the `sources` and of the `allowed` states that a path from a
    source through `allowed` states reaches, where edge[i, j] is a move i -> j."""
    reached = set(np.flatnonzero(sources).tolist())
    todo = list(reached)
    while todo:
        for j in np.flatnonzero(edge[todo.pop()] & allowed).tolist():
            if j not in reached:
                reached.add(j)
                todo.append(j)
    mask = np.zeros(len(sources), dtype=bool)
    mask[list(reached)] = True
    return mask


def _check_absorbing(chain, stop, what):
    """Raise when a state reachable from the initial state without entering
    the `stop` set cannot reach that set, so a sampled path could stay out
    forever."""
    edge, start = chain.P > 0.0, chain.initial
    if stop[start]:
        return
    outside = _closure(edge, np.arange(len(edge)) == start, ~stop)
    reaches = _closure(edge.T, stop, np.ones(len(edge), dtype=bool))
    stuck = [chain.names[i] for i in np.flatnonzero(outside & ~reaches)]
    if stuck:
        raise CheckError(f"chain is not absorbing: states {stuck} reachable from "
                         f"{chain.names[start]!r} cannot reach the {what} states")


def simulate_chain(chain, n, seed, avoid="collision", target="done",
                   reward_targets=("done", "collision"), with_std=False):
    """Sample `n` paths to absorption and report the empirical (until
    probability, mean reward to the reward-target set).

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


# ---------------------------------------------------------------------------
# Model text writer
# ---------------------------------------------------------------------------

def serialize_model(model):
    """Render a PDTMC to the text format: each expression as its stored
    text, each number as its repr, which the parser's numerals accept."""
    lines = [f"param {d.name} in [{d.lo!r},{d.hi!r}];" for d in model.params.values()]
    for name, labels in model.states.items():
        suffix = f" [{','.join(sorted(labels))}]" if labels else ""
        lines.append(f"state {name}{suffix};")
    lines.append(f"init {model.initial};")
    lines += [f"trans {t.src} -> {t.dst} : {t.expr};" for t in model.transitions]
    lines += [f"reward {src} -> {dst} : {r!r};" for (src, dst), r in model.rewards.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Gradients of the trainer
# ---------------------------------------------------------------------------

def _gradients(weights, acts, p, y, grads_w, grads_b):
    """Writes the mean BCE loss's gradients into grads_w and grads_b."""
    # d loss / d z_out for sigmoid + BCE, with the clip's dead zone respected
    dz = np.maximum(p, 1e-12)
    np.minimum(dz, 1.0 - 1e-12, out=dz)
    dz -= y[:, None]
    dz /= len(y)
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].T, dz, out=grads_w[i])
        np.add.reduce(dz, axis=0, out=grads_b[i])
        if i > 0:
            dz = np.matmul(dz, weights[i].T)
            dz *= acts[i] > 0.0


def loss_and_gradients(params, X_std, y):
    """Mean BCE loss and its gradients w.r.t. every weight and bias;
    X_std must already be standardized."""
    acts, p = pc._forward_pass(params.weights, params.biases, X_std)
    grads_w = [np.empty_like(w) for w in params.weights]
    grads_b = [np.empty_like(b) for b in params.biases]
    _gradients(params.weights, acts, p, y, grads_w, grads_b)
    return pc._bce_loss(p[:, 0], y), grads_w, grads_b
