import pytest

from colavoid import harness, perception, uq
from colavoid.pdtmc import (PDTMC, ModelConstants, Transition, instantiate,
                            parse_expr, reference_model)

MATRIX_C = [[2000, 290], [10, 200]]
MATRIX_C_SHIFT = [[1000, 200], [1200, 100]]


@pytest.fixture(scope="session")
def ref_model():
    return reference_model(ModelConstants())


@pytest.fixture
def train_calls(monkeypatch):
    """Wraps perception.train; the list collects each call's (init, cfg)."""
    calls, train = [], perception.train

    def recording(init, train_set, val_set, cfg):
        calls.append((init, cfg))
        return train(init, train_set, val_set, cfg)

    monkeypatch.setattr(perception, "train", recording)
    return calls


@pytest.fixture(scope="session")
def u_initial():
    return uq.quantify(uq.ConfusionMatrix.from_rows(MATRIX_C))


@pytest.fixture(scope="session")
def u_shifted():
    return uq.quantify(uq.ConfusionMatrix.from_rows(MATRIX_C_SHIFT))


def ref_valuation(u, c1, c2, p_collider=0.8, p_occ=0.25):
    val = {"p_collider": p_collider, "p_occ": p_occ, "c1": c1, "c2": c2}
    val.update(u.as_valuation())
    return val


@pytest.fixture(scope="session")
def ref_chain(ref_model, u_initial):
    """Reference model at the default rates with kappa = (1, 0)."""
    return instantiate(ref_model, ref_valuation(u_initial, 1.0, 0.0))


def chain_from_rows(rows, labels=None, rewards=None, initial="s0"):
    """Small helper: rows maps state -> {successor: prob}; the chain is
    compiled and instantiated as a parameter-free PDTMC."""
    labels = labels or {}
    states = {s: frozenset(labels.get(s, ())) for s in rows}
    transitions = [Transition(s, d, parse_expr(repr(p)))
                   for s, succ in rows.items() for d, p in succ.items()]
    model = PDTMC(states=states, initial=initial, transitions=transitions,
                  rewards=dict(rewards or {}), params={})
    return instantiate(model, {})


@pytest.fixture(scope="session")
def corpus_chains(ref_chain, ref_model, u_shifted):
    """Named test chains reused by solver-vs-oracle comparisons."""
    chains = {
        "forced": chain_from_rows(
            {"s0": {"done": 1.0}, "done": {"done": 1.0},
             "collision": {"collision": 1.0}},
            labels={"done": ["done"], "collision": ["collision"]},
            rewards={("s0", "done"): 10.0}),
        "coin": chain_from_rows(
            {"s0": {"done": 0.5, "collision": 0.5}, "done": {"done": 1.0},
             "collision": {"collision": 1.0}},
            labels={"done": ["done"], "collision": ["collision"]},
            rewards={("s0", "done"): 10.0, ("s0", "collision"): 10.0}),
        "fixpoint": chain_from_rows(
            {"s0": {"done": 0.5, "collision": 0.25, "s0": 0.25},
             "done": {"done": 1.0}, "collision": {"collision": 1.0}},
            labels={"done": ["done"], "collision": ["collision"]},
            rewards={("s0", "s0"): 1.0, ("s0", "done"): 10.0,
                     ("s0", "collision"): 10.0}),
        "reference": ref_chain,
        "reference_shifted": instantiate(ref_model, ref_valuation(u_shifted, 0.2, 0.0)),
    }
    return chains


@pytest.fixture(scope="session")
def default_specs():
    return harness.default_specs()
