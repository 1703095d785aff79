import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from colavoid import pmc, synthesis, uq
from colavoid.pdtmc import ModelConstants, ModelError, instantiate, reference_model
from conftest import chain_from_rows, ref_valuation
from oracles import simulate_chain

BASE = {"p_collider": 0.8, "p_occ": 0.25}

#: (rates fixture, sha256 of the QR rows as float.hex(), grid points per axis)
GOLDEN_TABLES = [
    ("u_initial", "2c7dffbfb5e108a57a23c1dd65052315c50184bd0a48e1669e6fba89b01c67cd", 11),
    ("u_shifted", "99184b6c6d29b67f0bde41fd3f987d8927ba3f4dfe4d07c08d477692499857b0", 11),
    ("u_initial", "e97b5cd13fbbe9bf3c48ad2e5cf5961cb47ebe8e44a2da46c4843a618a4ef062", 101),
]


class TestUntilProbability:
    def test_forced_transition(self, corpus_chains):
        assert pmc.until_probability(corpus_chains["forced"], "collision", "done") == 1.0

    def test_fair_coin(self, corpus_chains):
        assert pmc.until_probability(corpus_chains["coin"], "collision", "done") \
            == pytest.approx(0.5, abs=1e-12)

    def test_self_loop_fixpoint(self, corpus_chains):
        # x = 0.5 + 0.25 x  =>  x = 2/3
        assert pmc.until_probability(corpus_chains["fixpoint"], "collision", "done") \
            == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_reference_value(self, ref_chain):
        assert pmc.until_probability(ref_chain, "collision", "done") \
            == pytest.approx(0.98702, abs=1e-5)

    def test_unknown_label(self, ref_chain):
        with pytest.raises(pmc.CheckError, match="label"):
            pmc.until_probability(ref_chain, "collision", "nirvana")

    def test_complementarity(self, ref_chain):
        safety = pmc.until_probability(ref_chain, "collision", "done")
        collision = pmc.until_probability(ref_chain, "done", "collision")
        assert safety + collision == pytest.approx(1.0, abs=1e-9)

    def test_complementarity_over_valuations(self, ref_model):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p_collider, p_occ, p00, p11, c1, c2 = rng.random(6)
            # keep absorption almost sure
            c1, c2 = 0.2 + 0.8 * c1, 0.2 + 0.8 * c2
            val = {"p_collider": p_collider, "p_occ": p_occ, "p00": p00,
                   "p01": 1 - p00, "p10": 1 - p11, "p11": p11, "c1": c1, "c2": c2}
            chain = instantiate(ref_model, val)
            total = (pmc.until_probability(chain, "collision", "done")
                     + pmc.until_probability(chain, "done", "collision"))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_safety_monotone_in_missed_detections(self, ref_model, u_initial):
        # raising p10 (missed collisions) never raises safety
        previous = 1.1
        for p10 in np.linspace(0.0, 1.0, 11):
            val = ref_valuation(u_initial, 0.5, 0.1)
            val.update({"p10": p10, "p11": 1.0 - p10})
            safety = pmc.until_probability(instantiate(ref_model, val),
                                           "collision", "done")
            assert safety <= previous + 1e-12
            previous = safety


class TestExpectedReward:
    def test_single_transition(self, corpus_chains):
        assert pmc.expected_reward_to_absorption(corpus_chains["forced"], {"done"}) \
            == pytest.approx(10.0)

    def test_geometric_self_loop(self):
        # one expected loop traversal (reward 1) plus the exit reward 3
        chain = chain_from_rows(
            {"s0": {"s0": 0.5, "done": 0.5}, "done": {"done": 1.0}},
            labels={"done": ["done"]},
            rewards={("s0", "s0"): 1.0, ("s0", "done"): 3.0})
        assert pmc.expected_reward_to_absorption(chain, {"done"}) == pytest.approx(4.0)

    def test_reference_value(self, ref_chain):
        value = pmc.expected_reward_to_absorption(ref_chain, {"done", "collision"})
        assert value == pytest.approx(10.727, abs=1e-3)

    def test_infinite_when_not_almost_sure(self, corpus_chains):
        assert pmc.expected_reward_to_absorption(corpus_chains["coin"], {"done"}) \
            == math.inf

    def test_infinite_when_a_tiny_leak_avoids_the_target(self):
        # the trap is never left, so "done" is not reached almost surely,
        # however close to 1 its probability is
        chain = chain_from_rows(
            {"s0": {"done": 1 - 1e-12, "trap": 1e-12}, "done": {"done": 1.0},
             "trap": {"trap": 1.0}},
            labels={"done": ["done"]}, rewards={("s0", "done"): 3.0})
        assert pmc.expected_reward_to_absorption(chain, {"done"}) == math.inf

    def test_finite_when_absorbed_almost_surely_but_slowly(self, ref_model):
        # the round exit a + b is 1e-10: absorption is almost sure, after
        # about 1e10 rounds
        val = {"p_collider": 1.0, "p_occ": 0.5, "p00": 1.0, "p11": 1.0,
               "c1": 2e-10, "c2": 0.0}
        a, b = closed_form(**val)
        time = pmc.expected_reward_to_absorption(instantiate(ref_model, val),
                                                 {"done", "collision"})
        assert time == pytest.approx(10.0 + 2.0 * (1 - a - b) / (a + b), rel=1e-4)

    def test_unknown_label(self, ref_chain):
        with pytest.raises(pmc.CheckError):
            pmc.expected_reward_to_absorption(ref_chain, {"nirvana"})


class TestSimulateChain:
    def test_oracle_agreement_on_corpus(self, corpus_chains):
        for name, chain in corpus_chains.items():
            exact = pmc.until_probability(chain, "collision", "done")
            p_hat, _ = simulate_chain(chain, 100_000, seed=11)
            bound = 3.0 * math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / 100_000)
            assert abs(p_hat - exact) <= bound, name

    def test_reward_agreement(self, ref_chain):
        exact = pmc.expected_reward_to_absorption(ref_chain, {"done", "collision"})
        _, r_hat = simulate_chain(ref_chain, 100_000, seed=13)
        assert r_hat == pytest.approx(exact, abs=0.05)

    def test_deterministic_chain_exact(self, corpus_chains):
        p_hat, r_hat = simulate_chain(corpus_chains["forced"], 10, seed=1)
        assert p_hat == 1.0 and r_hat == 10.0

    def test_same_seed_same_estimate(self, ref_chain):
        assert simulate_chain(ref_chain, 5000, seed=3) \
            == simulate_chain(ref_chain, 5000, seed=3)

    def test_non_absorbing_cap_reported(self):
        chain = chain_from_rows(
            {"s0": {"s1": 1.0}, "s1": {"s0": 1.0}, "done": {"done": 1.0},
             "collision": {"collision": 1.0}},
            labels={"done": ["done"], "collision": ["collision"]})
        with pytest.raises(pmc.CheckError, match=r"not absorbing: states \['s0', 's1'\]"):
            simulate_chain(chain, 3, seed=0)

    def test_reward_set_unreachable_reported(self, corpus_chains):
        # the verdict is known on entering collision, but a path collecting
        # reward toward "done" alone would stay in collision forever
        with pytest.raises(pmc.CheckError, match=r"\['collision'\].*cannot reach the done"):
            simulate_chain(corpus_chains["coin"], 3, seed=0,
                               reward_targets=("done",))

    def test_path_count_validated(self, ref_chain):
        with pytest.raises(pmc.CheckError):
            simulate_chain(ref_chain, 0, seed=0)


class TestResiduals:
    def test_linear_solve_residual_bound(self, corpus_chains):
        # recheck the fixpoint system's residual outside _solve
        chain = corpus_chains["fixpoint"]
        x = pmc.until_probability(chain, "collision", "done")
        assert abs((1 - 0.25) * x - 0.5) <= 1e-10

    @pytest.mark.parametrize("b", [[1.0, 1.0], [1.0, 2.0]])
    def test_singular_system_rejected(self, b):
        # consistent and inconsistent right-hand sides; the diagonal is nonzero
        with pytest.raises(pmc.CheckError, match="singular"):
            pmc._solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array(b))

    def test_backward_error_names_the_member(self, monkeypatch):
        solve = np.linalg.solve

        def perturbed(A, b):
            x = solve(A, b)
            x[1] += 1e-6
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        A, b = np.stack([2.0 * np.eye(2)] * 3), np.ones((3, 2))
        # residual 2e-6 over 2 * (0.5 + 1e-6) + 1
        with pytest.raises(pmc.CheckError,
                           match=r"^member 7: linear solve backward error 9.99\d*e-07 "
                                 r"exceeds 1e-12$"):
            pmc._solve(A, b, members=np.array([4, 7, 9]))

    def test_large_answer_passes_the_guard(self):
        # an expected time near 7e5 leaves an absolute residual above 1e-10
        # in a solve whose backward error is near machine precision
        model = reference_model(ModelConstants(t_move=1.0, t_wait=7.0))
        val = {"p_collider": 0.99999, "p_occ": 0.25, "p00": 0.0, "p11": 0.0,
               "c1": 0.0, "c2": 0.0}
        a, b = closed_form(**val)
        time = pmc.expected_reward_to_absorption(instantiate(model, val),
                                                 {"done", "collision"})
        assert time == pytest.approx(1.0 + 7.0 * (1 - a - b) / (a + b), rel=1e-9)
        assert time == pytest.approx(699994.0, rel=1e-9)


class TestQuantifyCandidates:
    def test_table_shape(self, ref_model, u_initial, default_specs):
        state_specs, reward_specs = default_specs
        grid = synthesis.discretize(synthesis.ParamSpace())
        qr = pmc.quantify_candidates(ref_model, u_initial, grid, state_specs,
                                     reward_specs,
                                     base_valuation={"p_collider": 0.8, "p_occ": 0.25})
        assert len(qr.rows) == 121
        assert qr.candidates is grid.candidates     # the grid's own tuple, not a copy
        assert all(0.0 <= row[0] <= 1.0 for row in qr.rows)
        assert all(row[1] >= 0.0 for row in qr.rows)

    def test_always_move_row(self, ref_model, u_initial, default_specs):
        state_specs, reward_specs = default_specs
        grid = synthesis.discretize(synthesis.ParamSpace())
        qr = pmc.quantify_candidates(ref_model, u_initial, grid, state_specs,
                                     reward_specs,
                                     base_valuation={"p_collider": 0.8, "p_occ": 0.25})
        assert qr.row_for((1.0, 1.0))[0] == pytest.approx(0.8, abs=1e-9)

    def test_never_move_row(self, ref_model, u_initial, default_specs):
        state_specs, reward_specs = default_specs
        grid = synthesis.discretize(synthesis.ParamSpace())
        qr = pmc.quantify_candidates(ref_model, u_initial, grid, state_specs,
                                     reward_specs,
                                     base_valuation={"p_collider": 0.8, "p_occ": 0.25})
        row = qr.row_for((0.0, 0.0))
        assert row[0] == pytest.approx(1.0, abs=1e-9)
        assert row[1] == pytest.approx(18.0, abs=1e-9)

    @pytest.mark.parametrize("bad,message", [
        ((0.5, 2.0), "value 2.0 for 'c2' outside bounds"),
        ((math.nan, 0.5), "value nan for 'c1' outside bounds"),
    ])
    def test_errors_name_first_failing_candidate_past_first_stack(
            self, ref_model, u_initial, default_specs, bad, message):
        state_specs, reward_specs = default_specs
        candidates = list(synthesis.discretize(
            synthesis.ParamSpace(counts=(15, 20))).candidates)
        index = pmc.STACK_SIZE + 22
        candidates[index] = candidates[index + 40] = bad
        grid = synthesis.CandidateGrid(dim_names=("c1", "c2"), candidates=tuple(candidates))
        expected = rf"^candidate {index} \({re.escape(repr(bad))}\): {re.escape(message)}"
        with pytest.raises(pmc.CheckError, match=expected):
            pmc.quantify_candidates(ref_model, u_initial, grid, state_specs,
                                    reward_specs, base_valuation=BASE)

    def test_errors_carry_candidate_index(self, ref_model, u_initial, default_specs):
        state_specs, reward_specs = default_specs
        grid = synthesis.CandidateGrid(dim_names=("c1", "c2"),
                                       candidates=((0.5, 2.0),))
        with pytest.raises(pmc.CheckError, match="candidate 0"):
            pmc.quantify_candidates(ref_model, u_initial, grid, state_specs,
                                    reward_specs,
                                    base_valuation={"p_collider": 0.8, "p_occ": 0.25})

    def test_empty_grid_rejected(self, ref_model, u_initial, default_specs):
        state_specs, reward_specs = default_specs
        grid = synthesis.CandidateGrid(dim_names=("c1", "c2"), candidates=())
        with pytest.raises(pmc.CheckError):
            pmc.quantify_candidates(ref_model, u_initial, grid, state_specs,
                                    reward_specs)

    @pytest.mark.parametrize("rates,digest,size", GOLDEN_TABLES, ids=[
        # the 11 x 11 cases keep their ids from before the 101 x 101 one
        f"{rates}-{digest}" if size == 11 else f"{rates}-{size}-{digest}"
        for rates, digest, size in GOLDEN_TABLES])
    def test_golden_tables(self, request, ref_model, default_specs, rates, digest, size):
        # sha256 of the QR rows written with float.hex(): any change to
        # instantiation or to the solves must reproduce them bit for bit
        state_specs, reward_specs = default_specs
        grid = synthesis.discretize(synthesis.ParamSpace(counts=(size, size)))
        qr = pmc.quantify_candidates(ref_model, request.getfixturevalue(rates), grid,
                                     state_specs, reward_specs,
                                     base_valuation={"p_collider": 0.8, "p_occ": 0.25})
        text = "\n".join(" ".join(float(v).hex() for v in row) for row in qr.rows)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def looped_table(model, u, grid, state_specs, reward_specs, base):
    """The QR rows checked one candidate at a time with scalar valuations."""
    rows = []
    for cand in grid.candidates:
        chain = instantiate(model, {**base, **u.as_valuation(),
                                    **dict(zip(grid.dim_names, cand))})
        rows.append([pmc.until_probability(chain, s.avoid, s.target) for s in state_specs]
                    + [pmc.expected_reward_to_absorption(chain, s.targets)
                       for s in reward_specs])
    return np.array(rows)


class TestStackedChecks:
    """The stacked path against the per-candidate loop, bit for bit."""

    @pytest.mark.parametrize("matrix,base", [
        ([[2000, 290], [10, 200]], BASE),
        # perfect perception: p00 = p11 = 1 changes the support patterns
        ([[100, 0], [0, 100]], BASE),
        # a collider at every check: c1 = c2 = 0 never absorbs, time is inf
        ([[1000, 200], [1200, 100]], {"p_collider": 1.0, "p_occ": 0.25}),
    ])
    def test_matches_per_candidate_loop(self, ref_model, default_specs, matrix, base):
        state_specs, reward_specs = default_specs
        u = uq.quantify(uq.ConfusionMatrix.from_rows(matrix))
        # 21 x 21 spans four stacks; c1, c2 in {0, 1} give nine support patterns
        grid = synthesis.discretize(synthesis.ParamSpace(counts=(21, 21)))
        assert len(grid.candidates) > 3 * pmc.STACK_SIZE
        qr = pmc.quantify_candidates(ref_model, u, grid, state_specs, reward_specs,
                                     base_valuation=base)
        expected = looped_table(ref_model, u, grid, state_specs, reward_specs, base)
        assert np.array_equal(qr.rows, expected)
        assert (base["p_collider"] < 1.0) == bool(np.isfinite(qr.rows).all())

    def test_stacked_chain_matches_members(self, ref_model, u_initial):
        c1 = np.array([0.0, 0.3, 1.0, 0.0])
        c2 = np.array([0.0, 0.1, 1.0, 1.0])
        stack = instantiate(ref_model, ref_valuation(u_initial, c1, c2))
        assert stack.P.shape == (4, 10, 10)
        safety = pmc.until_probability(stack, "collision", "done")
        time = pmc.expected_reward_to_absorption(stack, {"done", "collision"})
        for k in range(4):
            chain = instantiate(ref_model, ref_valuation(u_initial, c1[k], c2[k]))
            assert np.array_equal(stack.P[k], chain.P)
            assert safety[k] == pmc.until_probability(chain, "collision", "done")
            assert time[k] == pmc.expected_reward_to_absorption(chain, {"done", "collision"})

    def test_stack_error_names_first_failing_member(self, ref_model, u_initial):
        c1 = np.array([0.5, 0.5, -1.0, math.inf])
        with pytest.raises(ModelError, match=r"^member 2: value -1.0 for 'c1' outside bounds"):
            instantiate(ref_model, ref_valuation(u_initial, c1, 0.5))


def closed_form(p_collider, p_occ, p00, p11, c1, c2):
    """Per check round of the reference chain: a = P(absorb in done),
    b = P(absorb in collision); every other round waits and starts again."""
    a = (1 - p_collider) + p_collider * (1 - p_occ) * (p00 * c1 + (1 - p00) * c2)
    b = p_collider * p_occ * ((1 - p11) * c1 + p11 * c2)
    return a, b


unit = st.floats(0.0, 1.0)


@pytest.fixture(scope="module")
def timed_models():
    """(t_move, t_wait, reference chain with those rewards): the default
    timing and two others."""
    return [(t_move, t_wait, reference_model(ModelConstants(t_move=t_move, t_wait=t_wait)))
            for t_move, t_wait in ((10.0, 2.0), (3.5, 0.25), (1.0, 7.0))]


class TestClosedFormOracle:
    """The reference chain has an exact closed form; the checker must meet it."""

    @given(p_collider=unit, p_occ=unit, p00=unit, p11=unit, c1=unit, c2=unit)
    @example(p_collider=0.99999, p_occ=0.25, p00=0.0, p11=0.0, c1=0.0, c2=0.0)
    @settings(max_examples=300, deadline=None)
    def test_safety_and_time(self, timed_models, p_collider, p_occ, p00, p11, c1, c2):
        a, b = closed_form(p_collider, p_occ, p00, p11, c1, c2)
        # a near-zero round exit makes I - P numerically singular
        assume(a + b > 1e-6)
        for t_move, t_wait, model in timed_models:
            chain = instantiate(model, {"p_collider": p_collider, "p_occ": p_occ,
                                        "p00": p00, "p11": p11, "c1": c1, "c2": c2})
            safety = pmc.until_probability(chain, "collision", "done")
            time = pmc.expected_reward_to_absorption(chain, {"done", "collision"})
            assert safety == pytest.approx(a / (a + b), rel=1e-9, abs=1e-12)
            assert time == pytest.approx(t_move + t_wait * (1 - a - b) / (a + b),
                                         rel=1e-9), (t_move, t_wait)

    def test_never_absorbing_when_a_plus_b_is_zero(self, ref_model):
        chain = instantiate(ref_model, {"p_collider": 1.0, "p_occ": 0.5, "p00": 0.9,
                                        "p11": 0.9, "c1": 0.0, "c2": 0.0})
        assert closed_form(1.0, 0.5, 0.9, 0.9, 0.0, 0.0) == (0.0, 0.0)
        assert pmc.until_probability(chain, "collision", "done") == 0.0
        assert pmc.expected_reward_to_absorption(chain, {"done", "collision"}) == math.inf

    @given(p_collider=unit, p_occ=unit, other=unit,
           c=st.tuples(unit, unit).filter(lambda c: c[0] > c[1]))
    @settings(max_examples=100, deadline=None)
    @pytest.mark.parametrize("rate", ["p00", "p11"])
    def test_safety_rises_with_correct_detections(self, ref_model, rate, p_collider,
                                                  p_occ, other, c):
        # moving more after a 0-prediction (c1 > c2) pays off as the
        # classifier gets either class right more often
        rates = np.linspace(0.0, 1.0, 11)
        val = {"p_collider": p_collider, "p_occ": p_occ, "p00": other, "p11": other,
               "c1": c[0], "c2": c[1]}
        # the well-posed domain of test_safety_and_time, at every swept rate
        for r in rates:
            a, b = closed_form(**{**val, rate: r})
            assume(a + b > 1e-6)
        val[rate] = rates
        stack = instantiate(ref_model, val)
        safety = pmc.until_probability(stack, "collision", "done")
        assert (np.diff(safety) >= -1e-12).all()

    def test_near_zero_round_exit_is_singular(self, ref_model):
        # outside that domain: at p11 = 1 the round exit a + b is 2e-67
        stack = instantiate(ref_model, {"p_collider": 1.0, "p_occ": 0.5, "p00": 1.0,
                                        "p11": np.linspace(0.0, 1.0, 11),
                                        "c1": 4.02e-67, "c2": 0.0})
        with pytest.raises(pmc.CheckError, match="singular system after precomputation"):
            pmc.until_probability(stack, "collision", "done")


#: a rate that is often exactly 0 or 1, where the support pattern changes
edge_rate = st.one_of(st.sampled_from([0.0, 1.0]), unit)


class TestOnePass:
    """A stack is checked in one pass: one padded solve per query, and each
    member keeps the bits and the guard it has alone."""

    @pytest.mark.parametrize("size,solves", [(11, 2), (101, 160)])
    def test_one_solve_per_query_per_stack(self, monkeypatch, ref_model, u_initial,
                                           default_specs, size, solves):
        calls, solve = [], np.linalg.solve

        def counted(A, b):
            calls.append(A.shape)
            return solve(A, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        synthesis.synthesize(u_initial, ref_model, synthesis.ParamSpace(counts=(size, size)),
                             *default_specs, base_valuation=ModelConstants().valuation())
        # two queries, each one solve per stack of STACK_SIZE candidates
        assert len(calls) == solves == 2 * math.ceil(size * size / pmc.STACK_SIZE)

    def test_reward_guard_names_the_member_in_the_chain(self, monkeypatch, ref_model,
                                                        u_initial):
        # member 0 never absorbs, so it is not solved; members 1 and 3 share
        # a support pattern and member 2 (c1 = 1) has its own
        c1, c2 = np.array([0.0, 0.3, 1.0, 0.5]), np.array([0.0, 0.1, 0.0, 0.2])
        stack = instantiate(ref_model, ref_valuation(u_initial, c1, c2, p_collider=1.0))
        time = pmc.expected_reward_to_absorption(stack, {"done", "collision"})
        assert time[0] == math.inf and np.isfinite(time[1:]).all()
        solve = np.linalg.solve

        def perturbed(A, b):
            x = solve(A, b)
            x[1] += 1e-6
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        # the second solved system is member 2's
        with pytest.raises(pmc.CheckError, match=r"^member 2: linear solve backward error"):
            pmc.expected_reward_to_absorption(stack, {"done", "collision"})

    def test_padding_rows_do_not_enter_the_norm(self, monkeypatch):
        solve = np.linalg.solve

        def perturbed(A, b):
            x = solve(A, b)
            x[0, 0] += 1e-11
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        # a 1 x 1 system 1e-3 x = 1e-3 padded with one identity row: the
        # error is 1e-14 over 2e-3 on its own row, 1e-14 over about 1 with
        # the filler row in the norm
        A, b = np.array([[[1e-3, 0.0], [0.0, 1.0]]]), np.array([[1e-3, 0.0]])
        pmc._solve(A, b)
        with pytest.raises(pmc.CheckError, match=r"^member 0: linear solve backward error 5"):
            pmc._solve(A, b, own=np.array([[True, False]]))

    @given(members=st.lists(st.tuples(edge_rate, edge_rate, edge_rate, edge_rate, edge_rate),
                            min_size=1, max_size=6),
           p_occ=unit)
    @settings(max_examples=200, deadline=None)
    def test_member_bits_match_alone(self, ref_model, members, p_occ):
        names = ("p_collider", "p00", "p11", "c1", "c2")
        alone = []
        for values in members:
            chain = instantiate(ref_model, {"p_occ": p_occ, **dict(zip(names, values))})
            try:
                alone.append((pmc.until_probability(chain, "collision", "done"),
                              pmc.expected_reward_to_absorption(chain, {"done", "collision"})))
            except pmc.CheckError:
                reject()        # ill-posed alone: a round exit near zero
        stack = instantiate(ref_model, {"p_occ": p_occ, **dict(zip(names, np.array(members).T))})
        safety = pmc.until_probability(stack, "collision", "done")
        time = pmc.expected_reward_to_absorption(stack, {"done", "collision"})
        assert list(zip(safety, time)) == alone
