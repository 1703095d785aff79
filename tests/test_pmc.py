import hashlib
import math

import numpy as np
import pytest

from colavoid import pmc, synthesis
from colavoid.pdtmc import instantiate
from conftest import chain_from_rows, ref_valuation


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

    def test_unknown_label(self, ref_chain):
        with pytest.raises(pmc.CheckError):
            pmc.expected_reward_to_absorption(ref_chain, {"nirvana"})


class TestSimulateChain:
    def test_oracle_agreement_on_corpus(self, corpus_chains):
        for name, chain in corpus_chains.items():
            exact = pmc.until_probability(chain, "collision", "done")
            p_hat, _ = pmc.simulate_chain(chain, 100_000, seed=11)
            bound = 3.0 * math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / 100_000)
            assert abs(p_hat - exact) <= bound, name

    def test_reward_agreement(self, ref_chain):
        exact = pmc.expected_reward_to_absorption(ref_chain, {"done", "collision"})
        _, r_hat = pmc.simulate_chain(ref_chain, 100_000, seed=13)
        assert r_hat == pytest.approx(exact, abs=0.05)

    def test_deterministic_chain_exact(self, corpus_chains):
        p_hat, r_hat = pmc.simulate_chain(corpus_chains["forced"], 10, seed=1)
        assert p_hat == 1.0 and r_hat == 10.0

    def test_same_seed_same_estimate(self, ref_chain):
        assert pmc.simulate_chain(ref_chain, 5000, seed=3) \
            == pmc.simulate_chain(ref_chain, 5000, seed=3)

    def test_non_absorbing_cap_reported(self):
        chain = chain_from_rows(
            {"s0": {"s1": 1.0}, "s1": {"s0": 1.0}, "done": {"done": 1.0},
             "collision": {"collision": 1.0}},
            labels={"done": ["done"], "collision": ["collision"]})
        with pytest.raises(pmc.CheckError, match=r"not absorbing: states \['s0', 's1'\]"):
            pmc.simulate_chain(chain, 3, seed=0)

    def test_reward_set_unreachable_reported(self, corpus_chains):
        # the verdict is known on entering collision, but a path collecting
        # reward toward "done" alone would stay in collision forever
        with pytest.raises(pmc.CheckError, match=r"\['collision'\].*cannot reach the done"):
            pmc.simulate_chain(corpus_chains["coin"], 3, seed=0,
                               reward_targets=("done",))

    def test_path_count_validated(self, ref_chain):
        with pytest.raises(pmc.CheckError):
            pmc.simulate_chain(ref_chain, 0, seed=0)


class TestResiduals:
    def test_linear_solve_residual_bound(self, corpus_chains):
        # _solve raises beyond 1e-10; recheck externally for the fixpoint system
        chain = corpus_chains["fixpoint"]
        x = pmc.until_probability(chain, "collision", "done")
        assert abs((1 - 0.25) * x - 0.5) <= 1e-10

    @pytest.mark.parametrize("b", [[1.0, 1.0], [1.0, 2.0]])
    def test_singular_system_rejected(self, b):
        # consistent and inconsistent right-hand sides; the diagonal is nonzero
        with pytest.raises(pmc.CheckError, match="singular"):
            pmc._solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array(b))


class TestQuantifyCandidates:
    def test_table_shape(self, ref_model, u_initial, default_specs):
        state_specs, reward_specs = default_specs
        grid = synthesis.discretize(synthesis.ParamSpace())
        qr = pmc.quantify_candidates(ref_model, u_initial, grid, state_specs,
                                     reward_specs,
                                     base_valuation={"p_collider": 0.8, "p_occ": 0.25})
        assert len(qr.rows) == 121
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

    @pytest.mark.parametrize("rates,digest", [
        ("u_initial", "2c7dffbfb5e108a57a23c1dd65052315c50184bd0a48e1669e6fba89b01c67cd"),
        ("u_shifted", "99184b6c6d29b67f0bde41fd3f987d8927ba3f4dfe4d07c08d477692499857b0"),
    ])
    def test_golden_tables(self, request, ref_model, default_specs, rates, digest):
        # sha256 of the 11 x 11 QR rows written with float.hex(): any change
        # to instantiation or to the solves must reproduce them bit for bit
        state_specs, reward_specs = default_specs
        grid = synthesis.discretize(synthesis.ParamSpace())
        qr = pmc.quantify_candidates(ref_model, request.getfixturevalue(rates), grid,
                                     state_specs, reward_specs,
                                     base_valuation={"p_collider": 0.8, "p_occ": 0.25})
        text = "\n".join(" ".join(float(v).hex() for v in row) for row in qr.rows)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
