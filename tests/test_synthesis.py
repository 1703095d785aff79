import pytest
from hypothesis import given, settings, strategies as st

from colavoid import pmc, synthesis, uq


class TestParamSpace:
    def test_defaults(self):
        space = synthesis.ParamSpace()
        assert space.names == ("c1", "c2")
        assert space.counts == (11, 11)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(synthesis.SynthesisError):
            synthesis.ParamSpace(bounds=((0.5, 0.5), (0.0, 1.0)))

    def test_single_point_axis_rejected(self):
        with pytest.raises(synthesis.SynthesisError):
            synthesis.ParamSpace(counts=(1, 11))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(synthesis.SynthesisError):
            synthesis.ParamSpace(names=("c1",), bounds=((0, 1), (0, 1)),
                                 counts=(3, 3))


class TestDiscretize:
    def test_default_grid_size(self):
        grid = synthesis.discretize(synthesis.ParamSpace())
        assert len(grid.candidates) == 121

    def test_lexicographic_order(self):
        grid = synthesis.discretize(synthesis.ParamSpace(counts=(2, 3)))
        assert grid.candidates == ((0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
                                   (1.0, 0.0), (1.0, 0.5), (1.0, 1.0))

    def test_endpoints_included_exactly(self):
        grid = synthesis.discretize(synthesis.ParamSpace())
        values = {c[0] for c in grid.candidates}
        assert 0.0 in values and 1.0 in values
        assert len(values) == 11

    @given(m1=st.integers(2, 8), m2=st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_grid_size_is_product(self, m1, m2):
        grid = synthesis.discretize(synthesis.ParamSpace(counts=(m1, m2)))
        assert len(grid.candidates) == m1 * m2
        assert len(set(grid.candidates)) == m1 * m2


def fake_qr(grid, rows):
    return pmc.QRTable(dim_names=grid.dim_names, candidates=tuple(grid.candidates),
                       columns=["safety", "time"], rows=tuple(rows))


class TestFilterOptimal:
    def setup_method(self):
        self.state = (pmc.StateSpec(avoid="collision", target="done", bound=0.9),)
        self.reward = (pmc.RewardSpec(targets=frozenset({"done"}), bound=15.0),)
        self.grid = synthesis.CandidateGrid(
            dim_names=("c1", "c2"),
            candidates=((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)))

    def test_max_safety_among_reward_feasible(self):
        qr = fake_qr(self.grid, [(1.0, 18.0), (0.95, 12.0), (0.99, 11.0), (0.8, 10.0)])
        cand, feasible = synthesis.filter_optimal(qr, self.state, self.reward)
        assert cand == (1.0, 0.0)       # 1.0-safety candidate violates time
        assert feasible

    def test_reward_tie_break(self):
        qr = fake_qr(self.grid, [(0.95, 14.0), (0.95, 12.0), (0.9, 11.0), (0.8, 10.0)])
        cand, _ = synthesis.filter_optimal(qr, self.state, self.reward)
        assert cand == (0.0, 1.0)       # same safety, lower expected time

    def test_lexicographic_tie_break(self):
        qr = fake_qr(self.grid, [(0.95, 12.0), (0.95, 12.0), (0.95, 12.0), (0.95, 12.0)])
        cand, _ = synthesis.filter_optimal(qr, self.state, self.reward)
        assert cand == (0.0, 0.0)

    def test_infeasible_rewards_fall_back_to_max_safety(self):
        qr = fake_qr(self.grid, [(1.0, 18.0), (0.95, 17.0), (0.99, 16.0), (0.8, 20.0)])
        cand, feasible = synthesis.filter_optimal(qr, self.state, self.reward)
        assert cand == (0.0, 0.0)
        assert not feasible

    def test_state_bound_violation_flags_infeasible(self):
        strict = (pmc.StateSpec(avoid="collision", target="done", bound=0.999),)
        qr = fake_qr(self.grid, [(0.99, 12.0), (0.9, 12.0), (0.9, 12.0), (0.9, 12.0)])
        cand, feasible = synthesis.filter_optimal(qr, strict, self.reward)
        assert cand == (0.0, 0.0)
        assert not feasible

    def test_table_rows_must_match_candidates(self):
        with pytest.raises(pmc.CheckError, match="align"):
            pmc.QRTable(dim_names=self.grid.dim_names, candidates=self.grid.candidates,
                        columns=["safety", "time"], rows=((1.0, 10.0),))


class TestSynthesizeEndToEnd:
    def test_initial_rates_give_point_two_zero(self, ref_model, u_initial,
                                               default_specs):
        state_specs, reward_specs = default_specs
        cand, qr, feasible = synthesis.synthesize(
            u_initial, ref_model, synthesis.ParamSpace(), state_specs,
            reward_specs, base_valuation={"p_collider": 0.8, "p_occ": 0.25})
        assert cand == pytest.approx((0.2, 0.0))
        assert feasible
        row = qr.row_for(cand)
        assert row[0] == pytest.approx(0.99379, abs=1e-5)
        assert row[1] == pytest.approx(14.521, abs=1e-3)

    def test_perfect_perception_gives_one_zero(self, ref_model, default_specs):
        state_specs, reward_specs = default_specs
        perfect = uq.quantify(uq.ConfusionMatrix.from_rows([[100, 0], [0, 100]]))
        cand, _, feasible = synthesis.synthesize(
            perfect, ref_model, synthesis.ParamSpace(), state_specs,
            reward_specs, base_valuation={"p_collider": 0.8, "p_occ": 0.25})
        assert cand == pytest.approx((1.0, 0.0))
        assert feasible

    def test_shifted_rates_change_choice(self, ref_model, u_initial, u_shifted,
                                         default_specs):
        state_specs, reward_specs = default_specs
        base = {"p_collider": 0.8, "p_occ": 0.25}
        cand_a, _, _ = synthesis.synthesize(u_initial, ref_model,
                                            synthesis.ParamSpace(), state_specs,
                                            reward_specs, base_valuation=base)
        cand_b, qr_b, feasible_b = synthesis.synthesize(
            u_shifted, ref_model, synthesis.ParamSpace(), state_specs,
            reward_specs, base_valuation=base)
        # degraded perception forces a different (more conservative) controller
        assert cand_b != cand_a
        assert qr_b.row_for(cand_b)[0] >= qr_b.row_for(cand_a)[0] - 1e-12

    def test_report_csv(self, ref_model, u_initial, default_specs, tmp_path):
        state_specs, reward_specs = default_specs
        space = synthesis.ParamSpace(counts=(3, 3))
        cand, qr, feasible = synthesis.synthesize(
            u_initial, ref_model, space, state_specs, reward_specs,
            base_valuation={"p_collider": 0.8, "p_occ": 0.25})
        path = tmp_path / "report.csv"
        synthesis.write_report(path, qr, cand, feasible)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 10
        assert sum(line.split(",")[-2] == "1" for line in lines[1:]) == 1
