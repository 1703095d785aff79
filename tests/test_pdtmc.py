import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colavoid import pmc
from colavoid.pdtmc import (DTMC, ModelConstants, ModelError, ModelSyntaxError,
                            instantiate, parse_expr, parse_model,
                            reference_model, serialize_model,
                            validate_stochastic)
from conftest import ref_valuation


SIMPLE = """
param p in [0,1];
state s0;
state done [done];
state collision [collision];
init s0;
trans s0 -> done : 1;
trans done -> done : 1;
trans collision -> collision : 1;
"""


class TestParser:
    def test_simple_model(self):
        m = parse_model(SIMPLE)
        assert len(m.transitions) == 3
        assert m.initial == "s0"
        assert m.states["done"] == frozenset({"done"})

    def test_round_trip_is_identity(self):
        m = parse_model(SIMPLE)
        assert parse_model(serialize_model(m)) == m

    def test_reference_round_trip(self):
        m = reference_model()
        assert parse_model(serialize_model(m)) == m

    def test_undeclared_parameter(self):
        with pytest.raises(ModelSyntaxError, match="p99"):
            parse_model(SIMPLE.replace(": 1;", ": p99;", 1))

    def test_undeclared_state(self):
        with pytest.raises(ModelSyntaxError, match="nowhere"):
            parse_model(SIMPLE + "trans s0 -> nowhere : 1;")

    def test_undeclared_initial_state_names_its_line(self):
        # SIMPLE's init line is line 6
        with pytest.raises(ModelSyntaxError, match="line 6: initial state 'nowhere'") as exc:
            parse_model(SIMPLE.replace("init s0;", "init nowhere;"))
        assert exc.value.line_no == 6

    def test_init_may_precede_its_state(self):
        m = parse_model("init s0;\n" + SIMPLE.replace("init s0;", ""))
        assert m == parse_model(SIMPLE)

    def test_duplicate_state(self):
        with pytest.raises(ModelSyntaxError, match="duplicate"):
            parse_model(SIMPLE + "state s0;")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ModelSyntaxError, match="line 2"):
            parse_model("state a;\ntrans a -> ;")

    def test_reward_names_a_constant(self):
        m = parse_model(SIMPLE + "reward s0 -> done : 2 * t_move + 1;", {"t_move": 10.0})
        assert m.rewards == {("s0", "done"): 21.0}

    @pytest.mark.parametrize("line,message", [
        ("reward s0 -> done : t_move;", "unknown constant 't_move'"),
        ("reward s0 -> done : nan;", "unknown constant 'nan'"),
        ("reward s0 -> done : 1e300 * 1e300;", "not finite"),
        ("reward s0 -> done : 1_0;", "unsupported"),
        ("reward s0 -> done : 0 - 1;", "negative"),
        ("param q in [1,0];", "lo <= hi"),
        ("param q in [nan,1];", "malformed param"),
        ("param q in [0,1e400];", "finite"),
        ("param q in [zero,1];", "malformed param"),
    ])
    def test_ill_posed_number_rejected_at_its_line(self, line, message):
        # SIMPLE's last line is 9; the appended line is 10
        with pytest.raises(ModelSyntaxError, match=f"line 10: .*{message}"):
            parse_model(SIMPLE + line)

    def test_negative_bounds_round_trip(self):
        m = parse_model(SIMPLE.replace("[0,1]", "[-2.5, 1e-3]"))
        assert (m.params["p"].lo, m.params["p"].hi) == (-2.5, 1e-3)
        assert parse_model(serialize_model(m)) == m

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n" + SIMPLE + "# trailer\n"
        assert parse_model(text) == parse_model(SIMPLE)

    @given(st.lists(st.sampled_from(["p", "q", "0.25", "1", "(p + q)", "1 - p",
                                     "p * q", "0.5 * (1 - q)"]),
                    min_size=1, max_size=4))
    def test_expr_round_trip(self, pieces):
        text = " + ".join(pieces)
        expr = parse_expr(text)
        assert parse_expr(str(expr)) == expr


#: values of the parameters the grammar table evaluates at
VALUES = {"p": 0.3, "q": 0.6, "r": 0.2}
#: (expression, its value at VALUES as Python computes it)
ACCEPTED = [("p", 0.3), ("1 - p", 1 - 0.3), ("0.5 * (1 - q)", 0.5 * (1 - 0.6)),
            ("1e-3 * p", 1e-3 * 0.3), (".5", 0.5), ("1.", 1.0), ("((p))", 0.3),
            ("p - (q - r)", 0.3 - (0.6 - 0.2))]
REJECTED = ["-p", "p / q", "p ** 2", "f(p)", "p.x", "'s'", "1j", "p q", "(p", "p)",
            "2p", "p - - q", "1_000", "0x10", "1e400", "", "p +"]


class TestGrammar:
    @pytest.mark.parametrize("text,value", ACCEPTED)
    def test_accepted(self, text, value):
        expr = parse_expr(text, 7)
        assert expr.evaluate(VALUES) == value
        assert parse_expr(str(expr)) == expr

    @pytest.mark.parametrize("text", REJECTED)
    def test_rejected_naming_the_line(self, text):
        with pytest.raises(ModelSyntaxError, match="line 7"):
            parse_expr(text, 7)

    def test_evaluate_accepts_arrays(self):
        p, q = np.array([0.0, 0.25, 1.0]), np.array([1.0, 0.5, 0.0])
        value = parse_expr("0.5 * (1 - q) + p").evaluate({"p": p, "q": q})
        assert np.array_equal(value, 0.5 * (1 - q) + p)


class TestInstantiate:
    def test_default_rates(self, ref_model, u_initial):
        chain = instantiate(ref_model, ref_valuation(u_initial, 1.0, 0.0))
        assert validate_stochastic(chain) == []

    def test_missing_parameter(self, ref_model, u_initial):
        val = ref_valuation(u_initial, 1.0, 0.0)
        del val["c2"]
        with pytest.raises(ModelError, match="c2"):
            instantiate(ref_model, val)

    def test_out_of_bounds_value(self, ref_model, u_initial):
        val = ref_valuation(u_initial, 1.5, 0.0)
        with pytest.raises(ModelError, match="bounds"):
            instantiate(ref_model, val)

    def test_degenerate_valuation_gives_01_chain(self, ref_model):
        val = {"p_collider": 1.0, "p_occ": 0.0, "p00": 1.0, "p01": 0.0,
               "p10": 0.0, "p11": 1.0, "c1": 1.0, "c2": 0.0}
        chain = instantiate(ref_model, val)
        assert set(chain.P.flat) <= {0.0, 1.0}

    @given(p_collider=st.floats(0, 1), p_occ=st.floats(0, 1),
           p00=st.floats(0, 1), p11=st.floats(0, 1),
           c1=st.floats(0, 1), c2=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_stochastic_for_all_valuations(self, ref_model, p_collider, p_occ,
                                           p00, p11, c1, c2):
        val = {"p_collider": p_collider, "p_occ": p_occ, "p00": p00,
               "p01": 1.0 - p00, "p10": 1.0 - p11, "p11": p11,
               "c1": c1, "c2": c2}
        chain = instantiate(ref_model, val)
        assert validate_stochastic(chain) == []


class TestValidateStochastic:
    def test_valid_reference(self, ref_chain):
        assert validate_stochastic(ref_chain) == []

    def test_deficient_row_reported(self, ref_chain):
        bad = DTMC(names=["a", "b"], labels={}, initial=0,
                   P=np.array([[0.5, 0.4], [0.0, 1.0]]), R=np.zeros((2, 2)))
        report = validate_stochastic(bad)
        assert len(report) == 1 and "state a" in report[0]

    def test_negative_probability_reported(self):
        bad = DTMC(names=["a", "b"], labels={}, initial=0,
                   P=np.array([[1.1, -0.1], [0.0, 1.0]]), R=np.zeros((2, 2)))
        assert any("outside [0, 1]" in line for line in validate_stochastic(bad))


class TestReferenceModel:
    def test_structure(self, ref_model):
        assert len(ref_model.states) == 10
        assert len(ref_model.params) == 6
        absorbing = [s for s, labels in ref_model.states.items()
                     if labels & {"done", "collision"}]
        assert len(absorbing) == 2

    def test_absorbing_closure(self, ref_model):
        for name in ("done", "collision"):
            out = [t for t in ref_model.transitions if t.src == name]
            assert len(out) == 1 and out[0].dst == name

    def test_no_collider_means_safe_and_fast(self, u_initial):
        m = reference_model(ModelConstants(p_collider=0.0))
        chain = instantiate(m, ref_valuation(u_initial, 1.0, 0.0, p_collider=0.0))
        assert pmc.until_probability(chain, "collision", "done") == pytest.approx(1.0)
        assert pmc.expected_reward_to_absorption(chain, {"done"}) == pytest.approx(10.0)

    def test_always_move_collision_probability(self, ref_model, u_initial):
        chain = instantiate(ref_model, ref_valuation(u_initial, 1.0, 1.0))
        collision = pmc.until_probability(chain, "done", "collision")
        assert collision == pytest.approx(0.8 * 0.25, abs=1e-12)

    def test_invalid_constants_rejected(self):
        with pytest.raises(ModelError):
            ModelConstants(p_collider=1.2)
        for times in ({"t_move": -1.0}, {"t_move": math.nan}, {"t_wait": math.inf}):
            with pytest.raises(ModelError, match="finite and nonnegative"):
                ModelConstants(**times)
