"""Parametric discrete-time Markov chains and their textual model format.

A PDTMC carries expression-valued transition probabilities over named,
bounded parameters.  Each expression is checked against the grammar and
compiled once, and each model is compiled to matrix form once, at
construction; instantiating a full valuation then only evaluates the
expressions into the transition matrix of a concrete DTMC, whose rows are
checked for stochasticity; array-valued parameters give a stack of chains.
The reference collision-avoidance chain used throughout the project ships
with the package as the model text `collision.pdtmc`; :func:`reference_model`
parses it, its rewards naming the timing constants of :class:`ModelConstants`.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np


STOCHASTIC_TOL = 1e-9


class ModelError(Exception):
    """Raised for structural problems in a model."""


class ModelSyntaxError(ModelError):
    """Raised by the parser; carries the offending line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# ---------------------------------------------------------------------------
# Parameter expressions
# ---------------------------------------------------------------------------

#: The characters and numerals of the expression grammar; Python's own
#: numerals also allow `_`, hexadecimal, octal, binary and imaginary forms.
_ALPHABET = re.compile(r"[\w\s.()+\-*]*", re.ASCII)
_NUMERAL = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?")

#: symbol and closure builder of each binary operator of the grammar
_BINOPS = {
    ast.Add: ("+", lambda f, g: lambda v: f(v) + g(v)),
    ast.Sub: ("-", lambda f, g: lambda v: f(v) - g(v)),
    ast.Mult: ("*", lambda f, g: lambda v: f(v) * g(v)),
}


@dataclass(frozen=True)
class ParamExpr:
    """Expression over decimal numerals, parameters, +, - and *, compiled to
    closures once; `evaluate` accepts floats or numpy arrays as values."""

    text: str                                           # canonical: parse_expr(text) == self
    evaluate: object = field(compare=False, repr=False)  # valuation -> value
    names: frozenset = field(compare=False)             # parameters referenced

    def __str__(self):
        return self.text


def format_number(x):
    """Render a float compactly; integers lose the trailing '.0'."""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _compile(node, text, line_no):
    """(closure over a valuation, canonical text) of one checked node;
    ModelSyntaxError for a node outside the grammar."""
    source = ast.get_source_segment(text, node)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        symbol, build = _BINOPS[type(node.op)]
        left, left_text = _compile(node.left, text, line_no)
        right, right_text = _compile(node.right, text, line_no)
        # the grammar is left-associative: a compound right operand, and a
        # compound left operand of '*', need parentheses
        if isinstance(node.left, ast.BinOp) and symbol == "*":
            left_text = f"({left_text})"
        if isinstance(node.right, ast.BinOp):
            right_text = f"({right_text})"
        return build(left, right), f"{left_text} {symbol} {right_text}"
    if isinstance(node, ast.Name):
        name = node.id

        def param(valuation):
            try:
                return valuation[name]
            except KeyError:
                raise ModelError(f"no value for parameter '{name}'") from None
        return param, name
    if isinstance(node, ast.Constant) and _NUMERAL.fullmatch(source):
        value = float(source)
        if not math.isfinite(value):
            raise ModelSyntaxError(f"numeral {source!r} overflows", line_no)
        return (lambda valuation: value), format_number(value)
    raise ModelSyntaxError(f"unsupported {source!r} in expression {text!r}", line_no)


def parse_expr(text, line_no=0):
    """Check `text` against the expression grammar and compile it.  The text
    is parsed by `ast` and checked node by node; it is never executed."""
    text = text.strip()
    if not _ALPHABET.fullmatch(text):
        raise ModelSyntaxError(f"bad character in expression {text!r}", line_no)
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        raise ModelSyntaxError(f"malformed expression {text!r}", line_no) from None
    fn, canonical = _compile(tree.body, text, line_no)
    return ParamExpr(canonical, fn,
                     frozenset(n.id for n in ast.walk(tree) if isinstance(n, ast.Name)))


# ---------------------------------------------------------------------------
# Chain data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamDecl:
    name: str
    lo: float
    hi: float


@dataclass(frozen=True)
class Transition:
    src: str
    dst: str
    expr: ParamExpr


@dataclass
class PDTMC:
    """Parametric chain: named/labelled states, expression transitions, rewards.

    `parse_model` checks that every state, parameter and reward is declared
    and well-formed; construction only compiles the chain once for
    `instantiate`: the state order `names`, the flat cell of each transition
    in the n x n matrix, the reward matrix `R` and the mask of the states
    carrying each label."""

    states: dict            # name -> frozenset of labels
    initial: str
    transitions: list       # of Transition
    rewards: dict           # (src, dst) -> float
    params: dict            # name -> ParamDecl

    def __post_init__(self):
        self.names = list(self.states)
        index = {s: i for i, s in enumerate(self.names)}
        n = len(self.names)
        self.cells = np.array([index[t.src] * n + index[t.dst] for t in self.transitions],
                              dtype=np.intp)
        self.R = np.zeros((n, n))
        for (src, dst), reward in self.rewards.items():
            self.R[index[src], index[dst]] = reward
        self.labels = {label: np.array([label in self.states[s] for s in self.names])
                       for label in set().union(*self.states.values())}

    def __eq__(self, other):
        if not isinstance(other, PDTMC):
            return NotImplemented
        return (self.states == other.states and self.initial == other.initial
                and self.rewards == other.rewards and self.params == other.params
                and {(t.src, t.dst, str(t.expr)) for t in self.transitions}
                == {(t.src, t.dst, str(t.expr)) for t in other.transitions})


@dataclass
class DTMC:
    """Concrete chain.  P[i, j] and R[i, j] are the probability and the reward
    of the move from state names[i] to names[j]; labels maps each label to
    the mask of the states carrying it; initial is a state index.  Chains
    instantiated from one model share its names, labels and R; a stack of K
    of them has a (K, n, n) P."""

    names: list
    labels: dict
    initial: int
    P: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class ModelConstants:
    """Fixed environment/timing constants of the reference chain."""

    p_collider: float = 0.8
    p_occ: float = 0.25
    t_move: float = 10.0
    t_wait: float = 2.0

    def __post_init__(self):
        if not (0.0 <= self.p_collider <= 1.0 and 0.0 <= self.p_occ <= 1.0):
            raise ModelError("p_collider and p_occ must lie in [0, 1]")
        if not (0.0 <= self.t_move < math.inf and 0.0 <= self.t_wait < math.inf):
            raise ModelError("step times must be finite and nonnegative")

    def valuation(self):
        """Every constant by name: p_collider and p_occ value the chain's
        parameters of that name, t_move and t_wait its rewards."""
        return {"p_collider": self.p_collider, "p_occ": self.p_occ,
                "t_move": self.t_move, "t_wait": self.t_wait}


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

#: a parameter bound: a numeral of the expression grammar, optionally negative
_BOUND = rf"\s*(-?(?:{_NUMERAL.pattern}))\s*"
_LINE_RES = {
    "param": re.compile(rf"param\s+([A-Za-z_][A-Za-z0-9_]*)\s+in\s*\[{_BOUND},{_BOUND}\]\s*;$"),
    "state": re.compile(r"state\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[([^\]]*)\])?\s*;$"),
    "init": re.compile(r"init\s+([A-Za-z_][A-Za-z0-9_]*)\s*;$"),
    "trans": re.compile(r"trans\s+([A-Za-z_][A-Za-z0-9_]*)\s*->\s*([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.+);$"),
    "reward": re.compile(r"reward\s+([A-Za-z_][A-Za-z0-9_]*)\s*->\s*([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.+);$"),
}


def parse_model(text, constants=None):
    """Parse the line-oriented model format into a PDTMC.  A reward is an
    expression over the names of `constants` (name -> value), evaluated here;
    rewards must be finite and nonnegative, parameter bounds finite."""
    constants = constants or {}
    states = {}
    initial = None
    transitions = []
    rewards = {}
    params = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        pattern = _LINE_RES.get(keyword)
        if pattern is None:
            raise ModelSyntaxError(f"unknown directive {keyword!r}", line_no)
        m = pattern.match(line)
        if m is None:
            raise ModelSyntaxError(f"malformed {keyword} line", line_no)
        if keyword == "param":
            name, lo, hi = m.group(1), float(m.group(2)), float(m.group(3))
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ModelSyntaxError(
                    f"bounds of '{name}' must be finite with lo <= hi", line_no)
            if name in params:
                raise ModelSyntaxError(f"duplicate parameter '{name}'", line_no)
            params[name] = ParamDecl(name, lo, hi)
        elif keyword == "state":
            name = m.group(1)
            if name in states:
                raise ModelSyntaxError(f"duplicate state name '{name}'", line_no)
            labels = m.group(2) or ""
            states[name] = frozenset(l.strip() for l in labels.split(",") if l.strip())
        elif keyword == "init":
            if initial is not None:
                raise ModelSyntaxError("duplicate init directive", line_no)
            initial, init_line = m.group(1), line_no
        else:  # trans and reward lines
            src, dst = m.group(1), m.group(2)
            for endpoint in (src, dst):
                if endpoint not in states:
                    raise ModelSyntaxError(f"undeclared state '{endpoint}'", line_no)
            expr = parse_expr(m.group(3), line_no)
            if keyword == "trans":
                for p in expr.names:
                    if p not in params:
                        raise ModelSyntaxError(f"undeclared parameter '{p}'", line_no)
                transitions.append(Transition(src, dst, expr))
            else:  # reward
                for name in sorted(expr.names):
                    if name not in constants:
                        raise ModelSyntaxError(f"unknown constant '{name}' in reward", line_no)
                value = float(expr.evaluate(constants))
                if not math.isfinite(value):
                    raise ModelSyntaxError(f"reward {src}->{dst} is not finite: {value}", line_no)
                if value < 0:
                    raise ModelSyntaxError(f"reward {src}->{dst} is negative: {value}", line_no)
                rewards[(src, dst)] = value
    if initial is None:
        raise ModelError("model declares no initial state")
    if initial not in states:
        raise ModelSyntaxError(f"initial state '{initial}' is not declared", init_line)
    return PDTMC(states=states, initial=initial, transitions=transitions,
                 rewards=rewards, params=params)


def serialize_model(model):
    """Render a PDTMC back to the text format; parse(serialize(m)) == m."""
    lines = []
    for decl in model.params.values():
        lines.append(f"param {decl.name} in [{format_number(decl.lo)},{format_number(decl.hi)}];")
    for name in model.states:
        labels = sorted(model.states[name])
        suffix = f" [{','.join(labels)}]" if labels else ""
        lines.append(f"state {name}{suffix};")
    lines.append(f"init {model.initial};")
    for t in model.transitions:
        lines.append(f"trans {t.src} -> {t.dst} : {t.expr};")
    for (src, dst), r in model.rewards.items():
        lines.append(f"reward {src} -> {dst} : {format_number(r)};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Instantiation and validation
# ---------------------------------------------------------------------------

def instantiate(model, valuation):
    """Evaluate every transition expression under a full valuation.

    Parameters given as arrays of one length K give one DTMC whose P is a
    (K, n, n) stack, checked in one pass; the first failing member raises
    the message of its scalar valuation, prefixed by "member k: "."""
    for name in model.params:
        if name not in valuation:
            raise ModelError(f"valuation missing parameter '{name}'")
    point = {name: np.asarray(valuation[name], dtype=float) for name in model.params}
    shape = np.broadcast_shapes(*(v.shape for v in point.values()))
    k = shape[0] if shape else 1
    point = {name: np.broadcast_to(v, (k,)) for name, v in point.items()}
    values = np.empty((k, len(model.transitions)))
    for j, t in enumerate(model.transitions):
        values[:, j] = t.expr.evaluate(point)
    n = len(model.names)
    # bincount adds parallel transitions in declaration order, member by member
    cells = (np.arange(k)[:, None] * (n * n) + model.cells).ravel()
    P = np.bincount(cells, weights=values.ravel(), minlength=k * n * n).reshape(k, n, n)
    with np.errstate(invalid="ignore"):     # rows holding inf - inf sum to nan
        outside, _, unsummed = _violations(P)
    bad = outside.any(axis=(1, 2)) | unsummed.any(axis=1) | ~np.isfinite(values).all(axis=1)
    for name, decl in model.params.items():
        bad |= ~_in_bounds(decl, point[name])
    if bad.any():
        i = int(np.argmax(bad))
        message = _member_error(model, {name: v[i] for name, v in point.items()},
                                values[i], P[i])
        raise ModelError(f"member {i}: {message}" if shape else message)
    return DTMC(names=model.names, labels=model.labels,
                initial=model.names.index(model.initial), P=P if shape else P[0], R=model.R)


def _in_bounds(decl, v):
    return (decl.lo - 1e-12 <= v) & (v <= decl.hi + 1e-12)


def _member_error(model, point, values, P):
    """The first violation of one member: bounds, finiteness, stochasticity."""
    for name, decl in model.params.items():
        if not _in_bounds(decl, point[name]):
            return f"value {point[name]} for '{name}' outside bounds [{decl.lo}, {decl.hi}]"
    for t, p in zip(model.transitions, values):
        if not math.isfinite(p):
            return f"transition {t.src}->{t.dst} evaluates to non-finite {p}"
    member = DTMC(names=model.names, labels=model.labels, initial=0, P=P, R=model.R)
    return "instantiation is not stochastic: " + "; ".join(validate_stochastic(member))


def _violations(P):
    """(cells outside [0, 1], row sums, rows not summing to 1) of P."""
    outside = ~((P >= -STOCHASTIC_TOL) & (P <= 1.0 + STOCHASTIC_TOL))
    sums = P.sum(axis=-1)
    return outside, sums, np.abs(sums - 1.0) > STOCHASTIC_TOL


def validate_stochastic(chain):
    """List every stochasticity violation; an empty list means the chain is valid."""
    P, names = chain.P, chain.names
    outside, sums, unsummed = _violations(P)
    return ([f"state {names[i]}: probability {P[i, j]} to {names[j]} outside [0, 1]"
             for i, j in zip(*np.nonzero(outside))]
            + [f"state {names[i]}: outgoing probabilities sum to {sums[i]}"
               for i in np.flatnonzero(unsummed)])


# ---------------------------------------------------------------------------
# Reference collision-avoidance chain
# ---------------------------------------------------------------------------

def reference_model(constants=None):
    """The one-step collision-avoidance chain shipped with the package as
    `collision.pdtmc`, its rewards timed by `constants` (a ModelConstants;
    the defaults when None).  The file's comments describe the topology."""
    text = resources.files(__package__).joinpath("collision.pdtmc").read_text()
    return parse_model(text, (constants or ModelConstants()).valuation())
