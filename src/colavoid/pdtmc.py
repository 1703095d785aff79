"""Parametric discrete-time Markov chains and their textual model format.

A PDTMC carries expression-valued transition probabilities over named,
bounded parameters.  Instantiating a full valuation produces a concrete
DTMC whose rows are checked for stochasticity.  The reference
collision-avoidance chain used throughout the project is built by
:func:`reference_model`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass


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

class ParamExpr:
    """Expression tree over numeric literals, parameters, +, - and *."""

    def evaluate(self, valuation):
        raise NotImplementedError

    def parameters(self):
        """Set of parameter names referenced by this expression."""
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(str(self))


class Num(ParamExpr):
    def __init__(self, value):
        self.value = float(value)

    def evaluate(self, valuation):
        return self.value

    def parameters(self):
        return set()

    def __str__(self):
        return format_number(self.value)


class Param(ParamExpr):
    def __init__(self, name):
        self.name = name

    def evaluate(self, valuation):
        try:
            return valuation[self.name]
        except KeyError:
            raise ModelError(f"no value for parameter '{self.name}'") from None

    def parameters(self):
        return {self.name}

    def __str__(self):
        return self.name


class BinOp(ParamExpr):
    _ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}

    def __init__(self, op, left, right):
        assert op in self._ops
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, valuation):
        return self._ops[self.op](self.left.evaluate(valuation), self.right.evaluate(valuation))

    def parameters(self):
        return self.left.parameters() | self.right.parameters()

    def __str__(self):
        left = str(self.left)
        right = str(self.right)
        if isinstance(self.left, BinOp) and self.op == "*":
            left = f"({left})"
        # left-associative grammar: a compound right operand always needs parens
        if isinstance(self.right, BinOp):
            right = f"({right})"
        return f"{left} {self.op} {right}"


def format_number(x):
    """Render a float compactly; integers lose the trailing '.0'."""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


class _ExprParser:
    """Recursive-descent parser for the transition-expression grammar."""

    _token_re = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?)"
                           r"|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*]))")

    def __init__(self, text, line_no):
        self.tokens = []
        self.line_no = line_no
        pos = 0
        while pos < len(text):
            m = self._token_re.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ModelSyntaxError(f"bad character in expression: {text[pos:].strip()[0]!r}", line_no)
                break
            if m.group(1) is not None:
                self.tokens.append(("num", float(m.group(1))))
            elif m.group(2) is not None:
                self.tokens.append(("name", m.group(2)))
            else:
                self.tokens.append(("op", m.group(3)))
            pos = m.end()
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def parse(self):
        expr = self._sum()
        if self.i != len(self.tokens):
            raise ModelSyntaxError("trailing tokens in expression", self.line_no)
        return expr

    def _sum(self):
        left = self._product()
        while self._peek() == ("op", "+") or self._peek() == ("op", "-"):
            _, op = self._next()
            left = BinOp(op, left, self._product())
        return left

    def _product(self):
        left = self._atom()
        while self._peek() == ("op", "*"):
            self._next()
            left = BinOp("*", left, self._atom())
        return left

    def _atom(self):
        kind, value = self._next()
        if kind == "num":
            return Num(value)
        if kind == "name":
            return Param(value)
        if (kind, value) == ("op", "("):
            inner = self._sum()
            if self._next() != ("op", ")"):
                raise ModelSyntaxError("missing ')'", self.line_no)
            return inner
        raise ModelSyntaxError("expected number, parameter or '('", self.line_no)


def parse_expr(text, line_no=0):
    return _ExprParser(text, line_no).parse()


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
    """Parametric chain: named/labelled states, expression transitions, rewards."""

    states: dict            # name -> frozenset of labels
    initial: str
    transitions: list       # of Transition
    rewards: dict           # (src, dst) -> float
    params: dict            # name -> ParamDecl

    def __post_init__(self):
        if self.initial not in self.states:
            raise ModelError(f"initial state '{self.initial}' is not declared")
        for t in self.transitions:
            for endpoint in (t.src, t.dst):
                if endpoint not in self.states:
                    raise ModelError(f"undeclared state '{endpoint}' in transition")
            for p in t.expr.parameters():
                if p not in self.params:
                    raise ModelError(f"undeclared parameter '{p}'")
        for (src, dst) in self.rewards:
            if src not in self.states or dst not in self.states:
                raise ModelError("reward references undeclared state")
            if self.rewards[(src, dst)] < 0:
                raise ModelError("transition rewards must be nonnegative")

    def states_with_label(self, label):
        return {s for s, labels in self.states.items() if label in labels}

    def __eq__(self, other):
        if not isinstance(other, PDTMC):
            return NotImplemented
        return (self.states == other.states and self.initial == other.initial
                and self.rewards == other.rewards and self.params == other.params
                and {(t.src, t.dst, str(t.expr)) for t in self.transitions}
                == {(t.src, t.dst, str(t.expr)) for t in other.transitions})


@dataclass
class DTMC:
    """Concrete chain with numeric transition probabilities."""

    states: dict            # name -> frozenset of labels
    initial: str
    probs: dict             # (src, dst) -> float
    rewards: dict           # (src, dst) -> float

    def states_with_label(self, label):
        return {s for s, labels in self.states.items() if label in labels}


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
        if self.t_move < 0 or self.t_wait < 0:
            raise ModelError("step times must be nonnegative")

    def valuation(self):
        return {"p_collider": self.p_collider, "p_occ": self.p_occ}


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_LINE_RES = {
    "param": re.compile(r"param\s+([A-Za-z_][A-Za-z0-9_]*)\s+in\s*\[\s*([^,\]]+)\s*,\s*([^,\]]+)\s*\]\s*;$"),
    "state": re.compile(r"state\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[([^\]]*)\])?\s*;$"),
    "init": re.compile(r"init\s+([A-Za-z_][A-Za-z0-9_]*)\s*;$"),
    "trans": re.compile(r"trans\s+([A-Za-z_][A-Za-z0-9_]*)\s*->\s*([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.+);$"),
    "reward": re.compile(r"reward\s+([A-Za-z_][A-Za-z0-9_]*)\s*->\s*([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.+);$"),
}


def parse_model(text):
    """Parse the line-oriented model format into a PDTMC."""
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
            initial = m.group(1)
        elif keyword == "trans":
            src, dst = m.group(1), m.group(2)
            for endpoint in (src, dst):
                if endpoint not in states:
                    raise ModelSyntaxError(f"undeclared state '{endpoint}'", line_no)
            expr = parse_expr(m.group(3), line_no)
            for p in expr.parameters():
                if p not in params:
                    raise ModelSyntaxError(f"undeclared parameter '{p}'", line_no)
            transitions.append(Transition(src, dst, expr))
        else:  # reward
            src, dst = m.group(1), m.group(2)
            for endpoint in (src, dst):
                if endpoint not in states:
                    raise ModelSyntaxError(f"undeclared state '{endpoint}'", line_no)
            rewards[(src, dst)] = float(m.group(3))
    if initial is None:
        raise ModelError("model declares no initial state")
    if initial not in states:
        raise ModelError(f"initial state '{initial}' is not declared")
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
    """Evaluate every transition expression under a full valuation."""
    for name, decl in model.params.items():
        if name not in valuation:
            raise ModelError(f"valuation missing parameter '{name}'")
        v = valuation[name]
        if not (decl.lo - 1e-12 <= v <= decl.hi + 1e-12):
            raise ModelError(f"value {v} for '{name}' outside bounds [{decl.lo}, {decl.hi}]")
    probs = {}
    for t in model.transitions:
        p = t.expr.evaluate(valuation)
        if not math.isfinite(p):
            raise ModelError(f"transition {t.src}->{t.dst} evaluates to non-finite {p}")
        probs[(t.src, t.dst)] = probs.get((t.src, t.dst), 0.0) + p
    chain = DTMC(states=dict(model.states), initial=model.initial,
                 probs=probs, rewards=dict(model.rewards))
    report = validate_stochastic(chain)
    if report:
        raise ModelError("instantiation is not stochastic: " + "; ".join(report))
    return chain


def validate_stochastic(chain):
    """List every stochasticity violation; an empty list means the chain is valid."""
    violations = []
    sums = {s: 0.0 for s in chain.states}
    for (src, dst), p in chain.probs.items():
        if not (-STOCHASTIC_TOL <= p <= 1.0 + STOCHASTIC_TOL):
            violations.append(f"state {src}: probability {p} to {dst} outside [0, 1]")
        sums[src] += p
    for s, total in sums.items():
        if abs(total - 1.0) > STOCHASTIC_TOL:
            violations.append(f"state {s}: outgoing probabilities sum to {total}")
    return violations


# ---------------------------------------------------------------------------
# Reference collision-avoidance chain
# ---------------------------------------------------------------------------

#: Parameters of the reference model in declaration order.
REFERENCE_PARAMS = ("p_collider", "p_occ", "p00", "p11", "c1", "c2")


def reference_model(constants=None):
    """Build the one-step collision-avoidance chain.

    Topology: from `check` the robot either moves freely (no collider) or
    meets a collider whose true class is dangerous with probability p_occ.
    The perception verdict splits each class into a predicted-0 / predicted-1
    state; the controller then moves with probability c1 (prediction 0) or
    c2 (prediction 1), otherwise waits and re-samples the situation.  Moving
    from a dangerous situation is absorbed in `collision`, any other move in
    `done`.  Move transitions carry reward t_move, waits t_wait.
    """
    constants = constants or ModelConstants()
    e = parse_expr
    states = {
        "check": frozenset(),
        "encounter": frozenset(),
        "safe": frozenset(),
        "danger": frozenset(),
        "safe_pred0": frozenset(),
        "safe_pred1": frozenset(),
        "danger_pred0": frozenset(),
        "danger_pred1": frozenset(),
        "done": frozenset({"done"}),
        "collision": frozenset({"collision"}),
    }
    transitions = [
        Transition("check", "done", e("1 - p_collider")),
        Transition("check", "encounter", e("p_collider")),
        Transition("encounter", "danger", e("p_occ")),
        Transition("encounter", "safe", e("1 - p_occ")),
        # complementary pairs keep every row stochastic for any valuation,
        # so p01 = 1 - p00 and p10 = 1 - p11 need no parameters of their own
        Transition("safe", "safe_pred0", e("p00")),
        Transition("safe", "safe_pred1", e("1 - p00")),
        Transition("danger", "danger_pred1", e("p11")),
        Transition("danger", "danger_pred0", e("1 - p11")),
        Transition("safe_pred0", "done", e("c1")),
        Transition("safe_pred0", "check", e("1 - c1")),
        Transition("safe_pred1", "done", e("c2")),
        Transition("safe_pred1", "check", e("1 - c2")),
        Transition("danger_pred0", "collision", e("c1")),
        Transition("danger_pred0", "check", e("1 - c1")),
        Transition("danger_pred1", "collision", e("c2")),
        Transition("danger_pred1", "check", e("1 - c2")),
        Transition("done", "done", e("1")),
        Transition("collision", "collision", e("1")),
    ]
    tm, tw = constants.t_move, constants.t_wait
    rewards = {
        ("check", "done"): tm,
        ("safe_pred0", "done"): tm,
        ("safe_pred1", "done"): tm,
        ("danger_pred0", "collision"): tm,
        ("danger_pred1", "collision"): tm,
        ("safe_pred0", "check"): tw,
        ("safe_pred1", "check"): tw,
        ("danger_pred0", "check"): tw,
        ("danger_pred1", "check"): tw,
    }
    params = {name: ParamDecl(name, 0.0, 1.0) for name in REFERENCE_PARAMS}
    return PDTMC(states=states, initial="check", transitions=transitions,
                 rewards=rewards, params=params)
