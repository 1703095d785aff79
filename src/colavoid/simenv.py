"""Deterministic grid-world environment.

Replaces a physics engine with a closed-form unicycle oracle: the moving
robot advances from the origin along the +x2 axis at 1 unit/s for one
10-unit grid step while the collider integrates unicycle kinematics; the
ground-truth label is 1 iff the two come within the collision radius at
any sampled instant.

A benchmark trace is a `Trace`: three arrays, `present` (bool), `X`
(n x 5 float) and `label` (int8), and nothing else.  A trace file is read
into those arrays.  A trace drawn from the seed is lazy: it draws and
labels LABEL_CHUNK situations at a time when the world first reaches them,
up to a cap; the draws are made in the same order whatever the chunking,
so chunk k is the same however many chunks come before it, and a lazy
trace's rows are a prefix of the eager `generate_trace` of the same
source.  `trace_hash` is the sha256 of the arrays' bytes over the rows a
trace holds: every row of a file, the drawn chunks of a lazy trace.
`World` serves a trace SERVE_BLOCK rows at a time, with one `predict_batch`
call of the runtime's serving predictor per block.  A step's queries are
the present rows of the trace span it consumed; its `StepRecord` names
them by trace row index, with their predictions and labels, and the
monitor reads their inputs from the trace.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .perception import INPUT_RANGES, Dataset

_LO = np.array([r[0] for r in INPUT_RANGES])
_HI = np.array([r[1] for r in INPUT_RANGES])


class EnvError(Exception):
    pass


@dataclass(frozen=True)
class ColliderState:
    x1: float                # relative position, lateral
    x2: float                # relative position, along the path
    x3: float                # heading (rad)
    x4: float                # speed (units/s)
    x5: float                # angular velocity (rad/s)

    def as_tuple(self):
        return (self.x1, self.x2, self.x3, self.x4, self.x5)


#: Radius fitted once with calibrate_radius(target=0.25): uniform positive
#: rate 0.259.  The uncalibrated default below stays at 1.5.
CALIBRATED_RADIUS = 2.28


@dataclass(frozen=True)
class OracleConfig:
    dt: float = 0.1
    horizon: float = 10.0
    radius: float = 1.5
    robot_speed: float = 1.0

    def __post_init__(self):
        if self.dt <= 0 or self.horizon < self.dt or self.radius <= 0:
            raise EnvError("bad oracle configuration")


def ground_truth_label(c, cfg=OracleConfig()):
    """1 iff the collider's unicycle trajectory comes within cfg.radius of
    the robot advancing from the origin along +x2 during one step."""
    steps = int(round(cfg.horizon / cfg.dt))
    px, py = c.x1, c.x2
    theta = c.x3
    for k in range(steps + 1):
        t = k * cfg.dt
        ry = cfg.robot_speed * t
        if math.hypot(px, py - ry) < cfg.radius:
            return 1
        px += c.x4 * math.cos(theta) * cfg.dt
        py += c.x4 * math.sin(theta) * cfg.dt
        theta += c.x5 * cfg.dt
    return 0


#: Situations the trace generator draws, labels and emits together; bounds
#: the batched oracle's temporaries to a few arrays of this length.
LABEL_CHUNK = 4096


def ground_truth_labels(X, cfg=OracleConfig()):
    """Batched ground_truth_label over the rows (x1..x5) of X; array of 0/1.

    Steps every state through the same recurrence with the same operation
    order.  np.hypot and math.hypot may differ by one ulp, so a state whose
    distance comes within two ulps of the radius at any instant is relabelled
    by the scalar oracle; the two oracles agree bit for bit.
    """
    X = np.asarray(X, dtype=float).reshape(-1, 5)
    steps = int(round(cfg.horizon / cfg.dt))
    tie = 2.0 * np.spacing(cfg.radius)
    px, py, theta = X[:, 0].copy(), X[:, 1].copy(), X[:, 2].copy()
    x4, x5 = X[:, 3], X[:, 4]
    hit = np.zeros(len(X), dtype=bool)
    near = np.zeros(len(X), dtype=bool)
    for k in range(steps + 1):
        t = k * cfg.dt
        ry = cfg.robot_speed * t
        dist = np.hypot(px, py - ry)
        hit |= dist < cfg.radius
        near |= np.abs(dist - cfg.radius) <= tie
        px += x4 * np.cos(theta) * cfg.dt
        py += x4 * np.sin(theta) * cfg.dt
        theta += x5 * cfg.dt
    for i in np.nonzero(near)[0]:
        hit[i] = ground_truth_label(ColliderState(*X[i].tolist()), cfg)
    return hit.astype(int)


def calibrate_radius(target=0.25, tol=0.01, n=20000, seed=12345):
    """Bisect the collision radius so the uniform positive rate hits `target`;
    the oracle's other settings are OracleConfig's defaults."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(_LO, _HI, size=(n, 5))

    def rate(radius):
        return int(ground_truth_labels(points, OracleConfig(radius=radius)).sum()) / n

    lo, hi = 0.05, 6.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        r = rate(mid)
        if abs(r - target) <= tol:
            return mid, r
        if r < target:
            lo = mid
        else:
            hi = mid
    return mid, r


# ---------------------------------------------------------------------------
# Environment input generation
# ---------------------------------------------------------------------------

@dataclass
class EnvGenerator:
    """Collider-state source: uniform over the input space, or a clipped
    Gaussian random walk with uniform draws from an eps-ball around the
    walking center.  `draw(k)` returns the next k states as a k x 5 array."""

    mode: str = "uniform"            # "uniform" | "random_walk"
    seed: int = 0
    center: ColliderState = None     # random-walk starting point
    eps: float = 0.5                 # neighborhood radius (fraction of range/2)
    walk_scale: float = 0.5          # Gaussian step scale (fraction of range/2)

    def __post_init__(self):
        if self.mode not in ("uniform", "random_walk"):
            raise EnvError(f"unknown generator mode {self.mode!r}")
        self._rng = np.random.default_rng(self.seed)
        self._half = (_HI - _LO) / 2.0
        self._c = ((_LO + _HI) / 2.0 if self.center is None
                   else np.array(self.center.as_tuple()))

    def draw(self, k):
        if self.mode == "uniform":
            return self._rng.uniform(_LO, _HI, size=(k, 5))
        return self._walk(k)

    def _walk(self, k):
        """k walk steps.  A step draws five normals and then five uniforms, so
        the draws stay in a per-step loop; the arithmetic of normal(0, s)
        (0 + s z) and of uniform(-r, r) (-r + (r - -r) u) is then done on the
        whole block, with the same operations in the same order, and the
        states are bit-identical to per-step normal/uniform calls."""
        Z, U = np.empty((k, 5)), np.empty((k, 5))
        for z, u in zip(Z, U):
            self._rng.standard_normal(out=z)
            self._rng.random(out=u)
        steps = (0.0 + self.walk_scale * Z) * self._half
        radius = self.eps * self._half
        offsets = -radius + (radius - -radius) * U
        centers = np.empty((k, 5))
        c = self._c
        for i, step in enumerate(steps):
            c = np.minimum(np.maximum(c + step, _LO), _HI)
            centers[i] = c
        self._c = c
        return np.clip(centers + offsets, _LO, _HI)


def ball_sample(c0, eps, n, rng):
    """n uniform draws from the per-dimension eps-ball around c0, clipped to
    the input ranges; an n x 5 array."""
    return np.clip(np.array(c0.as_tuple()) + rng.uniform(-eps, eps, size=(n, 5)), _LO, _HI)


def gen_initial_datasets(c0, eps0, sizes, seed, oracle=OracleConfig()):
    """Pre-collected datasets drawn from the eps0-ball around c0 and labelled
    by the oracle; returns (train, val, confusion, test)."""
    rng = np.random.default_rng(seed)
    out = []
    for size in sizes:
        if size < 1:
            raise EnvError("dataset sizes must be positive")
        X = ball_sample(c0, eps0, size, rng)
        out.append(Dataset(X, ground_truth_labels(X, oracle)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Benchmark traces
# ---------------------------------------------------------------------------

class TraceExhausted(Exception):
    """The run needs more situations than its benchmark trace may hold."""


TRACE_HEADER = ["present", "x1", "x2", "x3", "x4", "x5", "label"]
#: One trace row as a CSV line.
_CSV_ROW = "%d,%r,%r,%r,%r,%r,%d\r\n"


class Trace:
    """Benchmark situations as arrays: `present` (bool), `X` (n x 5 float)
    and `label` (int8).

    `len` is the cap on the rows the trace may hold; `held` is the number
    it holds.  A trace with a `source` (see lazy_trace) holds fewer than
    its cap: `extend_to` draws more from it, LABEL_CHUNK rows at a time.
    `path` names the file the rows came from."""

    def __init__(self, present, X, label, cap=None, source=None, path=None):
        self.present = np.asarray(present, dtype=bool)
        self.X = np.asarray(X, dtype=float).reshape(-1, 5)
        self.label = np.asarray(label, dtype=np.int8)
        self.cap = self.held if cap is None else cap
        self.source = source
        self.path = path

    def __len__(self):
        return self.cap

    @property
    def held(self):
        return len(self.present)

    def extend_to(self, n):
        """Draw chunks until the trace holds at least n rows; TraceExhausted
        when n exceeds the cap."""
        if n > self.cap:
            where = f"trace file {self.path}" if self.path else "trace"
            raise TraceExhausted(f"{where} has {self.cap} rows; the run needs more")
        while self.held < n:
            present, X, label = self.source(min(LABEL_CHUNK, self.cap - self.held))
            self.present = np.concatenate([self.present, present])
            self.X = np.concatenate([self.X, X])
            self.label = np.concatenate([self.label, label.astype(np.int8)])


def lazy_trace(cap, p_collider, gen, seed, oracle=OracleConfig()):
    """An empty trace of at most `cap` situations.  Each chunk draws its
    presences from a generator seeded with `seed` and its states from
    `gen`, and labels the states with the oracle."""
    rng = np.random.default_rng(seed)

    def source(k):
        X = gen.draw(k)
        return rng.random(k) < p_collider, X, ground_truth_labels(X, oracle)

    return Trace([], [], [], cap=cap, source=source)


def generate_trace(n, p_collider, gen, seed, oracle=OracleConfig()):
    """Pre-constructed benchmark: n situation draws shared by all methods,
    drawn and labelled now (a lazy trace extended to its cap)."""
    trace = lazy_trace(n, p_collider, gen, seed, oracle)
    trace.extend_to(n)
    return trace


def write_trace(path, trace):
    """The rows as CSV, formatted LABEL_CHUNK rows at a time; floats as
    repr, so that reading gives the same bits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        for start in range(0, trace.held, LABEL_CHUNK):
            part = slice(start, start + LABEL_CHUNK)
            fh.write("".join([_CSV_ROW % (p, *x, y) for p, x, y in zip(
                trace.present[part].tolist(), trace.X[part].tolist(),
                trace.label[part].tolist())]))


def read_trace(path):
    """Load a trace CSV.  A malformed file (wrong header or column count,
    present or label not 0 or 1, a non-finite state) raises EnvError naming
    the path and the row; row 1 is the first non-blank line after the header."""
    with open(path, newline="") as fh:
        if fh.readline().rstrip("\r\n").split(",") != TRACE_HEADER:
            raise EnvError(f"{path}: header must be {','.join(TRACE_HEADER)}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)    # no data rows
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
    if data is not None and data.size == 0:
        data = np.empty((0, 7))
    if data is None or data.shape[1] != 7:
        raise EnvError(_malformed(path))
    present, X, label = data[:, 0], data[:, 1:6], data[:, 6]
    bad = ~(np.isin(present, (0, 1)) & np.isin(label, (0, 1)) & np.isfinite(X).all(axis=1))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise EnvError(f"{path}, row {i + 1}: present and label must be 0 or 1 and the "
                       f"state finite, got {data[i].tolist()}")
    return Trace(present == 1, X, label, path=path)


def _malformed(path):
    """The error for a file np.loadtxt could not read: its first row with the
    wrong column count or a non-numeric field."""
    with open(path, newline="") as fh:
        rows = [line for line in fh.read().splitlines()[1:] if line]
    for i, line in enumerate(rows, 1):
        fields = line.split(",")
        if len(fields) != 7:
            return f"{path}, row {i}: {len(fields)} columns, expected 7"
        try:
            [float(v) for v in fields]
        except ValueError:
            return f"{path}, row {i}: non-numeric field in {line!r}"
    return f"{path}: unreadable trace"


def trace_hash(trace):
    """sha256 over the rows the trace holds: the bytes of `present` as
    uint8, then of `X` as little-endian float64, then of `label` as int8."""
    h = hashlib.sha256(trace.present.astype(np.uint8).tobytes())
    h.update(trace.X.astype("<f8").tobytes())
    h.update(trace.label.astype(np.int8).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# World stepping
# ---------------------------------------------------------------------------

@dataclass
class StepRecord:
    """One attempted one-step movement."""

    outcome: str             # "done" | "collision"
    elapsed: float
    waits: int
    observations: list       # one (trace row, prediction, truth) per query


#: Trace rows per batched forward pass of World; a divisor of LABEL_CHUNK.
#: Larger blocks cost more per row and more memory.
SERVE_BLOCK = 256


class World:
    """Replays a benchmark trace through a runtime's perception/controller.
    `cursor` counts the situations drawn so far.  The block that holds the
    cursor is predicted with one `predict_batch` call of `runtime.predictor`,
    and again when a step finds another predictor serving (a repair swap)."""

    def __init__(self, trace, t_move=10.0, t_wait=2.0):
        self.trace = trace
        self.cursor = 0
        self.t_move = t_move
        self.t_wait = t_wait
        self._start = self._end = 0      # the block's trace rows
        self._rows = None                # its (present, prediction, label)
        self._predictor = None           # whose predictions _rows holds

    def _enter_block(self, predictor):
        """Hold the block that starts at the cursor, served by `predictor`."""
        t, start = self.trace, self.cursor
        if start >= t.held:
            t.extend_to(start + 1)
        self._start, self._end = start, min(start + SERVE_BLOCK, t.held)
        self._serve(predictor)

    def _serve(self, predictor):
        """The held block's rows with the predictions of `predictor`."""
        t, part = self.trace, slice(self._start, self._end)
        predictions = predictor.predict_batch(t.X[part])
        self._rows = list(zip(t.present[part].tolist(), predictions.tolist(),
                              t.label[part].tolist()))
        self._predictor = predictor

    def step(self, runtime, rng):
        """Attempt one movement; ends at the first move (done or collision)."""
        predictor = runtime.predictor
        if predictor is not self._predictor and self.cursor < self._end:
            self._serve(predictor)
        waits = 0
        observations = []
        while True:
            if self.cursor == self._end:
                self._enter_block(predictor)
            row = self.cursor
            present, prediction, label = self._rows[row - self._start]
            self.cursor = row + 1
            if not present:
                return StepRecord("done", waits * self.t_wait + self.t_move,
                                  waits, observations)
            observations.append((row, prediction, label))
            move_prob = runtime.move_probability(prediction)
            if rng.random() < move_prob:
                outcome = "collision" if label == 1 else "done"
                return StepRecord(outcome, waits * self.t_wait + self.t_move,
                                  waits, observations)
            waits += 1
