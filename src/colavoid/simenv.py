"""Deterministic grid-world environment.

Replaces a physics engine with a closed-form unicycle oracle: the moving
robot advances from the origin along the +x2 axis at 1 unit/s for one
10-unit grid step while the collider integrates unicycle kinematics; the
ground-truth label is 1 iff the two come within the collision radius at
any sampled instant.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .perception import INPUT_RANGES, Dataset, Sample


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

    @classmethod
    def clipped(cls, values):
        vals = [float(min(max(v, lo), hi)) for v, (lo, hi) in zip(values, INPUT_RANGES)]
        return cls(*vals)


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


def calibrate_radius(target=0.25, tol=0.01, n=20000, seed=12345, cfg=None):
    """Bisect the collision radius so the uniform positive rate hits `target`."""
    base = cfg or OracleConfig()
    rng = np.random.default_rng(seed)
    lo_b = np.array([r[0] for r in INPUT_RANGES])
    hi_b = np.array([r[1] for r in INPUT_RANGES])
    points = rng.uniform(lo_b, hi_b, size=(n, 5))

    def rate(radius):
        c = OracleConfig(base.dt, base.horizon, radius, base.robot_speed)
        return int(ground_truth_labels(points, c).sum()) / n

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
    walking center."""

    mode: str = "uniform"            # "uniform" | "random_walk"
    seed: int = 0
    center: ColliderState = None     # random-walk starting point
    eps: float = 0.5                 # neighborhood radius (fraction of range/2)
    walk_scale: float = 0.5          # Gaussian step scale (fraction of range/2)

    def __post_init__(self):
        if self.mode not in ("uniform", "random_walk"):
            raise EnvError(f"unknown generator mode {self.mode!r}")
        self._rng = np.random.default_rng(self.seed)
        self._lo = np.array([r[0] for r in INPUT_RANGES])
        self._hi = np.array([r[1] for r in INPUT_RANGES])
        self._half = (self._hi - self._lo) / 2.0
        if self.center is None:
            self.center = ColliderState.clipped(tuple((self._lo + self._hi) / 2.0))
        self._c = np.array(self.center.as_tuple())

    def next_input(self):
        if self.mode == "uniform":
            point = self._rng.uniform(self._lo, self._hi)
        else:
            step = self._rng.normal(0.0, self.walk_scale, size=5) * self._half
            self._c = np.clip(self._c + step, self._lo, self._hi)
            radius = self.eps * self._half
            point = np.clip(self._c + self._rng.uniform(-radius, radius),
                            self._lo, self._hi)
        return ColliderState.clipped(tuple(point))


def ball_sample(c0, eps, n, rng):
    """Uniform draws from the per-dimension eps-ball around c0, clipped."""
    center = np.array(c0.as_tuple())
    lo = np.array([r[0] for r in INPUT_RANGES])
    hi = np.array([r[1] for r in INPUT_RANGES])
    points = np.clip(center + rng.uniform(-eps, eps, size=(n, 5)), lo, hi)
    return [ColliderState(*(float(v) for v in p)) for p in points]


def gen_initial_datasets(c0, eps0, sizes, seed, oracle=OracleConfig()):
    """Pre-collected datasets drawn from the eps0-ball around c0 and labelled
    by the oracle; returns (train, val, confusion, test)."""
    rng = np.random.default_rng(seed)
    roles = ("train", "val", "confusion", "test")
    out = []
    for size, role in zip(sizes, roles):
        if size < 1:
            raise EnvError("dataset sizes must be positive")
        X = np.array([s.as_tuple() for s in ball_sample(c0, eps0, size, rng)])
        labels = ground_truth_labels(X, oracle)
        out.append(Dataset([Sample(tuple(x), int(y))
                            for x, y in zip(X.tolist(), labels)], role))
    return tuple(out)


# ---------------------------------------------------------------------------
# Benchmark traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceEntry:
    present: bool
    state: ColliderState
    label: int


def generate_trace(n, p_collider, gen, seed, oracle=OracleConfig()):
    """Pre-constructed benchmark: n situation draws shared by all methods.

    Drawn, labelled and emitted LABEL_CHUNK situations at a time."""
    rng = np.random.default_rng(seed)
    entries = []
    for start in range(0, n, LABEL_CHUNK):
        present, states = [], []
        for _ in range(min(LABEL_CHUNK, n - start)):
            present.append(bool(rng.random() < p_collider))
            states.append(gen.next_input())
        labels = ground_truth_labels([s.as_tuple() for s in states], oracle)
        entries.extend(TraceEntry(p, s, int(y))
                       for p, s, y in zip(present, states, labels))
    return entries


def write_trace(path, entries):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["present", "x1", "x2", "x3", "x4", "x5", "label"])
        for e in entries:
            writer.writerow([int(e.present)] + [repr(float(v)) for v in e.state.as_tuple()]
                            + [e.label])


def read_trace(path):
    entries = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            state = ColliderState(*(float(v) for v in row[1:6]))
            entries.append(TraceEntry(bool(int(row[0])), state, int(row[6])))
    return entries


def trace_hash(entries):
    h = hashlib.sha256()
    for e in entries:
        h.update(repr((int(e.present),) + e.state.as_tuple() + (e.label,)).encode())
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
    queries: int
    observations: list       # of (x, prediction, truth)


class TraceExhausted(Exception):
    """The pre-generated benchmark trace ran out of situations."""


class World:
    """Replays a benchmark trace through a runtime's perception/controller."""

    def __init__(self, trace, t_move=10.0, t_wait=2.0):
        self.trace = trace
        self.cursor = 0
        self.t_move = t_move
        self.t_wait = t_wait

    def _draw(self):
        if self.cursor >= len(self.trace):
            raise TraceExhausted(f"trace exhausted after {self.cursor} situations")
        entry = self.trace[self.cursor]
        self.cursor += 1
        return entry

    def step(self, runtime, rng):
        """Attempt one movement; ends at the first move (done or collision)."""
        waits = 0
        observations = []
        while True:
            entry = self._draw()
            if not entry.present:
                return StepRecord("done", waits * self.t_wait + self.t_move,
                                  waits, len(observations), observations)
            prediction = runtime.predict(entry.state.as_tuple())
            observations.append((entry.state.as_tuple(), prediction, entry.label))
            move_prob = runtime.move_probability(prediction)
            if rng.random() < move_prob:
                outcome = "collision" if entry.label == 1 else "done"
                return StepRecord(outcome, waits * self.t_wait + self.t_move,
                                  waits, len(observations), observations)
            waits += 1
