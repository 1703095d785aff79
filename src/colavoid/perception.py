"""Feed-forward binary classifier over the 5-dimensional collider state.

Architecture 5 -> 32 -> 32 -> 1 (ReLU hidden, sigmoid output), trained by
minibatch SGD on binary cross-entropy with validation-based snapshot
selection.  Inputs are standardized with a fixed affine map derived from
the declared input-space ranges, so the training and operating pipelines
cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Per-dimension input-space ranges: relative position (x1, x2), heading,
#: speed, angular velocity.
INPUT_RANGES = (
    (-10.0, 10.0),
    (0.0, 10.0),
    (0.0, 2.0 * math.pi),
    (0.0, 2.0),
    (-math.pi / 2.0, math.pi / 2.0),
)

LAYER_SIZES = (5, 32, 32, 1)

_LO = np.array([r[0] for r in INPUT_RANGES])
_HI = np.array([r[1] for r in INPUT_RANGES])


class PerceptionError(Exception):
    pass


@dataclass(frozen=True)
class Sample:
    x: tuple                 # 5 floats
    y: int                   # class in {0, 1}


@dataclass
class Dataset:
    """Ordered multiset of samples with a role tag."""

    samples: list
    role: str = "train"      # train | val | confusion | test | window

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def matrix(self):
        X = np.array([s.x for s in self.samples], dtype=float)
        y = np.array([s.y for s in self.samples], dtype=float)
        return X, y


def standardize(X):
    """Affine map of raw inputs to [-1, 1] per dimension (fixed ranges)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return 2.0 * (X - _LO) / (_HI - _LO) - 1.0


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise PerceptionError("learning rate must be positive")
        if self.epochs < 1:
            raise PerceptionError("need at least one epoch")


class MLPParams:
    """Immutable snapshot of layer weights/biases."""

    def __init__(self, weights, biases):
        self.weights = tuple(np.array(w, dtype=float) for w in weights)
        self.biases = tuple(np.array(b, dtype=float) for b in biases)
        for w, b in zip(self.weights, self.biases):
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise PerceptionError("non-finite parameters")

    @classmethod
    def init_random(cls, seed, sizes=LAYER_SIZES):
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            scale = math.sqrt(2.0 / n_in)
            weights.append(rng.normal(0.0, scale, size=(n_in, n_out)))
            biases.append(np.zeros(n_out))
        return cls(weights, biases)

    @classmethod
    def zeros(cls, sizes=LAYER_SIZES):
        weights = [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
        biases = [np.zeros(b) for b in sizes[1:]]
        return cls(weights, biases)


def _forward_pass(weights, biases, X):
    """Returns (activations per layer, output probabilities)."""
    acts = [X]
    h = X
    n_layers = len(weights)
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        if i < n_layers - 1:
            h = np.maximum(z, 0.0)
        else:
            # clipped for numerical safety; output stays in (0, 1)
            h = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        acts.append(h)
    return acts, h


def forward(params, x):
    """Probability of class 1 for a single raw input."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise PerceptionError("non-finite input")
    _, out = _forward_pass(params.weights, params.biases, standardize(x))
    return float(out[0, 0])


def _bce_loss(p, y, eps=1e-12):
    p = np.clip(p, eps, 1.0 - eps)
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))


def _gradients(weights, acts, p, y):
    """Gradients of the mean BCE loss w.r.t. every weight and bias, from a
    forward pass's activations and output probabilities."""
    n = len(y)
    eps = 1e-12
    p_clip = np.clip(p[:, 0], eps, 1.0 - eps)
    # d loss / d z_out for sigmoid + BCE, with the clip's dead zone respected
    dz = ((p_clip - y) / n)[:, None]
    grads_w, grads_b = [], []
    for i in reversed(range(len(weights))):
        grads_w.append(acts[i].T @ dz)
        grads_b.append(dz.sum(axis=0))
        if i > 0:
            dh = dz @ weights[i].T
            dz = dh * (acts[i] > 0.0)
    return list(reversed(grads_w)), list(reversed(grads_b))


def loss_and_gradients(params, X_std, y):
    """Mean BCE loss and its gradients w.r.t. every weight and bias.

    X_std must already be standardized.
    """
    acts, p = _forward_pass(params.weights, params.biases, X_std)
    grads_w, grads_b = _gradients(params.weights, acts, p, y)
    return _bce_loss(p[:, 0], y), grads_w, grads_b


def dataset_loss(params, X_std, y):
    """Mean BCE loss over a standardized dataset matrix."""
    _, p = _forward_pass(params.weights, params.biases, X_std)
    return _bce_loss(p[:, 0], y)


def best_epoch(losses):
    """Index of the minimal validation loss; ties go to the earliest epoch."""
    if not losses:
        raise PerceptionError("no epochs recorded")
    best = 0
    for i, loss in enumerate(losses):
        if loss < losses[best]:
            best = i
    return best


def train(init, train_set, val_set, cfg):
    """SGD with per-epoch validation; returns the snapshot with the lowest
    validation loss (ties resolved toward the earliest epoch).

    The weights are updated in place and snapshotted once per epoch; a
    diverged epoch leaves non-finite weights, which the snapshot rejects."""
    if len(train_set) == 0 or len(val_set) == 0:
        raise PerceptionError("training and validation sets must be nonempty")
    params = init if isinstance(init, MLPParams) else MLPParams.init_random(init)
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    rng = np.random.default_rng(cfg.seed)
    X, y = train_set.matrix()
    X = standardize(X)
    X_val, y_val = val_set.matrix()
    X_val = standardize(X_val)
    n = len(y)
    losses, snapshots = [], []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        X_epoch, y_epoch = X[order], y[order]
        for start in range(0, n, cfg.batch_size):
            X_batch = X_epoch[start:start + cfg.batch_size]
            acts, p = _forward_pass(weights, biases, X_batch)
            gw, gb = _gradients(weights, acts, p, y_epoch[start:start + cfg.batch_size])
            for w, g in zip(weights, gw):
                w -= cfg.learning_rate * g
            for b, g in zip(biases, gb):
                b -= cfg.learning_rate * g
        params = MLPParams(weights, biases)
        val_loss = dataset_loss(params, X_val, y_val)
        if not math.isfinite(val_loss):
            raise PerceptionError("training diverged (non-finite validation loss)")
        losses.append(val_loss)
        snapshots.append(params)
    return snapshots[best_epoch(losses)]


class MLPPredictor:
    """Hard-label wrapper around an MLP snapshot (threshold 0.5)."""

    def __init__(self, params):
        self.params = params

    def predict(self, x):
        return 1 if forward(self.params, x) >= 0.5 else 0

    def predict_batch(self, X):
        _, p = _forward_pass(self.params.weights, self.params.biases, standardize(X))
        return (p[:, 0] >= 0.5).astype(int)


class RandomGuessPredictor:
    """Seeded coin-flip baseline; ignores its input."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def predict(self, x):
        return int(self._rng.integers(0, 2))


# ---------------------------------------------------------------------------
# Dataset bookkeeping for the repair round
# ---------------------------------------------------------------------------

CE_ROLES = ("train", "val", "confusion", "test")


def split_counterexamples(ce, ratios, seed=0):
    """Shuffle and split a counterexample set into the four dataset roles.

    Sizes are floor(ratio * n); the remainder goes to the earliest roles.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise PerceptionError(f"split ratios sum to {sum(ratios)}, expected 1")
    if len(ratios) != 4:
        raise PerceptionError("expected four split ratios")
    rng = np.random.default_rng(seed)
    samples = list(ce.samples)
    order = rng.permutation(len(samples))
    samples = [samples[i] for i in order]
    n = len(samples)
    sizes = [int(math.floor(r * n)) for r in ratios]
    remainder = n - sum(sizes)
    for i in range(remainder):
        sizes[i % 4] += 1
    parts = []
    offset = 0
    for size, role in zip(sizes, CE_ROLES):
        parts.append(Dataset(samples[offset:offset + size], role))
        offset += size
    return tuple(parts)


def merge_datasets(base, ce_part):
    """Multiset append (base first); role tags must match."""
    if base.role != ce_part.role:
        raise PerceptionError(f"role mismatch: {base.role} vs {ce_part.role}")
    return Dataset(list(base.samples) + list(ce_part.samples), base.role)


def sample_dataset(src, n, seed):
    """Uniform resample to exactly n samples.

    Without replacement when n <= |src|; otherwise all of src plus a
    uniform-with-replacement remainder.
    """
    if len(src) == 0:
        raise PerceptionError("cannot sample from an empty dataset")
    rng = np.random.default_rng(seed)
    if n <= len(src):
        idx = rng.choice(len(src), size=n, replace=False)
    else:
        extra = rng.choice(len(src), size=n - len(src), replace=True)
        idx = np.concatenate([np.arange(len(src)), extra])
    return Dataset([src.samples[i] for i in idx], src.role)
