"""Feed-forward binary classifier over the 5-dimensional collider state.

Architecture 5 -> 32 -> 32 -> 1 (ReLU hidden, sigmoid output), trained by
minibatch SGD on binary cross-entropy with validation-based snapshot
selection; the layers are views into one flat parameter vector. Inputs are
standardized with a fixed affine map derived from the declared input-space
ranges, so the training and operating pipelines cannot drift apart.
A `Dataset` is an (X, y) pair; its role is the key it is kept under, and a
repair splits its counterexamples among CE_ROLES by CE_RATIOS.
"""

from __future__ import annotations

import math
import numbers
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


@dataclass
class Dataset:
    """Labelled inputs as arrays: `X` (n x 5 float) and `y` (n int8
    classes in {0, 1}). Non-finite inputs and other labels are rejected,
    naming the first bad row."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float).reshape(-1, len(INPUT_RANGES))
        y = np.asarray(self.y).reshape(-1)
        if len(self.X) != len(y):
            raise PerceptionError(f"{len(self.X)} inputs but {len(y)} labels")
        finite, binary = np.isfinite(self.X).all(axis=1), (y == 0) | (y == 1)
        if not (finite.all() and binary.all()):
            i = int(np.argmin(finite & binary))
            raise PerceptionError(f"row {i}: " + (
                f"non-finite input {self.X[i].tolist()}" if not finite[i]
                else f"label {y[i].item()!r} is not 0 or 1"))
        self.y = y.astype(np.int8)

    def __len__(self):
        return len(self.y)


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
        if not 0 < self.learning_rate < math.inf:     # also rejects NaN
            raise PerceptionError(f"learning rate must be positive and finite, "
                                  f"got {self.learning_rate!r}")
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise PerceptionError(f"{name} must be a positive integer, got {value!r}")


def _flat(weights, biases):
    """A flat float copy of the layers (w0, b0, w1, b1, ...) and its views."""
    arrays = [np.asarray(a) for wb in zip(weights, biases) for a in wb]
    flat = np.concatenate([a.ravel() for a in arrays], dtype=float)
    views, at = [], 0
    for a in arrays:
        views.append(flat[at:at + a.size].reshape(a.shape))
        at += a.size
    return flat, tuple(views[0::2]), tuple(views[1::2])


class MLPParams:
    """Immutable snapshot of layer weights/biases (views into one copy)."""

    def __init__(self, weights, biases):
        flat, self.weights, self.biases = _flat(weights, biases)
        if not np.isfinite(flat).all():
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


def _forward_pass(weights, biases, X):
    """Returns (activations per layer, output probabilities)."""
    acts = [X]
    for w, b in zip(weights, biases):
        z = np.matmul(acts[-1], w)
        z += b
        if len(acts) < len(weights):
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    # sigmoid of z clipped to +-500, for numerical safety
    np.maximum(z, -500.0, out=z)
    np.minimum(z, 500.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)
    return acts, z


def forward(params, X):
    """Class-1 probability of each row of raw inputs (or of one input)."""
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise PerceptionError("non-finite input")
    return _forward_pass(params.weights, params.biases, standardize(X))[1][:, 0]


def _bce_loss(p, y, eps=1e-12):
    p = np.minimum(np.maximum(p, eps), 1.0 - eps)
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))


def dataset_loss(params, X_std, y):
    """Mean BCE loss over a standardized dataset matrix."""
    _, p = _forward_pass(params.weights, params.biases, X_std)
    return _bce_loss(p[:, 0], y)


def train(init, train_set, val_set, cfg):
    """SGD with per-epoch validation; returns the snapshot with the lowest
    validation loss (ties resolved toward the earliest epoch).

    The layers are views into `theta`, their gradients into `grad`. Each
    epoch's snapshot is a copy, which non-finite (diverged) weights fail.

    A minibatch makes the operations of `_forward_pass` and of the mean BCE
    loss's back-propagation in the same order, so the weights keep their
    bits, through the fewest numpy calls: the arrays it writes are
    allocated once per call, for the full and the trailing batch length,
    and gathered with its rows into tuples once per call."""
    if len(train_set) == 0 or len(val_set) == 0:
        raise PerceptionError("training and validation sets must be nonempty")
    params = init if isinstance(init, MLPParams) else MLPParams.init_random(init)
    theta, weights, biases = _flat(params.weights, params.biases)
    grad, grads_w, grads_b = _flat(params.weights, params.biases)
    lr, bs = cfg.learning_rate, cfg.batch_size
    rng = np.random.default_rng(cfg.seed)
    X, y = standardize(train_set.X), train_set.y.astype(float)[:, None]
    X_val, y_val = standardize(val_set.X), val_set.y.astype(float)
    n = len(y)
    X_epoch, y_epoch = np.empty_like(X), np.empty_like(y)
    # per batch length: each layer's output, the loss's gradient at it (the
    # output layer's z, p and gradient share one column) and each hidden
    # layer's ReLU derivative
    buffers = {}
    for k in {min(bs, n), n % bs} - {0}:
        outs = [np.empty((k, w.shape[1])) for w in weights]
        buffers[k] = (outs, [np.empty_like(z) for z in outs[:-1]] + outs[-1:],
                      [np.empty_like(z) for z in outs[:-1]])
    steps = []
    for start in range(0, n, bs):
        x = X_epoch[start:start + bs]
        outs, deltas, masks = buffers[len(x)]
        ins = [x] + outs[:-1]
        hidden = tuple(zip(ins, weights, biases, outs))[:-1]
        output = (ins[-1], weights[-1], biases[-1], outs[-1], y_epoch[start:start + bs], len(x))
        back = tuple((ins[i].T, deltas[i], grads_w[i], grads_b[i], weights[i].T, deltas[i - 1],
                      ins[i], masks[i - 1]) for i in range(len(weights) - 1, 0, -1))
        steps.append((hidden, output, back, (x.T, deltas[0], grads_w[0], grads_b[0])))
    # bound once: a name lookup per call is a visible share of a minibatch
    dot, add, maximum, minimum, negative = np.dot, np.add, np.maximum, np.minimum, np.negative
    exp, subtract, multiply, divide, sign = np.exp, np.subtract, np.multiply, np.divide, np.sign
    add_reduce = np.add.reduce
    best, best_loss = None, math.inf
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        np.take(X, order, axis=0, out=X_epoch, mode="clip")
        np.take(y, order, axis=0, out=y_epoch, mode="clip")
        with np.errstate(over="ignore"):
            for hidden, (a, w, b, p, y_batch, k), back, (xT, d, gw, gb) in steps:
                for a_in, w_in, b_in, z in hidden:
                    dot(a_in, w_in, z)
                    add(z, b_in, z)
                    maximum(z, 0.0, out=z)
                dot(a, w, p)
                add(p, b, p)
                # the sigmoid, without _forward_pass's clip of z to +-500: the
                # clip of p below sends every p that clip moves to the same
                # bound (exp overflows to inf for z < -709, and 1 / inf = 0)
                negative(p, p)
                exp(p, p)
                add(p, 1.0, p)
                divide(1.0, p, p)
                # d loss / d z_out for sigmoid + BCE, with the clip's dead
                # zone respected
                maximum(p, 1e-12, out=p)
                minimum(p, 1.0 - 1e-12, out=p)
                subtract(p, y_batch, p)
                divide(p, k, p)
                for aT, d_out, gw_i, gb_i, wT, d_in, a_in, mask in back:
                    dot(aT, d_out, gw_i)
                    add_reduce(d_out, 0, None, gb_i)
                    dot(d_out, wT, d_in)
                    # the sign of a ReLU output, 1 or +0, is its derivative
                    sign(a_in, mask)
                    multiply(d_in, mask, d_in)
                dot(xT, d, gw)
                add_reduce(d, 0, None, gb)
                multiply(lr, grad, grad)
                subtract(theta, grad, theta)
        params = MLPParams(weights, biases)
        val_loss = dataset_loss(params, X_val, y_val)
        if not math.isfinite(val_loss):
            raise PerceptionError("training diverged (non-finite validation loss)")
        if val_loss < best_loss:
            best, best_loss = params, val_loss
    return best


class MLPPredictor:
    """Hard-label wrapper around an MLP snapshot (threshold 0.5)."""

    def __init__(self, params):
        self.params = params

    def predict(self, x):
        return int(forward(self.params, x)[0] >= 0.5)

    def predict_batch(self, X):
        """Hard labels of the rows of X, as an int array."""
        return (forward(self.params, X) >= 0.5).astype(int)


class RandomGuessPredictor:
    """Seeded coin-flip baseline; ignores its input and draws one coin per
    row, in row order."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def predict_batch(self, X):
        return self._rng.integers(0, 2, size=len(X))


# --- Dataset bookkeeping for the repair round ---

CE_ROLES = ("train", "val", "confusion", "test")
#: Shares of a repair's counterexamples that go to each of CE_ROLES.
CE_RATIOS = (0.4, 0.2, 0.2, 0.2)


def split_counterexamples(ce, seed=0):
    """Shuffle and split a counterexample set into one part per role of
    CE_ROLES, in that order.

    Sizes are floor(ratio * n) by CE_RATIOS; the remainder goes to the
    earliest roles.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ce))
    n = len(ce)
    sizes = [int(math.floor(r * n)) for r in CE_RATIOS]
    remainder = n - sum(sizes)
    for i in range(remainder):
        sizes[i % len(sizes)] += 1
    parts = np.split(order, np.cumsum(sizes)[:-1])
    return tuple(Dataset(ce.X[idx], ce.y[idx]) for idx in parts)


def merge_datasets(base, ce_part):
    """Multiset append (base first)."""
    return Dataset(np.concatenate([base.X, ce_part.X]),
                   np.concatenate([base.y, ce_part.y]))


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
    return Dataset(src.X[idx], src.y[idx])
