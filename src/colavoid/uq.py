"""Confusion-matrix bookkeeping and uncertainty quantification.

Row-normalizing a confusion matrix turns a trained classifier into the
misclassification rates injected into the movement chain.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class QuantifyError(Exception):
    """Raised when a confusion matrix cannot be turned into rates."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """k x k counts; entry (i, j) = instances of true class i predicted as j."""

    counts: tuple               # tuple of row tuples of ints

    def __post_init__(self):
        k = len(self.counts)
        for row in self.counts:
            if len(row) != k:
                raise QuantifyError("confusion matrix must be square")
            if any(c < 0 for c in row):
                raise QuantifyError("counts must be nonnegative")

    @property
    def k(self):
        return len(self.counts)

    @property
    def total(self):
        return sum(sum(row) for row in self.counts)

    @property
    def trace(self):
        return sum(self.counts[i][i] for i in range(self.k))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(self.counts)

    @classmethod
    def read_csv(cls, path):
        with open(path, newline="") as fh:
            rows = [tuple(int(v) for v in row) for row in csv.reader(fh) if row]
        return cls(tuple(rows))

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(int(v) for v in row) for row in rows))


@dataclass(frozen=True)
class UncertaintyVector:
    """Row-normalized rates (p00, p01, p10, p11) for the binary case."""

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        for pair in ((self.p00, self.p01), (self.p10, self.p11)):
            if abs(pair[0] + pair[1] - 1.0) > 1e-12:
                raise QuantifyError(f"rates {pair} do not sum to 1")

    def as_valuation(self):
        return {"p00": self.p00, "p01": self.p01, "p10": self.p10, "p11": self.p11}


def evaluate_confusion(predictor, dataset, k=2):
    """Run the predictor over a labelled dataset and count (truth, prediction)."""
    if len(dataset) == 0:
        raise QuantifyError("cannot evaluate on an empty dataset")
    X, _ = dataset.matrix()
    counts = [[0] * k for _ in range(k)]
    for sample, prediction in zip(dataset, predictor.predict_batch(X)):
        counts[sample.y][prediction] += 1
    return ConfusionMatrix.from_rows(counts)


def quantify_rows(matrix):
    """Row-normalize a confusion matrix into per-class rate rows."""
    rows = []
    for i, row in enumerate(matrix.counts):
        total = sum(row)
        if total == 0:
            raise QuantifyError(
                f"class {i} has no samples in the confusion dataset; enlarge it")
        rows.append(tuple(c / total for c in row))
    return rows


def quantify(matrix):
    """Binary-case uncertainty vector u = (p00, p01, p10, p11)."""
    if matrix.k != 2:
        raise QuantifyError("uncertainty vector is defined for 2 classes")
    (p00, p01), (p10, p11) = quantify_rows(matrix)
    return UncertaintyVector(p00, p01, p10, p11)


def accuracy(predictor, dataset):
    """Fraction of samples whose prediction matches the label."""
    if len(dataset) == 0:
        raise QuantifyError("accuracy of an empty dataset is undefined")
    X, y = dataset.matrix()
    return int(np.sum(predictor.predict_batch(X) == y)) / len(dataset)
