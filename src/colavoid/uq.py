"""Confusion-matrix bookkeeping and uncertainty quantification.

Row-normalizing the binary confusion matrix turns a trained classifier
into the misclassification rates injected into the movement chain.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class QuantifyError(Exception):
    """Raised when a confusion matrix cannot be turned into rates."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """2 x 2 counts; entry (i, j) = instances of true class i predicted as j."""

    counts: tuple               # ((c00, c01), (c10, c11))

    def __post_init__(self):
        if len(self.counts) != 2 or any(len(row) != 2 for row in self.counts):
            raise QuantifyError("confusion matrix must be 2 x 2")
        if any(c < 0 for row in self.counts for c in row):
            raise QuantifyError("counts must be nonnegative")

    @classmethod
    def read_csv(cls, path):
        """Two rows of two nonnegative integer counts."""
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        for n, row in enumerate(rows, 1):
            if len(row) != 2 or not all(v.strip().isdecimal() for v in row):
                raise QuantifyError(
                    f"{path}: row {n} is {row}, expected two nonnegative integer counts")
        if len(rows) != 2:
            raise QuantifyError(f"{path}: {len(rows)} rows, expected 2")
        return cls.from_rows(rows)

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(int(v) for v in row) for row in rows))


@dataclass(frozen=True)
class UncertaintyVector:
    """Row-normalized rates (p00, p01, p10, p11)."""

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


def evaluate_confusion(predictor, dataset):
    """Run the predictor over a labelled dataset and count (truth, prediction)."""
    if len(dataset) == 0:
        raise QuantifyError("cannot evaluate on an empty dataset")
    counts = np.zeros((2, 2), dtype=int)
    np.add.at(counts, (dataset.y, np.asarray(predictor.predict_batch(dataset.X))), 1)
    return ConfusionMatrix.from_rows(counts)


def quantify(matrix):
    """Uncertainty vector u = (p00, p01, p10, p11): each row normalized."""
    rates = []
    for i, row in enumerate(matrix.counts):
        total = sum(row)
        if total == 0:
            raise QuantifyError(
                f"class {i} has no samples in the confusion dataset; enlarge it")
        rates.extend(c / total for c in row)
    return UncertaintyVector(*rates)


def accuracy(predictor, dataset):
    """Fraction of samples whose prediction matches the label."""
    if len(dataset) == 0:
        raise QuantifyError("accuracy of an empty dataset is undefined")
    return int(np.sum(predictor.predict_batch(dataset.X) == dataset.y)) / len(dataset)
