"""Percentiles that refuse to report a tail the sample cannot support."""

from __future__ import annotations

import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def percentile(values, q):
    """The q-th percentile (0 < q < 100) of `values`, as
    ``statistics.quantiles(values, n=100)`` gives it."""
    beyond = len(values) * (100 - q) / 100
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q} of {len(values)} samples has {beyond:g} beyond it; "
            f"need at least {MIN_BEYOND}")
    return statistics.quantiles(values, n=100)[q - 1]

