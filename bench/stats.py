"""Summary statistics the benchmark reports.  Standard library only, so
the parent process (which never imports numpy) and ``compare.py`` can
use them."""

from __future__ import annotations

import math
import statistics

#: A timing percentile is reported only when at least this many samples
#: lie beyond it; below that the estimate is one or two outliers.
MIN_SAMPLES_BEYOND = 10


def quantile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of exact
    quantities such as virtual-clock queue waits."""
    if not samples:
        raise ValueError("quantile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def timing_percentile(samples, q: float) -> float:
    """``quantile`` for wall-clock samples; refuses a percentile with
    fewer than ``MIN_SAMPLES_BEYOND`` samples beyond it."""
    beyond = len(samples) - math.ceil(q * len(samples) / 100)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has {beyond} samples "
            f"beyond it; need {MIN_SAMPLES_BEYOND}"
        )
    return quantile(samples, q)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the run-to-run spread the driver computes."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
