"""Order statistics shared by ``run.py`` and ``compare.py``."""

from __future__ import annotations

import statistics

#: a percentile is supported only with this many samples beyond it
MIN_BEYOND = 10


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least :data:`MIN_BEYOND` of
    them beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0 >= MIN_BEYOND


def tail(samples: list[float], q: float) -> dict:
    """The ``q``-th percentile with its sample count; ``flagged`` when
    too few samples lie beyond it to support it."""
    return {"value": percentile(samples, q), "n": len(samples),
            "flagged": not supported(len(samples), q)}


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    range for four or more values, the range for fewer."""
    med = statistics.median(values)
    if not med or len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(med)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)
