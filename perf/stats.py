"""Block statistics: every timed metric is made of per-block values.

A run's timed phase is cut into blocks (1 s of samples, or one cycle).
Repeats inside one process are not independent samples — a burst of
scheduler noise or a GC pass colours a whole stretch of them — so a
pooled percentile follows whichever stretch was worst.  A statistic
over blocks of the per-block percentile does not: a bad block moves one
of its inputs, not the result.  ``perf/run.py`` takes the better
quartile of the blocks.
"""

from __future__ import annotations

import math
from typing import Sequence

#: A block's percentile counts only if this many samples lie beyond it.
MIN_BEYOND = 100


def quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted sequence."""
    if not ordered:
        raise ValueError("quantile of no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def block_quantiles(blocks: Sequence[Sequence[float]], q: float) -> list[float]:
    """Each block's ``q`` quantile; the metric is made of these.

    A block too short to leave :data:`MIN_BEYOND` samples beyond the
    quantile is joined to the blocks after it until it is long enough
    (a short tail joins the block before it).  When all samples together
    are too few — a smoke run — they form one block all the same.
    """
    need = MIN_BEYOND / min(q, 1.0 - q)
    merged: list[list[float]] = []
    current: list[float] = []
    for block in blocks:
        current.extend(block)
        if len(current) >= need:
            merged.append(current)
            current = []
    if current:
        if merged:
            merged[-1].extend(current)
        else:
            merged.append(current)
    if not merged:
        raise ValueError("quantile of no samples")
    return [quantile(sorted(block), q) for block in merged]


def block_rates(counts_and_seconds: Sequence[tuple[int, float]]) -> list[float]:
    """Each block's completed operations per second."""
    rates = [count / seconds for count, seconds in counts_and_seconds if seconds > 0]
    if not rates:
        raise ValueError("rate of no blocks")
    return rates
