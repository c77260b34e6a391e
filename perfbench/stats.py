"""Summary statistics for the runner.

Pure Python on purpose: the orchestrating process never imports numpy or
``repro``, so its own start-up stays out of every number it reports.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def tail_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER,
                    min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Highest percentile of ``ladder`` with at least ``min_beyond`` of
    ``n`` samples above it, or ``None`` when not even the lowest has.

    Percentiles are compared in tenths of a percent so that 99.9 is not
    rounded against by binary floating point.
    """
    best = None
    for q in ladder:
        if n * (1000 - round(q * 10)) >= min_beyond * 1000:
            best = q
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation
    between closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    """The 50th percentile of ``values``."""
    return percentile(values, 50.0)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive ``values``."""
    if not values or min(values) <= 0:
        raise ValueError("geomean needs a non-empty positive sample")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))
