"""Metric arithmetic of the benchmark: percentile choice, due-time latency,
span self time and run-to-run spread.

Pure functions over plain numbers, so ``test_e2ebench.py`` can pin them
without running any workload.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles a latency report may use, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def metric(value: float, unit: str) -> Dict[str, object]:
    """One entry of the result line's ``metrics`` object."""
    return {"value": float(value), "unit": unit}


def supported_percentile(count: int, min_beyond: int = 10) -> Optional[float]:
    """The highest percentile with at least ``min_beyond`` samples above it.

    A tail percentile estimated from fewer samples beyond it is mostly the
    single slowest sample; ``None`` when not even the median qualifies.
    """
    for q in TAIL_PERCENTILES:
        # Tolerance: 100 - 99.9 is not exact in binary floating point.
        if count * (100.0 - q) / 100.0 >= min_beyond - 1e-9:
            return q
    return None


def require_percentile(values: Sequence[float], q: float, min_beyond: int = 10) -> float:
    """``np.percentile(values, q)``, refusing a tail the sample cannot support."""
    best = supported_percentile(len(values), min_beyond)
    if best is None or best < q:
        raise ValueError(
            f"p{q:g} needs {min_beyond} samples beyond it; got {len(values)} samples"
        )
    return float(np.percentile(values, q))


def due_times(start: float, rate: float, count: int) -> List[float]:
    """Open-loop schedule: request ``i`` is due ``i / rate`` after ``start``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return [start + i / rate for i in range(count)]


def due_time_latency(
    due: Sequence[float], sent: Sequence[float], done: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Per-request ``(latency, lateness)`` of an open-loop phase, in seconds.

    Latency runs from when a request was *due*, not from when the generator
    got round to sending it, so a stall also charges the requests queued
    behind it.  Lateness (send minus due) is the generator's own delay.
    """
    if not (len(due) == len(sent) == len(done)):
        raise ValueError("due, sent and done must align")
    latency = [d - u for u, d in zip(due, done)]
    lateness = [s - u for u, s in zip(due, sent)]
    return latency, lateness


def self_times(spans: Iterable[Tuple[int, Optional[int], float, float]]) -> Dict[int, float]:
    """Self time of each span ``(id, parent_id, start, end)``.

    A span's self time is its duration minus the part of its interval that
    its children cover.  Children are merged as a union and clipped to the
    parent, so overlapping children (another thread's work linked to this
    span) are not subtracted twice.
    """
    spans = list(spans)
    intervals: Dict[int, Tuple[float, float]] = {}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent, start, end in spans:
        intervals[sid] = (start, end)
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for sid, (start, end) in intervals.items():
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(sid, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = max(0.0, (end - start) - covered)
    return result


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median
    (``statistics.quantiles(values, n=4)``, the acceptance rule)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
