"""Arithmetic of the benchmark's metrics: order statistics, host-speed
smoothing and self time."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

TAIL_BEYOND = 10


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns (value, percentile): with the samples sorted ascending, the value
    at index len - beyond - 1, and the share of samples at or below it.
    Needs at least beyond + 1 samples.
    """
    if len(samples) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(samples)}")
    ordered = sorted(samples)
    index = len(ordered) - beyond - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def local_means(samples: Sequence[float], window: int) -> List[float]:
    """For each position i, the mean of samples[i - window : i + window + 1]
    (clipped at both ends)."""
    out = []
    for i in range(len(samples)):
        near = samples[max(0, i - window):i + window + 1]
        out.append(sum(near) / len(near))
    return out


def covered_length(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  A span is (name, start, end, parent index),
    with parent -1 for a root."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered_length(children.get(i, ()), start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]
