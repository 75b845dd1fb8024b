"""Arithmetic of the benchmark: percentiles, windows, intervals and spreads.

Everything here is pure (no I/O, no clocks), so ``test_perfbench.py`` can
pin the numbers the benchmark reports.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(count: int, q: float) -> int:
    """Samples that lie above the ``q``-th percentile of ``count`` samples."""
    return count - math.ceil(q / 100.0 * count)


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when the sample is too
    small for it: fewer than :data:`MIN_SAMPLES_BEYOND` samples above it."""
    count = len(samples)
    if count == 0 or samples_beyond(count, q) < MIN_SAMPLES_BEYOND:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * count))
    return ordered[rank - 1]


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median
    (``statistics.quantiles(values, n=4)``, the acceptance rule's definition)."""
    if len(values) < 2:
        return math.inf
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return math.inf
    return (q3 - q1) / abs(median)


#: A slice of a window closes after this much busy time ...
SLICE_S = 1.0
#: ... and this many requests, so its p90 has 10 samples beyond it.
SLICE_REQUESTS = 100


@dataclass
class Window:
    """Counters of a measured window (or one slice of it) of the closed loop.

    ``paused_s`` is wall time spent in the golden check between lock-step
    requests: the server is idle then, so it is taken out of the window.
    ``client_cpu_s`` already has that check's CPU taken out.
    """

    wall_s: float
    paused_s: float
    requests: int
    rows: int
    client_cpu_s: float
    server_cpu_s: float
    latencies_s: List[float] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return self.wall_s - self.paused_s

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.busy_s

    @property
    def server_cpu_us_per_row(self) -> float:
        return self.server_cpu_s / self.rows * 1e6

    @property
    def client_cpu_us_per_row(self) -> float:
        return self.client_cpu_s / self.rows * 1e6


def merge_windows(windows: Iterable[Window]) -> Window:
    """Pool several windows (slices, or server instances) into one."""
    windows = list(windows)
    return Window(
        wall_s=sum(w.wall_s for w in windows),
        paused_s=sum(w.paused_s for w in windows),
        requests=sum(w.requests for w in windows),
        rows=sum(w.rows for w in windows),
        client_cpu_s=sum(w.client_cpu_s for w in windows),
        server_cpu_s=sum(w.server_cpu_s for w in windows),
        latencies_s=[t for w in windows for t in w.latencies_s],
    )


def slice_mean(slices: Sequence[Window], metric) -> float:
    """Mean over slices of a per-slice value.

    The host switches between a fast and a slow state that last seconds to
    minutes, so a run's slices come from two modes.  Their median jumps
    from one mode to the other as the modes' shares cross one half; their
    mean moves in proportion to the shares.  Over 10 seeds of 36 s runs on
    a 2-vCPU VM, the spread (IQR / median) of decode-lockstep p50 was 8.6 %
    with the mean and 15.1 % with the median of the same slices.
    """
    return statistics.fmean(metric(s) for s in slices)


Interval = Tuple[float, float]


def union(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint union of ``(start, end)`` intervals."""
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _overlap(left: List[Interval], right: List[Interval]) -> float:
    """Total overlap of two sorted, disjoint interval lists (one sweep)."""
    total = 0.0
    i = j = 0
    while i < len(left) and j < len(right):
        low = max(left[i][0], right[j][0])
        high = min(left[i][1], right[j][1])
        if high > low:
            total += high - low
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return total


def uncovered_time(roots: Iterable[Interval], spans: Iterable[Interval]) -> float:
    """Self time of the union of ``roots`` against ``spans``: time something
    was in flight while no span was running."""
    in_flight = union(roots)
    return sum(e - s for s, e in in_flight) - _overlap(in_flight, union(spans))
