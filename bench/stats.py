"""Small pure-Python statistics shared by the benchmark's processes."""

from __future__ import annotations

import bisect
import math
import statistics

def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of a sorted list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = (len(sorted_values) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


median = statistics.median


def quartile_spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (the steadiness rule)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else math.inf


#: One steady-state window: (seconds, tasks, CPU seconds, p50 and p95 of
#: the latency samples that completed inside it, speed-probe CPU seconds).
Window = tuple[float, int, float, float, float, float]


def steady_windows(edges: list[tuple[float, float, float]],
                   samples: list[tuple[float, float, int]],
                   start: float, end: float) -> list[Window]:
    """Cut ``[start, end]`` into the windows between consecutive
    ``(wall, process CPU, probe CPU)`` edges.  The probe runs right after
    its edge is read, so its CPU is taken out of the window it opens.

    ``samples`` is ``(completion time, latency, tasks)`` sorted by
    completion time: one per task on the live fabric, one per simulated
    second (covering the tasks that finished in it) in the simulator.
    Each belongs to the window it completed in; windows without samples
    are dropped.
    """
    done = [sample[0] for sample in samples]
    out: list[Window] = []
    for (t0, cpu0, probe), (t1, cpu1, _next) in zip(edges, edges[1:]):
        if t0 < start or t1 > end:
            continue
        inside = samples[bisect.bisect_right(done, t0):
                         bisect.bisect_right(done, t1)]
        if inside:
            latencies = sorted(sample[1] for sample in inside)
            out.append((t1 - t0, sum(sample[2] for sample in inside),
                        cpu1 - cpu0 - probe, percentile(latencies, 50.0),
                        percentile(latencies, 95.0), probe))
    return out
