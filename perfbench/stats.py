"""Order statistics and span arithmetic shared by the runner and its tests.

Standard library only: the runner imports this before it knows whether
the package under test is present.
"""

from __future__ import annotations

from statistics import median  # noqa: F401  (the runner's median)

TAIL_BEYOND = 10  # ops that must lie above the reported tail latency


def tail(latencies):
    """Latency at the highest percentile with at least ten ops beyond it.

    Nearest rank: with N ops the value of rank N - 10 has exactly ten ops
    above it, which is percentile 100 * (N - 10) / N (p90 for N = 100,
    p75 for N = 40).  Returns ``(value, percentile, n)``, or None when that
    percentile would fall below the median (N < 20): such a run has no tail.
    """
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def self_times(start, end, parent):
    """Each span's duration minus the time its direct children cover.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    Children lie inside their parent's interval, so subtracting their
    durations subtracts the time they cover.
    """
    own = [e - s for s, e in zip(start, end)]
    out = list(own)
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= own[i]
    return out
