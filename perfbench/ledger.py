"""Statistics helpers of the benchmark: latency tails, self time, failures.

Kept free of any ``repro`` import so the rules that decide reported numbers
can be tested on plain values (``test_perfbench.py``).
"""

from __future__ import annotations

import bisect
import time
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10


def tail_percentile(
    samples: Sequence[float], beyond: int = TAIL_SAMPLES_BEYOND
) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with ``beyond`` samples above it.

    The value is a sample such that at least ``beyond`` samples are strictly
    greater; the percentile is the share of samples at or below it.  With
    ``beyond`` or fewer samples no percentile qualifies and the maximum is
    returned as percentile 100, so a short run still reports its worst frame.
    """
    if not samples:
        raise ValueError("tail_percentile needs at least one sample")
    ordered = sorted(samples)
    count = len(ordered)
    for index in range(count - beyond - 1, -1, -1):
        at_or_below = bisect.bisect_right(ordered, ordered[index])
        if count - at_or_below >= beyond:
            return 100.0 * at_or_below / count, ordered[index]
    return 100.0, ordered[-1]


def covered_length(
    window: Tuple[float, float], intervals: Iterable[Tuple[float, float]]
) -> float:
    """Length of ``window`` covered by the union of ``intervals``."""
    low, high = window
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    )
    covered = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_time(
    parent: Tuple[float, float], children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (parent[1] - parent[0]) - covered_length(parent, children)


class FrameLedger:
    """Per-frame outcomes of one closed-loop window.

    A frame *enters* when the system first sees it (``submit`` on served
    paths, ``process_frame`` on the sequential path) and *completes* when
    its tracking or extraction result is available.  A frame that raises is
    counted as failed and contributes no latency, so it misses every
    latency figure.
    """

    def __init__(self) -> None:
        self._entered: Dict[Hashable, float] = {}
        self.latencies_s: List[float] = []
        self.failed = 0
        self.last_completion_s: Optional[float] = None

    def enter(self, key: Hashable, at_s: Optional[float] = None) -> None:
        self._entered[key] = time.perf_counter() if at_s is None else at_s

    def complete(self, key: Hashable, at_s: Optional[float] = None) -> float:
        """Record ``key``'s result as available; returns its latency in seconds."""
        at_s = time.perf_counter() if at_s is None else at_s
        latency = at_s - self._entered.pop(key)
        self.latencies_s.append(latency)
        self.last_completion_s = at_s
        return latency

    def fail(self, key: Hashable) -> None:
        self._entered.pop(key, None)
        self.failed += 1

    def call(self, key: Hashable, fn: Callable, *args, **kwargs):
        """Run ``fn`` as frame ``key``: completes it, or fails it and re-raises.

        The frame must already have entered unless this call is its entry.
        """
        self._entered.setdefault(key, time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.fail(key)
            raise
        self.complete(key)
        return result

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    @property
    def attempted(self) -> int:
        return self.completed + self.failed
