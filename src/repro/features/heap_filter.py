"""Feature filtering with a bounded max-heap.

The Heap module in the ORB Extractor stores descriptors, coordinates and
Harris scores of streaming features and guarantees that only the 1024
features with the best Harris scores are kept.  In the rescheduled workflow
the hardware heap performs the *Filtering* step after descriptors have
already been computed; the software extractor offers the candidates' scores
before describing them, which retains the same set.

A bounded "keep the K largest" structure is most naturally a **min-heap of
size K** keyed on score: a new feature replaces the root when it beats the
current minimum.  The paper calls the module a max-heap (it retains maximal
scores); :class:`BoundedScoreHeap` implements the retention semantics and
additionally counts the comparisons performed, which the hardware cycle
model uses for its heap-insertion cost.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Generic, Iterable, List, Sequence, Tuple, TypeVar

import numpy as np

from ..errors import FeatureError

T = TypeVar("T")


@dataclass
class HeapStatistics:
    """Operation counts accumulated by the heap (consumed by the cycle model)."""

    insertions: int = 0
    replacements: int = 0
    rejections: int = 0
    comparisons: int = 0

    def total_offered(self) -> int:
        return self.insertions + self.replacements + self.rejections


@dataclass
class BoundedScoreHeap(Generic[T]):
    """Keep the ``capacity`` items with the largest scores.

    Items are arbitrary payloads (feature records); scores are floats.  Ties
    are broken in favour of the earlier-inserted item, matching streaming
    hardware where an equal-scoring later feature does not evict an earlier
    one.
    """

    capacity: int
    _heap: List[Tuple[float, int, T]] = field(default_factory=list)
    _counter: "itertools.count[int]" = field(default_factory=itertools.count)
    stats: HeapStatistics = field(default_factory=HeapStatistics)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise FeatureError("heap capacity must be positive")

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        return len(self._heap) >= self.capacity

    def min_score(self) -> float:
        """Return the smallest retained score (the eviction threshold)."""
        if not self._heap:
            raise FeatureError("heap is empty")
        return self._heap[0][0]

    def offer(self, score: float, item: T) -> bool:
        """Offer an item; return True if it is retained.

        A full heap retains the item only if its score strictly exceeds the
        current minimum; the displaced minimum is discarded.
        """
        # ``-next(counter)`` makes earlier items win ties: for equal scores the
        # earlier item has a larger tiebreaker and therefore is *not* the root.
        order = -next(self._counter)
        if not self.is_full:
            heapq.heappush(self._heap, (score, order, item))
            self.stats.insertions += 1
            self.stats.comparisons += max(1, len(self._heap).bit_length())
            return True
        self.stats.comparisons += 1
        if score > self._heap[0][0]:
            heapq.heapreplace(self._heap, (score, order, item))
            self.stats.replacements += 1
            self.stats.comparisons += max(1, self.capacity.bit_length())
            return True
        self.stats.rejections += 1
        return False

    def extend(self, scored_items: Iterable[Tuple[float, T]]) -> None:
        """Offer every ``(score, item)`` pair in order."""
        for score, item in scored_items:
            self.offer(score, item)

    def offer_batch(self, scores: np.ndarray, items: Sequence[T]) -> int:
        """Bulk-insert a score array, preserving streaming-offer semantics.

        Equivalent to calling :meth:`offer` for every ``(score, item)`` pair
        in order — same retained set, same tie-breaking, same statistics —
        without one Python call per item: the free slots are filled in one
        step, and after that only the scores above the current minimum are
        visited.  The minimum never falls, so every other score is a
        rejection wherever it stands in the batch.  Returns the number of
        retained items.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size != len(items):
            raise FeatureError("scores must be a 1-D array matching len(items)")
        count = scores.size
        if count == 0:
            return 0
        # item ``i`` gets the tie-break order ``-(first + i)``, as if offered one by one
        first = next(self._counter)
        deque(itertools.islice(self._counter, count - 1), maxlen=0)
        heap = self._heap
        fill = min(self.capacity - len(heap), count)
        if fill:
            size = len(heap)
            heap.extend(
                zip(scores[:fill].tolist(), range(-first, -first - fill, -1), items[:fill])
            )
            heapq.heapify(heap)
            self.stats.insertions += fill
            self.stats.comparisons += sum(
                max(1, length.bit_length()) for length in range(size + 1, size + fill + 1)
            )
        offered = count - fill
        if offered == 0:
            return fill
        contenders = np.flatnonzero(scores[fill:] > heap[0][0]) + fill
        replacements = 0
        for index, score in zip(contenders.tolist(), scores[contenders].tolist()):
            if score > heap[0][0]:
                heapq.heapreplace(heap, (score, -(first + index), items[index]))
                replacements += 1
        self.stats.replacements += replacements
        self.stats.rejections += offered - replacements
        self.stats.comparisons += offered + replacements * max(1, self.capacity.bit_length())
        return fill + replacements

    def items_by_score(self) -> List[T]:
        """Return retained items sorted by descending score (stable for ties)."""
        ordered = sorted(self._heap, key=lambda entry: (-entry[0], -entry[1]))
        return [item for _, _, item in ordered]

    def scores(self) -> List[float]:
        """Return retained scores in descending order."""
        return sorted((score for score, _, _ in self._heap), reverse=True)


def top_k_by_score(scored_items: Iterable[Tuple[float, T]], k: int) -> List[T]:
    """Reference implementation: keep the ``k`` best items by full sort.

    Used by tests to validate that :class:`BoundedScoreHeap` retains exactly
    the same set (streaming vs batch filtering must agree).  Ties are broken
    in favour of earlier items, as in the heap.
    """
    if k <= 0:
        raise FeatureError("k must be positive")
    indexed = [(score, index, item) for index, (score, item) in enumerate(scored_items)]
    indexed.sort(key=lambda entry: (-entry[0], entry[1]))
    return [item for _, _, item in indexed[:k]]
