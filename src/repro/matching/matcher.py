"""Brute-force descriptor matching.

Feature matching in eSLAM compares every descriptor of the current frame with
every descriptor of the global map and keeps the minimum-distance candidate
(Section 3.2).  The software matcher reproduces that behaviour and adds the
standard quality filters (maximum distance, Lowe ratio test, cross-check)
used to reject ambiguous matches before pose estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..config import MatcherConfig
from ..errors import DescriptorError
from .hamming import hamming_distance_matrix


@dataclass(frozen=True)
class Match:
    """A single descriptor correspondence.

    ``query_index`` indexes the current-frame descriptor set, ``train_index``
    the reference (map) descriptor set, and ``distance`` is their Hamming
    distance in bits.
    """

    query_index: int
    train_index: int
    distance: int


@dataclass
class MatchStatistics:
    """Aggregate statistics of one matching pass (used by runtime models)."""

    num_queries: int = 0
    num_candidates: int = 0
    distance_evaluations: int = 0
    accepted: int = 0
    rejected_distance: int = 0
    rejected_ratio: int = 0
    rejected_cross_check: int = 0


@dataclass(frozen=True)
class MatchArrays:
    """Accepted correspondences as parallel arrays (the matcher hot path).

    The array form of a ``List[Match]``: row ``i`` of the three arrays is
    one accepted correspondence.  Consumers that only gather by index (pose
    estimation, map updates) can use the arrays directly; ``to_matches``
    materialises the per-correspondence objects for the object API.
    """

    query_indices: np.ndarray
    train_indices: np.ndarray
    distances: np.ndarray

    @property
    def size(self) -> int:
        return int(self.query_indices.size)

    @classmethod
    def empty(cls) -> "MatchArrays":
        return cls(
            query_indices=np.zeros(0, dtype=np.int64),
            train_indices=np.zeros(0, dtype=np.int64),
            distances=np.zeros(0, dtype=np.int64),
        )

    def to_matches(self) -> List[Match]:
        """Materialise :class:`Match` objects (identical to the object API)."""
        return [
            Match(query_index=int(qi), train_index=int(ti), distance=int(d))
            for qi, ti, d in zip(
                self.query_indices.tolist(),
                self.train_indices.tolist(),
                self.distances.tolist(),
            )
        ]


class BruteForceMatcher:
    """Exhaustive Hamming matcher with optional ratio and cross-check filters."""

    def __init__(self, config: MatcherConfig | None = None) -> None:
        self.config = config or MatcherConfig()
        self.last_stats = MatchStatistics()

    def match(
        self,
        query_descriptors: np.ndarray,
        train_descriptors: np.ndarray,
    ) -> List[Match]:
        """Match every query descriptor against the train set.

        Returns at most one match per query descriptor; matches that fail the
        distance, ratio or cross-check criteria are dropped.  Thin object
        wrapper over :meth:`match_arrays` — identical output and statistics.
        """
        return self.match_arrays(query_descriptors, train_descriptors).to_matches()

    def match_arrays(
        self,
        query_descriptors: np.ndarray,
        train_descriptors: np.ndarray,
    ) -> MatchArrays:
        """Array fast path of :meth:`match`: no per-``Match`` construction.

        Selection and every quality filter run as one array pass per
        criterion; the rejection counters tally exactly like the old
        per-query loop (distance first, then ratio, then cross-check), and
        the accepted rows come back as :class:`MatchArrays` so hot paths
        never build per-correspondence Python objects.
        """
        query = np.asarray(query_descriptors, dtype=np.uint8)
        train = np.asarray(train_descriptors, dtype=np.uint8)
        stats = MatchStatistics(
            num_queries=int(query.shape[0]) if query.ndim == 2 else 0,
            num_candidates=int(train.shape[0]) if train.ndim == 2 else 0,
        )
        self.last_stats = stats
        if query.size == 0 or train.size == 0:
            return MatchArrays.empty()
        if query.ndim != 2 or train.ndim != 2:
            raise DescriptorError("descriptor sets must be 2-D (N, bytes) arrays")
        distances = hamming_distance_matrix(query, train)
        stats.distance_evaluations = distances.size
        best_train = np.argmin(distances, axis=1)
        query_range = np.arange(distances.shape[0])
        best_distance = distances[query_range, best_train]
        alive = best_distance <= self.config.max_hamming_distance
        stats.rejected_distance = int(np.count_nonzero(~alive))
        passes_ratio = self._ratio_test_mask(distances, best_train, best_distance)
        stats.rejected_ratio = int(np.count_nonzero(alive & ~passes_ratio))
        alive &= passes_ratio
        if self.config.cross_check:
            reverse_best = np.argmin(distances, axis=0)
            mutual = reverse_best[best_train] == query_range
            stats.rejected_cross_check = int(np.count_nonzero(alive & ~mutual))
            alive &= mutual
        accepted = np.nonzero(alive)[0].astype(np.int64)
        stats.accepted = int(accepted.size)
        return MatchArrays(
            query_indices=accepted,
            train_indices=best_train[accepted].astype(np.int64),
            distances=best_distance[accepted].astype(np.int64),
        )

    def _ratio_test_mask(
        self, distances: np.ndarray, best_train: np.ndarray, best_distance: np.ndarray
    ) -> np.ndarray:
        """Lowe ratio test for every query row at once.

        The second-best distance is the row minimum with the best *position*
        masked out (identical to the old per-row ``np.delete`` + partition);
        a second-best of 0 always fails, and the test is skipped entirely
        when disabled or when there is only one candidate.  The mask is
        written into ``distances`` in place and then restored, so the test
        stays in integers and copies nothing.
        """
        num_queries, num_candidates = distances.shape
        if self.config.ratio_threshold >= 1.0 or num_candidates < 2:
            return np.ones(num_queries, dtype=bool)
        best_positions = (np.arange(num_queries), best_train)
        distances[best_positions] = np.iinfo(distances.dtype).max
        second = distances.min(axis=1)
        distances[best_positions] = best_distance
        return (second > 0) & (best_distance <= self.config.ratio_threshold * second)


def match_minimum_distance(
    query_descriptors: np.ndarray, train_descriptors: np.ndarray
) -> List[Match]:
    """Pure minimum-distance matching with no filters.

    This is exactly what the hardware BRIEF Matcher computes: for every
    current-frame descriptor, the index of the global-map descriptor with the
    minimum Hamming distance.  Filters are applied later on the host.
    """
    query = np.asarray(query_descriptors, dtype=np.uint8)
    train = np.asarray(train_descriptors, dtype=np.uint8)
    if query.size == 0 or train.size == 0:
        return []
    distances = hamming_distance_matrix(query, train)
    best = np.argmin(distances, axis=1)
    return [
        Match(query_index=qi, train_index=int(ti), distance=int(distances[qi, ti]))
        for qi, ti in enumerate(best)
    ]


def filter_matches_by_distance(matches: Sequence[Match], max_distance: int) -> List[Match]:
    """Return the subset of ``matches`` whose distance is within ``max_distance``."""
    return [m for m in matches if m.distance <= max_distance]
