"""Tests for Hamming distance and the brute-force matcher."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MatcherConfig
from repro.errors import DescriptorError
from repro.matching import (
    BruteForceMatcher,
    Match,
    filter_matches_by_distance,
    hamming_distance,
    hamming_distance_matrix,
    match_minimum_distance,
    normalized_hamming,
    popcount_bytes,
)


def _random_descriptors(count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(count, 32), dtype=np.uint8)


class TestHammingDistance:
    def test_identical_descriptors_distance_zero(self):
        descriptor = _random_descriptors(1)[0]
        assert hamming_distance(descriptor, descriptor) == 0

    def test_complement_distance_is_all_bits(self):
        descriptor = _random_descriptors(1)[0]
        assert hamming_distance(descriptor, np.bitwise_not(descriptor)) == 256

    def test_single_bit_flip(self):
        a = np.zeros(32, dtype=np.uint8)
        b = a.copy()
        b[5] = 0b00010000
        assert hamming_distance(a, b) == 1

    def test_symmetry(self):
        a, b = _random_descriptors(2, seed=1)
        assert hamming_distance(a, b) == hamming_distance(b, a)

    def test_triangle_inequality(self):
        a, b, c = _random_descriptors(3, seed=2)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DescriptorError):
            hamming_distance(np.zeros(32, dtype=np.uint8), np.zeros(16, dtype=np.uint8))

    def test_popcount_table(self):
        values = np.array([0, 1, 3, 255], dtype=np.uint8)
        assert popcount_bytes(values).tolist() == [0, 1, 2, 8]

    def test_normalized_distance(self):
        a = np.zeros(32, dtype=np.uint8)
        b = np.full(32, 255, dtype=np.uint8)
        assert normalized_hamming(a, b) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_distance_matches_bit_count(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, 32, dtype=np.uint8)
        b = rng.integers(0, 256, 32, dtype=np.uint8)
        expected = int(np.unpackbits(np.bitwise_xor(a, b)).sum())
        assert hamming_distance(a, b) == expected


class TestDistanceMatrix:
    def test_shape(self):
        a = _random_descriptors(5, seed=3)
        b = _random_descriptors(7, seed=4)
        assert hamming_distance_matrix(a, b).shape == (5, 7)

    def test_entries_match_pairwise(self):
        a = _random_descriptors(4, seed=5)
        b = _random_descriptors(3, seed=6)
        matrix = hamming_distance_matrix(a, b)
        for i in range(4):
            for j in range(3):
                assert matrix[i, j] == hamming_distance(a[i], b[j])

    def test_diagonal_zero_for_same_set(self):
        a = _random_descriptors(6, seed=7)
        matrix = hamming_distance_matrix(a, a)
        assert np.all(np.diag(matrix) == 0)

    def test_byte_length_mismatch(self):
        with pytest.raises(DescriptorError):
            hamming_distance_matrix(
                np.zeros((2, 32), dtype=np.uint8), np.zeros((2, 16), dtype=np.uint8)
            )


def _unpackbits_oracle(a, b):
    """Bit-by-bit Hamming distances, independent of the word-wise kernel."""
    xor = np.bitwise_xor(a[:, np.newaxis, :], b[np.newaxis, :, :])
    return np.unpackbits(xor, axis=2).sum(axis=2)


class TestDistanceMatrixOracle:
    """The 64-bit word kernel must equal an unpackbits oracle bit for bit."""

    @pytest.mark.parametrize("width", [1, 7, 8, 31, 32, 33, 64])
    def test_byte_widths(self, width):
        rng = np.random.default_rng(width)
        a = rng.integers(0, 256, (9, width), dtype=np.uint8)
        b = rng.integers(0, 256, (13, width), dtype=np.uint8)
        distances = hamming_distance_matrix(a, b)
        assert distances.dtype == np.int32
        np.testing.assert_array_equal(distances, _unpackbits_oracle(a, b))

    @pytest.mark.parametrize(
        "view",
        [
            pytest.param(lambda m: m[2:7], id="row-slice"),
            pytest.param(lambda m: m[::2], id="row-stride"),
            pytest.param(lambda m: m[:, ::-1], id="reversed-bytes"),
            pytest.param(np.asfortranarray, id="fortran"),
        ],
    )
    def test_non_contiguous_inputs(self, view):
        rng = np.random.default_rng(11)
        a = view(rng.integers(0, 256, (12, 32), dtype=np.uint8))
        b = view(rng.integers(0, 256, (15, 32), dtype=np.uint8))
        np.testing.assert_array_equal(hamming_distance_matrix(a, b), _unpackbits_oracle(a, b))

    @pytest.mark.parametrize("num_a, num_b", [(1, 40), (40, 1), (1, 1)])
    def test_single_row_sets(self, num_a, num_b):
        a = _random_descriptors(num_a, seed=12)
        b = _random_descriptors(num_b, seed=13)
        np.testing.assert_array_equal(hamming_distance_matrix(a, b), _unpackbits_oracle(a, b))

    def test_spans_several_row_blocks(self):
        a = _random_descriptors(300, seed=14)
        b = _random_descriptors(700, seed=15)
        np.testing.assert_array_equal(hamming_distance_matrix(a, b), _unpackbits_oracle(a, b))


class TestMinimumDistanceMatching:
    def test_finds_exact_copies(self):
        train = _random_descriptors(20, seed=8)
        query = train[[3, 7, 11]]
        matches = match_minimum_distance(query, train)
        assert [m.train_index for m in matches] == [3, 7, 11]
        assert all(m.distance == 0 for m in matches)

    def test_one_match_per_query(self):
        query = _random_descriptors(5, seed=9)
        train = _random_descriptors(30, seed=10)
        matches = match_minimum_distance(query, train)
        assert len(matches) == 5
        assert [m.query_index for m in matches] == list(range(5))

    def test_empty_inputs(self):
        assert match_minimum_distance(np.zeros((0, 32), dtype=np.uint8), _random_descriptors(3)) == []
        assert match_minimum_distance(_random_descriptors(3), np.zeros((0, 32), dtype=np.uint8)) == []


class TestBruteForceMatcher:
    def test_rejects_large_distances(self):
        query = _random_descriptors(10, seed=11)
        train = _random_descriptors(10, seed=12)  # unrelated: distances ~128
        matcher = BruteForceMatcher(MatcherConfig(max_hamming_distance=30, ratio_threshold=1.0))
        assert matcher.match(query, train) == []
        assert matcher.last_stats.rejected_distance == 10

    def test_accepts_exact_matches(self):
        train = _random_descriptors(50, seed=13)
        query = train[:10]
        matcher = BruteForceMatcher(MatcherConfig(max_hamming_distance=30))
        matches = matcher.match(query, train)
        assert len(matches) == 10
        assert all(m.distance == 0 for m in matches)

    def test_ratio_test_rejects_ambiguous(self):
        base = _random_descriptors(1, seed=14)[0]
        near_a = base.copy()
        near_a[0] ^= 0x01
        near_b = base.copy()
        near_b[1] ^= 0x01
        train = np.stack([near_a, near_b])  # two nearly identical candidates
        matcher = BruteForceMatcher(
            MatcherConfig(max_hamming_distance=64, ratio_threshold=0.5)
        )
        assert matcher.match(base[np.newaxis, :], train) == []
        assert matcher.last_stats.rejected_ratio == 1

    def test_cross_check_requires_mutual_best(self):
        train = _random_descriptors(20, seed=15)
        query = train[:5]
        matcher = BruteForceMatcher(
            MatcherConfig(max_hamming_distance=64, ratio_threshold=1.0, cross_check=True)
        )
        matches = matcher.match(query, train)
        assert [m.train_index for m in matches] == [0, 1, 2, 3, 4]

    def test_statistics_populated(self):
        query = _random_descriptors(4, seed=16)
        train = _random_descriptors(6, seed=17)
        matcher = BruteForceMatcher(MatcherConfig(max_hamming_distance=256, ratio_threshold=1.0))
        matcher.match(query, train)
        stats = matcher.last_stats
        assert stats.num_queries == 4
        assert stats.num_candidates == 6
        assert stats.distance_evaluations == 24

    def test_empty_returns_empty(self):
        matcher = BruteForceMatcher()
        assert matcher.match(np.zeros((0, 32), dtype=np.uint8), _random_descriptors(3)) == []


class TestFilters:
    def test_filter_by_distance(self):
        matches = [Match(0, 1, 10), Match(1, 2, 40), Match(2, 3, 90)]
        assert filter_matches_by_distance(matches, 40) == matches[:2]


class TestVectorizedSelectionEquivalence:
    """The array-based match selection must mirror the per-query loop exactly."""

    @staticmethod
    def _loop_oracle(query, train, config):
        """Literal transcription of the old per-query selection loop."""
        distances = hamming_distance_matrix(query, train)
        best_train = np.argmin(distances, axis=1)
        best_distance = distances[np.arange(distances.shape[0]), best_train]
        reverse_best = np.argmin(distances, axis=0) if config.cross_check else None
        matches, rejected = [], {"distance": 0, "ratio": 0, "cross": 0}
        for qi in range(distances.shape[0]):
            ti, dist = int(best_train[qi]), int(best_distance[qi])
            if dist > config.max_hamming_distance:
                rejected["distance"] += 1
                continue
            row = distances[qi]
            passes = True
            if config.ratio_threshold < 1.0 and row.size >= 2:
                second = np.partition(np.delete(row, ti), 0)[0]
                passes = second != 0 and dist <= config.ratio_threshold * float(second)
            if not passes:
                rejected["ratio"] += 1
                continue
            if reverse_best is not None and int(reverse_best[ti]) != qi:
                rejected["cross"] += 1
                continue
            matches.append(Match(qi, ti, dist))
        return matches, rejected

    @pytest.mark.parametrize("cross_check", [False, True])
    @pytest.mark.parametrize("ratio", [0.5, 0.85, 1.0])
    def test_matches_and_counters_equal_loop(self, cross_check, ratio):
        rng = np.random.default_rng(42)
        config = MatcherConfig(
            max_hamming_distance=40, ratio_threshold=ratio, cross_check=cross_check
        )
        for trial in range(25):
            query = rng.integers(0, 256, (8, 8), dtype=np.uint8)
            train = rng.integers(0, 256, (10, 8), dtype=np.uint8)
            train[:4] = query[:4]  # guarantee accepts, ties and mutual bests
            matcher = BruteForceMatcher(config)
            got = matcher.match(query, train)
            expected, rejected = self._loop_oracle(query, train, config)
            assert got == expected
            assert matcher.last_stats.rejected_distance == rejected["distance"]
            assert matcher.last_stats.rejected_ratio == rejected["ratio"]
            assert matcher.last_stats.rejected_cross_check == rejected["cross"]
            assert matcher.last_stats.accepted == len(expected)

    @staticmethod
    def _low_entropy(rng, bases, count):
        """Copies of a few base descriptors with 0-2 bits flipped each."""
        rows = bases[rng.integers(0, len(bases), count)].copy()
        for row in rows:
            for bit in rng.choice(row.size * 8, rng.integers(0, 3), replace=False):
                row[bit // 8] ^= np.uint8(1 << (bit % 8))
        return rows

    def _assert_equals_loop(self, query, train, config):
        matcher = BruteForceMatcher(config)
        arrays = matcher.match_arrays(query, train)
        expected, rejected = self._loop_oracle(query, train, config)
        assert arrays.to_matches() == expected
        assert vars(matcher.last_stats) == {
            "num_queries": query.shape[0],
            "num_candidates": train.shape[0],
            "distance_evaluations": query.shape[0] * train.shape[0],
            "accepted": len(expected),
            "rejected_distance": rejected["distance"],
            "rejected_ratio": rejected["ratio"],
            "rejected_cross_check": rejected["cross"],
        }

    @pytest.mark.parametrize("cross_check", [False, True])
    @pytest.mark.parametrize("ratio", [0.5, 0.85, 1.0])
    def test_tie_heavy_descriptors_equal_loop(self, cross_check, ratio):
        rng = np.random.default_rng(7)
        config = MatcherConfig(
            max_hamming_distance=40, ratio_threshold=ratio, cross_check=cross_check
        )
        zero_seconds = second_equals_best = 0
        for trial in range(25):
            bases = _random_descriptors(3, seed=100 + trial)
            query = self._low_entropy(rng, bases, 10)
            train = self._low_entropy(rng, bases, 12)
            distances = np.sort(hamming_distance_matrix(query, train), axis=1)
            second_equals_best += int(np.count_nonzero(distances[:, 0] == distances[:, 1]))
            zero_seconds += int(np.count_nonzero(distances[:, 1] == 0))
            self._assert_equals_loop(query, train, config)
        # the data really exercises the tie cases
        assert second_equals_best > 50 and zero_seconds > 10

    @pytest.mark.parametrize("cross_check", [False, True])
    @pytest.mark.parametrize("ratio", [0.5, 1.0])
    def test_single_candidate_train_set(self, cross_check, ratio):
        rng = np.random.default_rng(8)
        config = MatcherConfig(
            max_hamming_distance=40, ratio_threshold=ratio, cross_check=cross_check
        )
        bases = _random_descriptors(2, seed=5)
        for trial in range(10):
            query = self._low_entropy(rng, bases, 6)
            train = self._low_entropy(rng, bases, 1)
            self._assert_equals_loop(query, train, config)


class TestMatcherMemory:
    """The matcher's transient memory stays a small multiple of the int32 result."""

    def test_peak_bytes_per_descriptor_pair(self):
        # the map size at the end of a 20-frame fr1/desk QVGA tracking session
        query = _random_descriptors(1024, seed=21)
        train = _random_descriptors(3320, seed=22)
        tracemalloc.start()
        try:
            BruteForceMatcher().match_arrays(query, train)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (query.shape[0] * train.shape[0]) <= 24


class TestMatchArrays:
    """The array fast path must mirror the Match-object API exactly."""

    @pytest.mark.parametrize("cross_check", [False, True])
    def test_arrays_equal_objects_and_stats(self, cross_check):
        rng = np.random.default_rng(9)
        config = MatcherConfig(
            max_hamming_distance=48, ratio_threshold=0.9, cross_check=cross_check
        )
        for trial in range(10):
            query = rng.integers(0, 256, (12, 8), dtype=np.uint8)
            train = rng.integers(0, 256, (15, 8), dtype=np.uint8)
            train[:5] = query[:5]
            object_matcher = BruteForceMatcher(config)
            array_matcher = BruteForceMatcher(config)
            matches = object_matcher.match(query, train)
            arrays = array_matcher.match_arrays(query, train)
            assert arrays.to_matches() == matches
            assert arrays.size == len(matches)
            assert arrays.query_indices.tolist() == [m.query_index for m in matches]
            assert arrays.train_indices.tolist() == [m.train_index for m in matches]
            assert arrays.distances.tolist() == [m.distance for m in matches]
            assert vars(array_matcher.last_stats) == vars(object_matcher.last_stats)

    def test_empty_inputs_yield_empty_arrays(self):
        from repro.matching import MatchArrays

        arrays = BruteForceMatcher().match_arrays(
            np.zeros((0, 32), dtype=np.uint8), _random_descriptors(4)
        )
        assert isinstance(arrays, MatchArrays)
        assert arrays.size == 0
        assert arrays.to_matches() == []

    def test_no_match_objects_materialised_on_array_path(self):
        query = _random_descriptors(6, seed=3)
        arrays = BruteForceMatcher().match_arrays(query, query)
        # the fast path returns plain int64 arrays, one row per query (every
        # query matches itself at distance 0 here)
        assert arrays.query_indices.dtype == np.int64
        assert arrays.distances.tolist() == [0] * 6
        assert arrays.train_indices.tolist() == list(range(6))
