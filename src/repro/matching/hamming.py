"""Hamming distance between binary descriptors.

BRIEF descriptors are binary strings, so descriptor distance is the Hamming
distance (number of differing bits).  The hardware Distance Computing module
realises this with a 256-bit XOR followed by a popcount adder tree.  The
software path does the same on whole machine words: each descriptor is viewed
as 64-bit words (zero-padded to a multiple of 8 bytes), and the ``N x M``
distance matrix accumulates ``np.bitwise_count`` of the word-wise XOR.
"""

from __future__ import annotations

import numpy as np

from ..errors import DescriptorError

#: Descriptor pairs per block of the distance matrix, so the uint64 XOR
#: scratch (512 KiB) stays in cache however large the map grows.
_BLOCK_PAIRS = 1 << 16


def _validate_descriptor_matrix(descriptors: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(descriptors, dtype=np.uint8)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    if matrix.ndim != 2:
        raise DescriptorError(f"{name} must be a 1-D or 2-D byte array, got {matrix.ndim}-D")
    return matrix


def _as_words(matrix: np.ndarray) -> np.ndarray:
    """View an ``(N, B)`` byte matrix as ``(N, ceil(B / 8))`` uint64 words.

    Zero padding adds no set bits to an XOR, so distances are unchanged.
    """
    num_rows, width = matrix.shape
    if width % 8 or not matrix.flags.c_contiguous:
        padded = np.zeros((num_rows, -(-width // 8) * 8), dtype=np.uint8)
        padded[:, :width] = matrix
        matrix = padded
    return matrix.view(np.uint64)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Return the Hamming distance between two packed descriptors."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise DescriptorError(f"descriptor shapes differ: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(np.bitwise_xor(a, b)).sum())


def hamming_distance_matrix(descriptors_a: np.ndarray, descriptors_b: np.ndarray) -> np.ndarray:
    """Return the ``(N, M)`` int32 Hamming distance matrix between two descriptor sets.

    ``descriptors_a`` has shape ``(N, B)`` and ``descriptors_b`` ``(M, B)``
    where ``B`` is the descriptor byte length (32 for 256-bit descriptors).
    Rows are processed in blocks; within a block every 64-bit word is XORed
    against the matching word of all ``M`` descriptors and its popcount added
    to the result, the software form of the XOR + adder-tree datapath.
    """
    a = _validate_descriptor_matrix(descriptors_a, "descriptors_a")
    b = _validate_descriptor_matrix(descriptors_b, "descriptors_b")
    if a.shape[1] != b.shape[1]:
        raise DescriptorError(
            f"descriptor byte lengths differ: {a.shape[1]} vs {b.shape[1]}"
        )
    words_a = _as_words(a)
    words_b = np.ascontiguousarray(_as_words(b).T)  # one contiguous row per word
    num_a, num_b = words_a.shape[0], words_b.shape[1]
    distances = np.zeros((num_a, num_b), dtype=np.int32)
    block = max(1, _BLOCK_PAIRS // max(num_b, 1))
    xor = np.empty((min(block, num_a), num_b), dtype=np.uint64)
    counts = np.empty(xor.shape, dtype=np.uint8)
    for start in range(0, num_a, block):
        out = distances[start : start + block]
        xor_block, count_block = xor[: len(out)], counts[: len(out)]
        for word_a, word_b in zip(words_a[start : start + block].T, words_b):
            np.bitwise_xor(word_a[:, np.newaxis], word_b, out=xor_block)
            np.bitwise_count(xor_block, out=count_block)
            out += count_block
    return distances


def popcount_bytes(values: np.ndarray) -> np.ndarray:
    """Return the popcount of every byte in ``values`` (same shape)."""
    return np.bitwise_count(np.asarray(values, dtype=np.uint8))


def normalized_hamming(a: np.ndarray, b: np.ndarray) -> float:
    """Return the Hamming distance as a fraction of descriptor length in bits."""
    a = np.asarray(a, dtype=np.uint8)
    total_bits = a.size * 8
    if total_bits == 0:
        raise DescriptorError("descriptors must not be empty")
    return hamming_distance(a, b) / total_bits
