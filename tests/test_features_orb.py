"""Tests for the software ORB extractor (both modelled workflow orders)."""

import hashlib
import json
from dataclasses import asdict, fields

import numpy as np
import pytest

from repro.config import ExtractorConfig, PyramidConfig
from repro.dataset import SequenceSpec, make_sequence
from repro.features import (
    BoundedScoreHeap,
    Feature,
    FeatureArrays,
    Keypoint,
    OrbExtractor,
    extract_features,
)
from repro.image import shift_image
from repro.serving import pack_into, packed_nbytes, unpack_result


class TestExtraction:
    def test_finds_features_on_textured_image(self, extraction_result):
        assert len(extraction_result.features) > 50

    def test_respects_max_features(self, extraction_result, small_extractor_config):
        assert len(extraction_result.features) <= small_extractor_config.max_features

    def test_descriptors_shape(self, extraction_result):
        matrix = extraction_result.descriptor_matrix()
        assert matrix.shape == (len(extraction_result.features), 32)
        assert matrix.dtype == np.uint8

    def test_keypoint_array_shape(self, extraction_result):
        array = extraction_result.keypoint_array()
        assert array.shape == (len(extraction_result.features), 2)

    def test_features_sorted_by_score(self, extraction_result):
        scores = [f.score for f in extraction_result.features]
        assert scores == sorted(scores, reverse=True)

    def test_all_features_have_orientation(self, extraction_result):
        for feature in extraction_result.features:
            assert feature.keypoint.orientation_bin is not None
            assert 0 <= feature.keypoint.orientation_bin < 32

    def test_flat_image_yields_no_features(self, flat_image, small_extractor_config):
        result = OrbExtractor(small_extractor_config).extract(flat_image)
        assert result.features == []

    def test_profile_counts_consistent(self, extraction_result):
        profile = extraction_result.profile
        assert profile.keypoints_after_nms <= profile.keypoints_detected
        assert profile.features_retained <= profile.descriptors_computed
        assert profile.features_retained == len(extraction_result.features)
        assert profile.pixels_processed > 0
        assert len(profile.per_level_keypoints) == 2  # two pyramid levels

    def test_level0_coordinates_scaled(self, extraction_result, small_extractor_config):
        for feature in extraction_result.features:
            if feature.keypoint.level > 0:
                scale = small_extractor_config.pyramid.level_scale(feature.keypoint.level)
                assert feature.x0 == pytest.approx(feature.keypoint.x * scale)
                break
        else:
            pytest.skip("no level-1 features found")

    def test_multi_level_features_present(self, extraction_result):
        levels = {f.keypoint.level for f in extraction_result.features}
        assert 0 in levels

    def test_convenience_function(self, blocks_image, small_extractor_config):
        result = extract_features(blocks_image, small_extractor_config)
        assert len(result.features) > 0


class TestWorkflows:
    def test_rescheduled_computes_more_descriptors(self, blocks_image):
        base = dict(
            image_width=160,
            image_height=120,
            pyramid=PyramidConfig(num_levels=2),
            max_features=50,
        )
        rescheduled = OrbExtractor(
            ExtractorConfig(rescheduled_workflow=True, **base)
        ).extract(blocks_image)
        original = OrbExtractor(
            ExtractorConfig(rescheduled_workflow=False, **base)
        ).extract(blocks_image)
        # rescheduling describes every detected keypoint (M), the original
        # order only the retained N < M
        assert (
            rescheduled.profile.descriptors_computed
            > original.profile.descriptors_computed
        )
        assert rescheduled.profile.extra_descriptors > 0


# One seeded frame per sequence/resolution: (sequence, width, height).
GOLDEN_FRAMES = {
    "desk_qvga": ("fr1/desk", 320, 240),
    "desk_vga": ("fr1/desk", 640, 480),
    "rpy_vga": ("fr2/rpy", 640, 480),
}

# sha256 of feature_records() + asdict(profile), recorded from the extractor
# that described every candidate before heap-filtering (rescheduled) or
# argsort-filtered before describing (original).  The single cheap execution
# order must reproduce both, features and accounted profile alike.
GOLDEN_DIGESTS = {
    ("desk_qvga", "vectorized", True): "7a2020ca933a19e05e8ff642021a2645c2d4716c53a79526d9a9bc436a2a8164",
    ("desk_qvga", "vectorized", False): "87d87667100c1637a71e66c71bc363e4921f254db29ad7885ca400fcf164a826",
    ("desk_qvga", "hwexact", True): "2de1d468f1aea0ec68f63a8f04ccf3e7f673c06b1b4ffbdd8bf583506955d6e2",
    ("desk_qvga", "hwexact", False): "31cc144e19bdf34de7b9d35d0807c09e2f787e69ce261853ed129952065dcb71",
    ("desk_qvga", "reference", True): "7a2020ca933a19e05e8ff642021a2645c2d4716c53a79526d9a9bc436a2a8164",
    ("desk_qvga", "reference", False): "87d87667100c1637a71e66c71bc363e4921f254db29ad7885ca400fcf164a826",
    ("desk_vga", "vectorized", True): "eab0b9365d7eb5cba34830c67b94457331c5b651c56583aa1630722e5437ec08",
    ("desk_vga", "vectorized", False): "cd02079e6816ddb94c0f32da0d6f90cd6be7723b3b398f798cdfa9c37f359d68",
    ("desk_vga", "hwexact", True): "8707f3015e65f87f755dfda098eb09faabd72d314679f654df4f4da8e7dbbf2f",
    ("desk_vga", "hwexact", False): "a714513d8250b074206a5516b93f4f1f4c017c3bd2c668cbbc1657fb9355f777",
    ("rpy_vga", "vectorized", True): "f95970dbbc9cee25c5b702afa4acdb03483848729f6f730149673b50523a73e3",
    ("rpy_vga", "vectorized", False): "7929cbb0b64db1b9a035a3a742d25b6db9cb1561d8a5370335f11ccc625553e9",
    ("rpy_vga", "hwexact", True): "0fd9ca7267716f355f18fc497d266ac095267e83e02abdf7d4bdb73b721c68da",
    ("rpy_vga", "hwexact", False): "0ad973728c046a288ee5cd42636b0be7cc9e0a081ad20d6b1478a00052ec22fc",
}


@pytest.fixture(scope="module")
def golden_frames():
    frames = {}
    for key, (name, width, height) in GOLDEN_FRAMES.items():
        sequence = make_sequence(
            SequenceSpec(
                name=name,
                num_frames=2,
                image_width=width,
                image_height=height,
                image_noise_std=0.5,
                seed=11,
            )
        )
        frames[key] = sequence.frames[1].image
    return frames


def _config(image, engine="vectorized", rescheduled=True, **overrides):
    return ExtractorConfig(
        image_width=image.width,
        image_height=image.height,
        backend=engine,
        frontend=engine,
        rescheduled_workflow=rescheduled,
        **overrides,
    )


def _digest(result) -> str:
    digest = hashlib.sha256()
    for level, x, y, score, obin, orad, descriptor, x0, y0 in result.feature_records():
        record = (
            int(level),
            int(x),
            int(y),
            float(score).hex(),
            None if obin is None else int(obin),
            None if orad is None else float(orad).hex(),
            bytes(descriptor),
            float(x0).hex(),
            float(y0).hex(),
        )
        digest.update(repr(record).encode())
    digest.update(json.dumps(asdict(result.profile), sort_keys=True, default=int).encode())
    return digest.hexdigest()


class TestGolden:
    @pytest.mark.parametrize(
        "frame, engine, rescheduled",
        sorted(GOLDEN_DIGESTS),
        ids=[f"{f}-{e}-{'rescheduled' if r else 'original'}" for f, e, r in sorted(GOLDEN_DIGESTS)],
    )
    def test_features_and_profile_match_pinned_digest(
        self, golden_frames, frame, engine, rescheduled
    ):
        image = golden_frames[frame]
        result = OrbExtractor(_config(image, engine, rescheduled)).extract(image)
        assert _digest(result) == GOLDEN_DIGESTS[(frame, engine, rescheduled)]


@pytest.mark.parametrize("rescheduled", [True, False], ids=["rescheduled", "original"])
class TestWorkAndAccounting:
    """Deterministic counts: software describes only what it keeps."""

    def _counted_extract(self, monkeypatch, image, config):
        extractor = OrbExtractor(config)
        counts = {"described_rows": 0, "smoothed_levels": 0, "level_scores": []}
        describe = extractor.backend.describe
        smooth = extractor.frontend.smooth
        detect = extractor._detect_level_candidates

        def counting_describe(smoothed, xs, ys, scores):
            counts["described_rows"] += int(np.asarray(xs).size)
            return describe(smoothed, xs, ys, scores)

        def counting_smooth(level_image):
            counts["smoothed_levels"] += 1
            return smooth(level_image)

        def recording_detect(level_image, level, profile):
            candidates = detect(level_image, level, profile)
            counts["level_scores"].append(candidates[2])
            return candidates

        monkeypatch.setattr(extractor.backend, "describe", counting_describe)
        monkeypatch.setattr(extractor.frontend, "smooth", counting_smooth)
        monkeypatch.setattr(extractor, "_detect_level_candidates", recording_detect)
        return extractor.extract(image), counts

    def test_describes_and_smooths_only_retained(self, monkeypatch, golden_frames, rescheduled):
        image = golden_frames["desk_qvga"]
        # few enough winners that some pyramid levels keep none of them
        config = _config(image, rescheduled=rescheduled, max_features=10)
        result, counts = self._counted_extract(monkeypatch, image, config)
        profile = result.profile
        retained_levels = set(result.level_array().tolist())
        assert profile.features_retained == 10
        assert counts["described_rows"] == profile.features_retained
        assert counts["smoothed_levels"] == len(retained_levels)
        assert len(retained_levels) < len(profile.per_level_keypoints)

    def test_profile_accounts_for_the_modelled_schedule(
        self, monkeypatch, golden_frames, rescheduled
    ):
        image = golden_frames["desk_qvga"]
        config = _config(image, rescheduled=rescheduled)
        result, counts = self._counted_extract(monkeypatch, image, config)
        profile = result.profile
        assert counts["described_rows"] == profile.features_retained
        if rescheduled:
            # every candidate is described as it streams by, then offered
            # to the heap in level order, one scalar offer at a time
            replay = BoundedScoreHeap(config.max_features)
            for scores in counts["level_scores"]:
                for score in scores:
                    replay.offer(float(score), None)
            assert profile.descriptors_computed == profile.keypoints_after_nms
            assert profile.heap_comparisons == replay.stats.comparisons
            assert profile.heap_comparisons > 0
        else:
            assert profile.descriptors_computed == profile.features_retained
            assert profile.heap_comparisons == 0

    def test_pack_roundtrip_never_builds_features(self, monkeypatch, golden_frames, rescheduled):
        image = golden_frames["desk_qvga"]
        result = OrbExtractor(_config(image, rescheduled=rescheduled)).extract(image)

        def refuse(self):
            raise AssertionError("Feature objects built on the arrays-first path")

        monkeypatch.setattr(FeatureArrays, "build_features", refuse)
        buffer = np.empty(packed_nbytes(result), dtype=np.uint8)
        used = pack_into(result, buffer)
        restored = unpack_result(buffer[:used])
        original_arrays = result.feature_arrays()
        restored_arrays = restored.feature_arrays()
        for column in fields(FeatureArrays):
            before = getattr(original_arrays, column.name)
            after = getattr(restored_arrays, column.name)
            assert before.dtype == after.dtype and before.shape == after.shape
            assert before.tobytes() == after.tobytes()
        assert restored.profile == result.profile


class TestMatchingStability:
    def test_shifted_image_features_match(self, blocks_image, small_extractor_config):
        """Features must be repeatable under small translations (tracking relies on it)."""
        from repro.matching import BruteForceMatcher

        extractor = OrbExtractor(small_extractor_config)
        original = extractor.extract(blocks_image)
        shifted = extractor.extract(shift_image(blocks_image, 3, 2, fill=128))
        matches = BruteForceMatcher().match(
            original.descriptor_matrix(), shifted.descriptor_matrix()
        )
        assert len(matches) > 0.5 * len(original.features)
        distances = sorted(match.distance for match in matches)
        assert distances[len(distances) // 2] <= 16  # median near-exact


class TestFeatureDataclass:
    def test_descriptor_validation(self):
        keypoint = Keypoint(x=5, y=5, score=1.0)
        with pytest.raises(Exception):
            Feature(keypoint=keypoint, descriptor=np.zeros((2, 2), dtype=np.uint8))

    def test_default_level0_coordinates(self):
        keypoint = Keypoint(x=7, y=9, score=1.0)
        feature = Feature(keypoint=keypoint, descriptor=np.zeros(32, dtype=np.uint8))
        assert feature.x0 == 7.0
        assert feature.y0 == 9.0
        assert feature.num_bits == 256

    def test_descriptor_bits_roundtrip(self):
        rng = np.random.default_rng(0)
        descriptor = rng.integers(0, 256, 32, dtype=np.uint8)
        feature = Feature(
            keypoint=Keypoint(x=1, y=1, score=0.0), descriptor=descriptor
        )
        assert np.array_equal(
            np.packbits(feature.descriptor_bits(), bitorder="little"), descriptor
        )
