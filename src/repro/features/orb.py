"""Software ORB feature extractor.

This is the functional reference for the accelerated ORB Extractor: it runs
FAST detection, Harris scoring, non-maximum suppression, best-N heap
filtering, Gaussian smoothing, orientation computation and BRIEF description
(RS-BRIEF or original ORB) over a multi-scale image pyramid.

Section 3.1 of the paper compares two hardware schedules:

* ``original``   -- detect -> filter (keep best N) -> describe.  The order of
  the original ORB implementation; on hardware it forces the descriptor
  pipeline to idle until filtering completes and requires caching every
  candidate keypoint's neighbourhood.
* ``rescheduled`` -- detect -> describe -> filter.  eSLAM's streaming order:
  descriptors are computed for *all* M detected keypoints as they stream by
  and the heap keeps the best N at the end.  The extra ``M - N`` descriptor
  computations are the overhead the paper trades for the eliminated idle
  time and cache.

Both schedules retain the same features, because the filter depends only
on the Harris score and description is a pure function of (image,
keypoint).  The software therefore always runs the cheap order -- detect
every level, heap-filter, then smooth and describe only the retained
candidates -- and ``ExtractorConfig.rescheduled_workflow`` selects only
which schedule :class:`ExtractionProfile` accounts for (descriptors
computed, heap comparisons).  Those counts feed the platform runtime
models and the hardware cycle model.

The per-keypoint compute (orientation + description) is delegated to a
pluggable :class:`~repro.backends.KeypointBackend` selected by
``ExtractorConfig.backend``: the default ``vectorized`` backend batches whole
pyramid levels through numpy while ``reference`` keeps the scalar
ground-truth path; both are bit-identical (see ``docs/backends.md``).
The full-frame detection pass (FAST + Harris + NMS + smoothing) is likewise
delegated to a :class:`~repro.frontend.DetectionEngine` selected by
``ExtractorConfig.frontend`` (see ``docs/frontend.md``).  Each frame's
multi-scale pyramid those engines consume is built once, up front, by
:class:`~repro.image.ImagePyramid`.  Candidates and the retained set move
through the extractor as arrays; the result is arrays-first
(:meth:`ExtractionResult.from_arrays`), so :class:`Feature` objects are only
built if a caller asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

import numpy as np

from ..config import ExtractorConfig
from ..image import GrayImage, ImagePyramid, minimum_level_size, within_border
from ..telemetry import current_tracer
from .brief import DescriptorEngine
from .heap_filter import BoundedScoreHeap
from .keypoint import Feature, Keypoint


@dataclass
class ExtractionProfile:
    """Operation counts recorded while extracting features from one image.

    These counts drive the platform runtime models and the hardware cycle
    model: they are the workload description, independent of how long this
    Python process happened to take.
    """

    pixels_processed: int = 0
    keypoints_detected: int = 0
    keypoints_after_nms: int = 0
    descriptors_computed: int = 0
    features_retained: int = 0
    heap_comparisons: int = 0
    per_level_keypoints: List[int] = field(default_factory=list)
    workflow: str = "rescheduled"

    @property
    def extra_descriptors(self) -> int:
        """Descriptors computed beyond the retained set (rescheduling overhead)."""
        return max(0, self.descriptors_computed - self.features_retained)


@dataclass
class FeatureArrays:
    """The retained feature set as dense, contiguous arrays (length ``N``).

    This is the wire-format view of an :class:`ExtractionResult`: every
    per-:class:`~repro.features.keypoint.Feature` attribute flattened into
    one array, so a result can be packed into flat buffers
    (:mod:`repro.serving.resultpack`), shipped across a process boundary
    without pickling, and rebuilt bit-identical on the other side.
    ``orientation_bins`` uses ``-1`` and ``orientation_rads`` uses ``NaN``
    for features whose orientation was never computed.
    """

    descriptors: np.ndarray  # (N, D) uint8 descriptor bytes
    levels: np.ndarray  # (N,) int64 pyramid level
    xs: np.ndarray  # (N,) int64 level-local x
    ys: np.ndarray  # (N,) int64 level-local y
    scores: np.ndarray  # (N,) float64 Harris score
    orientation_bins: np.ndarray  # (N,) int64, -1 = not computed
    orientation_rads: np.ndarray  # (N,) float64, NaN = not computed
    x0: np.ndarray  # (N,) float64 level-0 x
    y0: np.ndarray  # (N,) float64 level-0 y

    def __len__(self) -> int:
        return int(self.descriptors.shape[0])

    @classmethod
    def from_features(cls, features: List[Feature]) -> "FeatureArrays":
        """Flatten per-feature objects into dense arrays."""
        if not features:
            return cls.empty()
        return cls(
            descriptors=np.stack([f.descriptor for f in features]),
            levels=np.array([f.keypoint.level for f in features], dtype=np.int64),
            xs=np.array([f.keypoint.x for f in features], dtype=np.int64),
            ys=np.array([f.keypoint.y for f in features], dtype=np.int64),
            scores=np.array([f.score for f in features], dtype=np.float64),
            orientation_bins=np.array(
                [
                    -1 if f.keypoint.orientation_bin is None else f.keypoint.orientation_bin
                    for f in features
                ],
                dtype=np.int64,
            ),
            orientation_rads=np.array(
                [
                    np.nan if f.keypoint.orientation_rad is None else f.keypoint.orientation_rad
                    for f in features
                ],
                dtype=np.float64,
            ),
            x0=np.array([f.x0 for f in features], dtype=np.float64),
            y0=np.array([f.y0 for f in features], dtype=np.float64),
        )

    @classmethod
    def empty(cls, descriptor_width: int = 32, count: int = 0) -> "FeatureArrays":
        """Arrays for ``count`` features, uninitialised like :func:`numpy.empty`."""
        return cls(
            descriptors=np.empty((count, descriptor_width), dtype=np.uint8),
            levels=np.empty(count, dtype=np.int64),
            xs=np.empty(count, dtype=np.int64),
            ys=np.empty(count, dtype=np.int64),
            scores=np.empty(count, dtype=np.float64),
            orientation_bins=np.empty(count, dtype=np.int64),
            orientation_rads=np.empty(count, dtype=np.float64),
            x0=np.empty(count, dtype=np.float64),
            y0=np.empty(count, dtype=np.float64),
        )

    def take(self, rows: np.ndarray) -> "FeatureArrays":
        """The features at ``rows``, in that order."""
        return FeatureArrays(
            **{column.name: getattr(self, column.name)[rows] for column in fields(self)}
        )

    def build_features(self) -> List[Feature]:
        """Materialise per-feature objects, bit-identical to the originals."""
        features = []
        for index in range(len(self)):
            bin_value = int(self.orientation_bins[index])
            rad_value = float(self.orientation_rads[index])
            keypoint = Keypoint(
                x=int(self.xs[index]),
                y=int(self.ys[index]),
                score=float(self.scores[index]),
                level=int(self.levels[index]),
                orientation_bin=None if bin_value < 0 else bin_value,
                orientation_rad=None if np.isnan(rad_value) else rad_value,
            )
            features.append(
                Feature(
                    keypoint=keypoint,
                    descriptor=self.descriptors[index],
                    x0=float(self.x0[index]),
                    y0=float(self.y0[index]),
                )
            )
        return features


class ExtractionResult:
    """Features extracted from one image plus the associated profile.

    Besides the per-feature objects, the result exposes the retained set as
    dense arrays (descriptor matrix, level-0 coordinates, scores, levels)
    which the SLAM front-end consumes directly on its hot path; the arrays
    are built once on first access and cached.

    A result can be constructed either from per-feature objects or
    **arrays-first** via :meth:`from_arrays` (:class:`OrbExtractor` and the
    zero-copy result transport, :mod:`repro.serving.resultpack`).  In the
    arrays-first form the ``features`` list is built lazily on first
    access, so consumers that only read the dense arrays — the
    :class:`~repro.slam.tracker.Tracker` hot path — never pay for
    materialising ``N`` :class:`~repro.features.keypoint.Feature` objects
    at all.
    """

    def __init__(
        self,
        features: Optional[List[Feature]] = None,
        profile: Optional[ExtractionProfile] = None,
        arrays: Optional[FeatureArrays] = None,
    ) -> None:
        if (features is None) == (arrays is None):
            raise ValueError(
                "ExtractionResult takes exactly one of features= or arrays="
            )
        if profile is None:
            raise ValueError("ExtractionResult requires a profile")
        self._features = features
        self._arrays = arrays
        self.profile = profile
        # lazily built array caches (features-backed results only)
        self._descriptors: Optional[np.ndarray] = None
        self._keypoints_xy: Optional[np.ndarray] = None
        self._scores: Optional[np.ndarray] = None
        self._levels: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(
        cls, arrays: FeatureArrays, profile: ExtractionProfile
    ) -> "ExtractionResult":
        """Arrays-first constructor: per-feature objects are built lazily."""
        return cls(profile=profile, arrays=arrays)

    @property
    def features(self) -> List[Feature]:
        """The retained features as objects (materialised lazily)."""
        if self._features is None:
            self._features = self._arrays.build_features()
        return self._features

    @property
    def feature_count(self) -> int:
        """Number of retained features, without materialising them."""
        if self._features is not None:
            return len(self._features)
        return len(self._arrays)

    def feature_arrays(self) -> FeatureArrays:
        """The retained set as dense arrays (built once, cached)."""
        if self._arrays is None:
            self._arrays = FeatureArrays.from_features(self._features)
        return self._arrays

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtractionResult):
            return NotImplemented
        # feature_records() is the repo-wide bit-identity key; comparing
        # Feature objects directly would trip over ndarray truthiness
        return (
            self.feature_records() == other.feature_records()
            and self.profile == other.profile
        )

    def __repr__(self) -> str:
        return (
            f"ExtractionResult(feature_count={self.feature_count}, "
            f"profile={self.profile!r})"
        )

    def descriptor_matrix(self) -> np.ndarray:
        """Return all descriptors stacked as an ``(N, 32)`` uint8 matrix."""
        if self._arrays is not None:
            return self._arrays.descriptors
        if self._descriptors is None:
            if not self.features:
                self._descriptors = np.zeros((0, 32), dtype=np.uint8)
            else:
                self._descriptors = np.stack([f.descriptor for f in self.features])
        return self._descriptors

    def keypoint_array(self) -> np.ndarray:
        """Return level-0 keypoint coordinates as an ``(N, 2)`` float array."""
        if self._keypoints_xy is None:
            if self._arrays is not None:
                self._keypoints_xy = np.column_stack(
                    (self._arrays.x0, self._arrays.y0)
                )
            elif not self.features:
                self._keypoints_xy = np.zeros((0, 2), dtype=np.float64)
            else:
                self._keypoints_xy = np.array(
                    [[f.x0, f.y0] for f in self.features], dtype=np.float64
                )
        return self._keypoints_xy

    def score_array(self) -> np.ndarray:
        """Harris scores of the retained features, ``(N,)`` float64."""
        if self._arrays is not None:
            return self._arrays.scores
        if self._scores is None:
            self._scores = np.array([f.score for f in self.features], dtype=np.float64)
        return self._scores

    def level_array(self) -> np.ndarray:
        """Pyramid level of each retained feature, ``(N,)`` int64."""
        if self._arrays is not None:
            return self._arrays.levels
        if self._levels is None:
            self._levels = np.array(
                [f.keypoint.level for f in self.features], dtype=np.int64
            )
        return self._levels

    def feature_records(self) -> List[tuple]:
        """Hashable per-feature records, in retained order.

        The bit-identity comparison key shared by every parity check in the
        repo — engine/backend parity, hardware-model parity, thread- and
        process-served extraction (``tests/test_serving.py``,
        ``tests/test_cluster.py``) — so the definition of "identical
        features" cannot drift between suites.  Two results are bit-identical
        iff their record lists compare equal.
        """
        return [
            (
                f.keypoint.level,
                f.keypoint.x,
                f.keypoint.y,
                f.score,
                f.keypoint.orientation_bin,
                f.keypoint.orientation_rad,
                f.descriptor.tobytes(),
                f.x0,
                f.y0,
            )
            for f in self.features
        ]


class OrbExtractor:
    """Full software ORB extractor (the functional model of the accelerator).

    Parameters
    ----------
    config:
        Extractor configuration; ``config.use_rs_brief`` selects the
        descriptor strategy, ``config.rescheduled_workflow`` the hardware
        schedule the profile accounts for and ``config.backend`` the
        keypoint compute backend.
    """

    def __init__(self, config: ExtractorConfig | None = None) -> None:
        # imported here (not at module scope) so that repro.features,
        # repro.backends and repro.frontend can be imported in any order
        # without a cycle
        from ..backends import create_backend
        from ..frontend import create_engine

        self.config = config or ExtractorConfig()
        self.backend = create_backend(self.config.backend, self.config)
        self.frontend = create_engine(self.config.frontend, self.config)
        self.descriptor_engine: DescriptorEngine = self.backend.descriptor_engine
        self._min_level_size = minimum_level_size(self.config)
        self._border = max(
            self.config.fast.border,
            self.descriptor_engine.patch_radius() + 1,
            self.config.descriptor.patch_radius + 1,
        )

    # -- public API -------------------------------------------------------
    def extract(
        self, image: GrayImage, frame_id: int | None = None
    ) -> ExtractionResult:
        """Extract up to ``config.max_features`` ORB features from ``image``.

        ``frame_id`` only labels this frame's trace spans (the serving
        layers pass their trace/journal correlation key); it never changes
        the result.
        """
        tracer = current_tracer()
        with tracer.span("acquire_pyramid", frame=frame_id):
            pyramid = ImagePyramid(
                image, self.config.pyramid, min_level_size=self._min_level_size
            )
        profile = ExtractionProfile(
            workflow="rescheduled" if self.config.rescheduled_workflow else "original"
        )
        profile.pixels_processed = pyramid.total_pixels()
        candidates = []
        for level in pyramid:
            with tracer.span("detect", level=level.level):
                candidates.append(
                    self._detect_level_candidates(level.image, level.level, profile)
                )
        # the heap sees the candidates in streaming order (level by level),
        # so ties keep the earlier candidate exactly as the hardware heap does
        heap: BoundedScoreHeap[int] = BoundedScoreHeap(self.config.max_features)
        with tracer.span("filter"):
            start = 0
            for _, _, scores in candidates:
                heap.offer_batch(scores, range(start, start + scores.size))
                start += scores.size
            ranked = np.array(heap.items_by_score(), dtype=np.int64)
        arrays = self._describe_retained(pyramid, candidates, ranked)
        profile.features_retained = len(arrays)
        if self.config.rescheduled_workflow:
            # the modelled streaming schedule describes every candidate and
            # heap-filters afterwards; software only describes the winners
            profile.descriptors_computed = profile.keypoints_after_nms
            profile.heap_comparisons = heap.stats.comparisons
        else:
            profile.descriptors_computed = len(arrays)
        if tracer.enabled:
            # the engine's workload counters, attached to the timeline so
            # a slow extract span can be explained without a second run
            tracer.instant(
                "profile",
                frame=frame_id,
                keypoints_detected=profile.keypoints_detected,
                descriptors_computed=profile.descriptors_computed,
                features_retained=profile.features_retained,
            )
        return ExtractionResult.from_arrays(arrays, profile)

    # -- per-level candidate detection --------------------------------------
    def _detect_level_candidates(
        self, level_image: GrayImage, level: int, profile: ExtractionProfile
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the detection engine on one pyramid level; return candidate arrays.

        The engine performs the fused FAST + Harris + NMS pass (see
        :mod:`repro.frontend`); this wrapper applies the descriptor-border
        mask and updates the workload profile.  Returns ``(xs, ys, scores)``
        of the NMS survivors that keep a full descriptor border inside the
        level, filtered by array masking (no per-survivor Python loop).
        """
        xs, ys, scores, corners_detected = self.frontend.detect_with_count(level_image)
        profile.keypoints_detected += corners_detected
        inside = within_border(xs, ys, level_image.shape, self._border)
        xs, ys, scores = xs[inside], ys[inside], scores[inside]
        profile.keypoints_after_nms += int(xs.size)
        profile.per_level_keypoints.append(int(xs.size))
        return xs, ys, scores

    # -- description of the retained set ------------------------------------
    def _describe_retained(
        self,
        pyramid: ImagePyramid,
        candidates: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        ranked: np.ndarray,
    ) -> FeatureArrays:
        """Describe the heap's winners, one batch per level, in rank order.

        ``ranked`` holds the retained candidates' indices into the
        level-ordered concatenation of ``candidates``, best score first.  A
        level is smoothed only when it holds a winner, and its smoothed image
        is dropped before the next level's is built.
        """
        tracer = current_tracer()
        sizes = [scores.size for _, _, scores in candidates]
        starts = np.cumsum([0] + sizes[:-1])
        level_of = np.repeat(np.arange(len(sizes)), sizes)[ranked]
        arrays = FeatureArrays.empty(self.config.descriptor.num_bytes, count=ranked.size)
        described = np.zeros(ranked.size, dtype=bool)
        for level in pyramid:
            ranks = np.flatnonzero(level_of == level.level)
            if ranks.size == 0:
                continue
            xs, ys, scores = candidates[level.level]
            local = ranked[ranks] - starts[level.level]
            with tracer.span("smooth", level=level.level):
                smoothed = self.frontend.smooth(level.image)
            with tracer.span("describe", level=level.level):
                batch = self.backend.describe(
                    smoothed, xs[local], ys[local], scores[local]
                )
            rows = ranks[batch.kept]
            arrays.descriptors[rows] = batch.descriptors
            arrays.levels[rows] = level.level
            arrays.xs[rows] = batch.xs
            arrays.ys[rows] = batch.ys
            arrays.scores[rows] = batch.scores
            arrays.orientation_bins[rows] = batch.orientation_bins
            arrays.orientation_rads[rows] = batch.orientation_rads
            arrays.x0[rows] = batch.xs * level.scale
            arrays.y0[rows] = batch.ys * level.scale
            described[rows] = True
        # a backend may drop a candidate whose patch does not fit (``kept``)
        return arrays if described.all() else arrays.take(np.flatnonzero(described))


def extract_features(image: GrayImage, config: ExtractorConfig | None = None) -> ExtractionResult:
    """Convenience one-shot feature extraction with a fresh extractor."""
    return OrbExtractor(config).extract(image)
