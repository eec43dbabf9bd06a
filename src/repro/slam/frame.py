"""Frame representation used by the SLAM front-end."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import TrackingError
from ..features import ExtractionResult, Feature
from ..geometry import PinholeCamera, Pose
from ..image import GrayImage


@dataclass
class Frame:
    """One RGB-D frame moving through the SLAM pipeline.

    A frame starts as raw sensor data (grayscale image + depth map) and is
    progressively annotated with extracted features, its estimated pose and
    its key-frame status.
    """

    index: int
    timestamp: float
    image: GrayImage
    depth: np.ndarray
    camera: PinholeCamera
    extraction: Optional[ExtractionResult] = None
    pose: Optional[Pose] = None  # world-to-camera, set by the tracker
    is_keyframe: bool = False
    # materialised lazily from ``extraction`` — the tracking hot path only
    # touches the dense arrays, so an arrays-first extraction result (the
    # cluster's packed result transport) never builds Feature objects here
    _features: Optional[List[Feature]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        depth = np.asarray(self.depth, dtype=np.float64)
        if depth.shape != self.image.shape:
            raise TrackingError(
                f"depth shape {depth.shape} does not match image shape {self.image.shape}"
            )
        self.depth = depth

    # -- feature helpers -------------------------------------------------
    # The matrix/array accessors below are the SLAM hot path: they hand the
    # extraction result's cached arrays straight to matching / RANSAC / map
    # updating instead of rebuilding them from per-feature objects each call.
    def set_features(self, extraction: ExtractionResult) -> None:
        """Attach the result of ORB extraction to this frame."""
        self.extraction = extraction
        self._features = None

    @property
    def features(self) -> List[Feature]:
        """Per-feature objects, materialised on first access."""
        if self._features is None:
            self._features = (
                list(self.extraction.features) if self.extraction is not None else []
            )
        return self._features

    @property
    def feature_count(self) -> int:
        """Number of features, without materialising Feature objects."""
        if self._features is not None:
            return len(self._features)
        return self.extraction.feature_count if self.extraction is not None else 0

    def _extraction_arrays_current(self) -> bool:
        """True while the extraction's arrays still describe ``features``."""
        return self.extraction is not None and (
            self._features is None
            or len(self._features) == self.extraction.feature_count
        )

    def descriptor_matrix(self) -> np.ndarray:
        """Stack feature descriptors as an ``(N, 32)`` uint8 matrix."""
        if self._extraction_arrays_current():
            return self.extraction.descriptor_matrix()
        if not self.features:
            return np.zeros((0, 32), dtype=np.uint8)
        return np.stack([f.descriptor for f in self.features])

    def keypoint_pixels(self) -> np.ndarray:
        """Level-0 pixel coordinates of all features, ``(N, 2)``."""
        if self._extraction_arrays_current():
            return self.extraction.keypoint_array()
        if not self.features:
            return np.zeros((0, 2), dtype=np.float64)
        return np.array([[f.x0, f.y0] for f in self.features], dtype=np.float64)

    def feature_depth(self, feature_index: int) -> float:
        """Depth (metres) at the feature's level-0 pixel, 0 if invalid."""
        pixels = self.keypoint_pixels()
        if not 0 <= feature_index < pixels.shape[0]:
            raise TrackingError(f"feature index {feature_index} out of range")
        x, y = (int(round(float(value))) for value in pixels[feature_index])
        if not (0 <= y < self.depth.shape[0] and 0 <= x < self.depth.shape[1]):
            return 0.0
        return float(self.depth[y, x])

    def feature_depths(self) -> np.ndarray:
        """Depths for all features (``0`` marks invalid depth), vectorised."""
        pixels = self.keypoint_pixels()
        if pixels.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        xs = np.rint(pixels[:, 0]).astype(np.int64)
        ys = np.rint(pixels[:, 1]).astype(np.int64)
        height, width = self.depth.shape
        valid = (xs >= 0) & (xs < width) & (ys >= 0) & (ys < height)
        depths = np.zeros(pixels.shape[0], dtype=np.float64)
        depths[valid] = self.depth[ys[valid], xs[valid]]
        return depths

    # -- geometry helpers --------------------------------------------------
    def back_project_feature(self, feature_index: int) -> Optional[np.ndarray]:
        """World-frame 3-D point of a feature using its depth and frame pose.

        Returns ``None`` when the feature has no valid depth.  Requires the
        frame pose to be set.
        """
        if self.pose is None:
            raise TrackingError("frame pose must be estimated before back-projection")
        depth = self.feature_depth(feature_index)
        if depth <= 0:
            return None
        x0, y0 = (float(value) for value in self.keypoint_pixels()[feature_index])
        point_cam = self.camera.back_project(x0, y0, depth)
        return self.pose.inverse().transform(point_cam)
