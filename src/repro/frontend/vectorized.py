"""The fused vectorised detection engine (default).

One pass per pyramid level with no full-image temporaries beyond a handful
of reused scratch buffers:

1. **FAST**: one dense uint8 pass.  The 16 Bresenham-ring comparisons run
   on padded-slice views of the image (no ``np.roll`` copies) against
   saturated uint8 thresholds, are shifted into two uint16 bitmasks
   (brighter/darker), and the contiguous-arc test is resolved by one gather
   from the precomputed 65536-entry
   :func:`~repro.features.fast.segment_arc_lut` — exactly the combinational
   7x7-window check the hardware FAST Detection module performs.
2. **Harris**: responses are computed **sparsely** — integer Sobel products
   row-prefix summed into horizontal window sums over the level, then the
   vertical window sum gathered only at the FAST corners with one flat read
   per window row (:func:`~repro.features.harris.harris_scores_sparse`) —
   instead of scoring every pixel of the level.
3. **NMS**: sparse, loop-free suppression with one flat gather per window
   offset and vectorised raster-order tie-breaking
   (:func:`~repro.features.nms.suppress_keypoints_sparse`).
4. **Smoothing**: the separable 7x7 Gaussian runs on slice views of one
   edge-padded scratch buffer (no per-tap ``np.roll`` copies).

Every step lands on bit-identical results to the per-stage ``reference``
engine (asserted by ``tests/test_frontend_parity.py``); see the individual
helpers for the exactness arguments.  Scratch buffers are per-thread
(``threading.local``), so one engine instance can serve many frames in
flight (:class:`repro.serving.FrameServer`).
"""

from __future__ import annotations

import threading
from typing import Tuple

import numpy as np

from ..features.fast import FAST_CIRCLE_OFFSETS, fast_corner_mask, segment_arc_lut
from ..features.harris import harris_scores_sparse
from ..features.nms import suppress_keypoints_sparse
from ..image import GrayImage
from ..image.filters import (
    GAUSSIAN_BLUR_SIGMA,
    GAUSSIAN_BLUR_SIZE,
    gaussian_kernel_1d,
)
from ..image.scratch import Workspace, edge_pad_into, workspace_array
from .base import DetectionEngine, register_engine


@register_engine("vectorized")
class VectorizedEngine(DetectionEngine):
    """Fused FAST + sparse Harris + sparse NMS + slice-view smoothing."""

    def __init__(self, config) -> None:
        super().__init__(config)
        self._arc_lut = segment_arc_lut(config.fast.arc_length)
        self._kernel = gaussian_kernel_1d(GAUSSIAN_BLUR_SIZE, GAUSSIAN_BLUR_SIGMA)
        self._local = threading.local()

    def _workspace(self) -> Workspace:
        """Per-thread scratch buffers (the engine is shared across frames)."""
        workspace = getattr(self._local, "workspace", None)
        if workspace is None:
            workspace = self._local.workspace = {}
        return workspace

    # -- detection ---------------------------------------------------------
    def detect_with_count(
        self, level_image: GrayImage
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        workspace = self._workspace()
        xs, ys = self._fast_corners(level_image, workspace)
        if xs.size == 0:
            return xs, ys, np.zeros(0, dtype=np.float64), 0
        scores = harris_scores_sparse(level_image, xs, ys, workspace=workspace)
        keep = suppress_keypoints_sparse(
            xs, ys, scores, level_image.shape, radius=1, workspace=workspace
        )
        return xs[keep], ys[keep], scores[keep], int(xs.size)

    def _fast_corners(
        self, image: GrayImage, workspace: Workspace
    ) -> Tuple[np.ndarray, np.ndarray]:
        """FAST corners inside the border box, raster order, via the arc LUT.

        One dense uint8 pass: the thresholds saturate to uint8 as
        ``min(c, 255 - t) + t`` and ``max(c, t) - t``, which is exact because
        a uint8 ring value can never exceed a saturated 255 or undercut a
        saturated 0 (the reference compares in int16 without saturating).
        Each ring comparison is shifted into bit ``i`` of a uint16
        brighter/darker mask, and :func:`segment_arc_lut` resolves both.
        """
        cfg = self.config.fast
        height, width = image.shape
        border = cfg.border
        if height < 2 * border + 1 or width < 2 * border + 1:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        if border < 3:
            # the rolled reference lets ring comparisons wrap around inside a
            # <3px border; keep those exact semantics via the dense path
            ys, xs = np.nonzero(fast_corner_mask(image, cfg))
            return xs.astype(np.int64), ys.astype(np.int64)
        pixels = image.pixels
        inner = (height - 2 * border, width - 2 * border)
        centre = pixels[border : height - border, border : width - border]
        threshold = np.uint8(cfg.threshold)
        high = workspace_array(workspace, "fast_high", inner, np.uint8)
        low = workspace_array(workspace, "fast_low", inner, np.uint8)
        np.minimum(centre, np.uint8(255 - cfg.threshold), out=high)
        high += threshold
        np.maximum(centre, threshold, out=low)
        low -= threshold
        flags = workspace_array(workspace, "fast_flags", inner, bool)
        bits = flags.view(np.uint8)
        shifted = workspace_array(workspace, "fast_shifted", inner, np.uint16)
        brighter = workspace_array(workspace, "fast_brighter", inner, np.uint16)
        darker = workspace_array(workspace, "fast_darker", inner, np.uint16)
        brighter[:] = 0
        darker[:] = 0
        for index, (dx, dy) in enumerate(FAST_CIRCLE_OFFSETS):
            ring = pixels[
                border + dy : height - border + dy, border + dx : width - border + dx
            ]
            shift = np.uint16(index)
            np.greater(ring, high, out=flags)
            np.left_shift(bits, shift, out=shifted)
            brighter |= shifted
            np.less(ring, low, out=flags)
            np.left_shift(bits, shift, out=shifted)
            darker |= shifted
        corners = workspace_array(workspace, "fast_corners", inner, bool)
        np.take(self._arc_lut, brighter, out=corners)
        np.take(self._arc_lut, darker, out=flags)
        corners |= flags
        ys, xs = np.nonzero(corners)
        return xs + border, ys + border

    # -- smoothing ---------------------------------------------------------
    def smooth(self, level_image: GrayImage) -> GrayImage:
        """Separable Gaussian on slice views; bit-identical to gaussian_blur.

        The reference accumulates ``sum_k w_k * np.roll(padded, half-k)`` in
        ascending tap order; the slice views here address the same elements,
        so every float64 multiply-add happens on the same operands in the
        same order and the rounded uint8 output cannot differ.
        """
        workspace = self._workspace()
        kernel = self._kernel
        half = kernel.size // 2
        height, width = level_image.shape
        padded = workspace_array(
            workspace, "smooth_padded", (height + 2 * half, width + 2 * half), np.float64
        )
        edge_pad_into(level_image.pixels, half, padded)
        horizontal = workspace_array(
            workspace, "smooth_horizontal", (height + 2 * half, width), np.float64
        )
        tap = workspace_array(
            workspace, "smooth_tap", (height + 2 * half, width), np.float64
        )
        np.multiply(padded[:, 0:width], kernel[0], out=horizontal)
        for offset in range(1, kernel.size):
            np.multiply(padded[:, offset : offset + width], kernel[offset], out=tap)
            horizontal += tap
        output = workspace_array(workspace, "smooth_output", (height, width), np.float64)
        np.multiply(horizontal[0:height, :], kernel[0], out=output)
        tap_rows = tap[0:height, :]
        for offset in range(1, kernel.size):
            np.multiply(horizontal[offset : offset + height, :], kernel[offset], out=tap_rows)
            output += tap_rows
        np.rint(output, out=output)
        return GrayImage(np.clip(output, 0, 255).astype(np.uint8))
