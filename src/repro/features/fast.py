"""FAST segment-test keypoint detection.

FAST (Features from Accelerated Segment Test) declares a pixel ``p`` a corner
if at least ``arc_length`` contiguous pixels on a Bresenham circle of radius 3
around ``p`` are all brighter than ``I(p) + t`` or all darker than
``I(p) - t``.  The paper uses the standard FAST-9/16 variant inside the FAST
Detection module, operating on a 7x7 pixel window streamed from the Image
Cache.

The implementation is vectorised over the whole image so the software
pipeline stays fast enough to run full synthetic sequences in the test suite;
the hardware model in :mod:`repro.hw.orb_extractor.fast_detector` reuses the
same circle offsets for its per-window functional check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ..config import FastConfig
from ..errors import FeatureError
from ..image import GrayImage

#: Bresenham circle of radius 3: 16 (dx, dy) offsets in clockwise order
#: starting from the top, exactly the layout used by the original FAST paper
#: and by the 7x7 hardware window.
FAST_CIRCLE_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (0, -3), (1, -3), (2, -2), (3, -1),
    (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1),
    (-3, 0), (-3, -1), (-2, -2), (-1, -3),
)


def _circular_arc_mask(flags: np.ndarray, arc_length: int) -> np.ndarray:
    """Return a boolean map of pixels with >= ``arc_length`` contiguous True flags.

    ``flags`` has shape ``(16, H, W)`` where axis 0 indexes the circle
    positions.  Wrap-around arcs are handled by tiling the circle twice.
    """
    doubled = np.concatenate([flags, flags[: arc_length - 1]], axis=0).astype(np.int16)
    # run[i] = number of consecutive True ending at position i
    run = np.zeros_like(doubled)
    run[0] = doubled[0]
    for i in range(1, doubled.shape[0]):
        run[i] = doubled[i] * (run[i - 1] + 1)
    return (run >= arc_length).any(axis=0)


@lru_cache(maxsize=None)
def segment_arc_lut(arc_length: int) -> np.ndarray:
    """Lookup table resolving the segment test for every 16-bit ring bitmask.

    Entry ``m`` is True when the 16 flag bits of ``m`` (bit ``i`` = circle
    position ``i``, the :data:`FAST_CIRCLE_OFFSETS` order) contain a
    wrap-around run of at least ``arc_length`` set bits — the same
    computation :func:`_circular_arc_mask` performs per pixel, precomputed
    once for all 65536 masks.  This is exactly the combinational
    contiguous-arc check the hardware FAST Detection module evaluates on its
    7x7 window.  The returned array is cached and read-only.
    """
    if not 1 <= arc_length <= 16:
        raise FeatureError("arc_length must be in [1, 16]")
    masks = np.arange(1 << 16, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(16, dtype=np.uint32)) & 1).astype(np.int32)
    doubled = np.concatenate([bits, bits[:, : arc_length - 1]], axis=1)
    run = np.zeros(masks.size, dtype=np.int32)
    has_arc = np.zeros(masks.size, dtype=bool)
    for position in range(doubled.shape[1]):
        run = doubled[:, position] * (run + 1)
        has_arc |= run >= arc_length
    has_arc.setflags(write=False)
    return has_arc


def fast_corner_mask(image: GrayImage, config: FastConfig | None = None) -> np.ndarray:
    """Return a boolean mask of FAST corner responses for the whole image.

    Pixels closer than ``config.border`` to any image edge are never corners,
    matching the hardware which only evaluates windows fully inside the image
    (and leaves a margin wide enough for the descriptor patch).
    """
    cfg = config or FastConfig()
    h, w = image.shape
    if h < 2 * cfg.border + 1 or w < 2 * cfg.border + 1:
        return np.zeros((h, w), dtype=bool)
    pixels = image.pixels.astype(np.int16)
    center = pixels
    brighter = np.zeros((16, h, w), dtype=bool)
    darker = np.zeros((16, h, w), dtype=bool)
    for idx, (dx, dy) in enumerate(FAST_CIRCLE_OFFSETS):
        shifted = np.roll(np.roll(pixels, -dy, axis=0), -dx, axis=1)
        brighter[idx] = shifted > center + cfg.threshold
        darker[idx] = shifted < center - cfg.threshold
    corner = _circular_arc_mask(brighter, cfg.arc_length) | _circular_arc_mask(
        darker, cfg.arc_length
    )
    # mask out the border where the rolled comparisons wrap around
    valid = np.zeros((h, w), dtype=bool)
    b = cfg.border
    valid[b : h - b, b : w - b] = True
    return corner & valid


def is_fast_corner(image: GrayImage, x: int, y: int, config: FastConfig | None = None) -> bool:
    """Scalar segment test for a single pixel (reference implementation).

    This mirrors exactly what the hardware FAST Detection module computes for
    one 7x7 window; it is used by unit tests to cross-check the vectorised
    :func:`fast_corner_mask`.
    """
    cfg = config or FastConfig()
    if not image.contains(x, y, border=3):
        return False
    center = image.intensity(x, y)
    ring = [image.intensity(x + dx, y + dy) for dx, dy in FAST_CIRCLE_OFFSETS]
    brighter = [v > center + cfg.threshold for v in ring]
    darker = [v < center - cfg.threshold for v in ring]

    def has_arc(flags: List[bool]) -> bool:
        doubled = flags + flags[: cfg.arc_length - 1]
        run = 0
        for flag in doubled:
            run = run + 1 if flag else 0
            if run >= cfg.arc_length:
                return True
        return False

    return has_arc(brighter) or has_arc(darker)


def detect_fast_keypoints_arrays(
    image: GrayImage, config: FastConfig | None = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(xs, ys)`` int64 arrays of all FAST corners in raster order.

    Raster (row-major) order matches the streaming order in which the
    hardware detects keypoints, which in turn determines heap insertion
    order in the rescheduled workflow.  This is the array-native entry point
    used on hot paths; :func:`detect_fast_keypoints` wraps it for callers
    that want Python tuples.
    """
    cfg = config or FastConfig()
    if cfg.arc_length > 16:
        raise FeatureError("arc_length cannot exceed the 16-pixel circle")
    mask = fast_corner_mask(image, cfg)
    ys, xs = np.nonzero(mask)
    return xs.astype(np.int64), ys.astype(np.int64)


def detect_fast_keypoints(
    image: GrayImage, config: FastConfig | None = None
) -> List[Tuple[int, int]]:
    """Return ``(x, y)`` coordinates of all FAST corners in raster order.

    Thin list-of-tuples wrapper over :func:`detect_fast_keypoints_arrays`.
    """
    xs, ys = detect_fast_keypoints_arrays(image, config)
    return list(zip(xs.tolist(), ys.tolist()))
