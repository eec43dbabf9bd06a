"""Image Resizing module.

The Image Resizing module generates the image pyramid layer by layer using
nearest-neighbour downsampling: while the ORB Extractor processes layer
``k``, the resizer reads the same layer and produces layer ``k+1`` (Section
3).  Because the resizer output for level ``k+1`` is always much smaller than
the extractor's level-``k`` workload, its work is completely hidden behind
the extractor in the pipeline; the model still exposes its raw cycle count so
the overlap claim can be verified rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import AcceleratorConfig, PyramidConfig
from ..errors import HardwareModelError
from ..image import (
    GrayImage,
    ImagePyramid,
    nearest_neighbor_resize,
    pyramid_level_shapes,
    resize_dimensions,
)
from .cycles import CycleBreakdown


@dataclass
class ResizerReport:
    """Per-level cycle cost of pyramid generation."""

    per_level_cycles: List[float]
    clock_hz: float

    @property
    def total_cycles(self) -> float:
        return float(sum(self.per_level_cycles))

    @property
    def latency_ms(self) -> float:
        return self.total_cycles / self.clock_hz * 1e3


class ImageResizerModule:
    """Nearest-neighbour downsampler producing pyramid levels.

    Functionally identical to :func:`repro.image.nearest_neighbor_resize`;
    the cycle cost of producing one level is one cycle per *output* pixel
    (each output pixel is a single read-modify-write of the line buffer).
    """

    def __init__(
        self,
        pyramid_config: PyramidConfig | None = None,
        accel_config: AcceleratorConfig | None = None,
    ) -> None:
        self.pyramid_config = pyramid_config or PyramidConfig()
        self.accel_config = accel_config or AcceleratorConfig()

    def resize(self, image: GrayImage) -> GrayImage:
        """Produce the next pyramid level from ``image``."""
        return nearest_neighbor_resize(image, self.pyramid_config.scale_factor)

    def output_shape(self, image: GrayImage) -> tuple[int, int]:
        """Shape of the next level, from the shared rounding rule.

        Delegates to :func:`repro.image.resize_dimensions` — the same
        arithmetic the software pyramid uses — so the hardware
        model and the software levels cannot drift.
        """
        return resize_dimensions(image.height, image.width, self.pyramid_config.scale_factor)

    def build_pyramid(self, image: GrayImage) -> tuple[ImagePyramid, ResizerReport]:
        """Build the full pyramid and report per-level resizer cycles.

        The cycle cost is one cycle per output pixel, so the per-level
        counts come straight from :func:`repro.image.pyramid_level_shapes`
        (shared with the software pyramid) rather than a second private
        size computation.
        """
        pyramid = ImagePyramid(image, self.pyramid_config)
        shapes = pyramid_level_shapes(image.height, image.width, self.pyramid_config)
        per_level = [0.0]  # level 0 is the input image, no resizing cost
        per_level.extend(float(height * width) for height, width in shapes[1:])
        return pyramid, ResizerReport(per_level, self.accel_config.clock_hz)

    def overlap_check(self, image: GrayImage) -> bool:
        """Verify the resizer always finishes before the extractor needs its output.

        Producing level ``k+1`` takes ``pixels(k+1)`` cycles while the
        extractor spends at least ``pixels(k)`` cycles on level ``k``; since
        the scale factor is > 1 the resizer is always faster, so pyramid
        generation never stalls the extractor.  Returns True when that holds
        for every level of the given image.
        """
        pyramid, report = self.build_pyramid(image)
        for level_index in range(1, pyramid.num_levels):
            extractor_budget = pyramid.level(level_index - 1).image.num_pixels
            if report.per_level_cycles[level_index] > extractor_budget:
                return False
        return True

    def cycle_breakdown(self, image: GrayImage) -> CycleBreakdown:
        """Cycle breakdown of pyramid generation (informational; overlapped)."""
        _, report = self.build_pyramid(image)
        breakdown = CycleBreakdown()
        for level_index, cycles in enumerate(report.per_level_cycles):
            breakdown.add(f"resize.level{level_index}", cycles)
        return breakdown


def validate_resizer_functional(image: GrayImage, config: PyramidConfig | None = None) -> bool:
    """Check that module output equals the software pyramid at every level."""
    cfg = config or PyramidConfig()
    module = ImageResizerModule(cfg)
    software = ImagePyramid(image, cfg)
    current = image
    for level_index in range(1, cfg.num_levels):
        current = module.resize(current)
        if not (current == software.level(level_index).image):
            return False
    if cfg.num_levels < 1:
        raise HardwareModelError("pyramid must have at least one level")
    return True
