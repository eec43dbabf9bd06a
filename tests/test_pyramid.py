"""Pyramid input validation at the extractor boundary.

The extractor builds each frame's pyramid up front; these tests pin down
that bad inputs (wrong dtype, wrong type, images too small for the
deepest level's patch/border window) fail with a clear error there
instead of with shape errors deep inside the engines.
"""

import numpy as np
import pytest

from repro.config import ExtractorConfig, PyramidConfig
from repro.errors import ImageError, ReproError
from repro.features import OrbExtractor
from repro.image import (
    GrayImage,
    ImagePyramid,
    minimum_level_size,
    pyramid_level_shapes,
)


@pytest.fixture(scope="module")
def pyramid_config():
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=3),
        max_features=150,
    )


class TestPyramidInputValidation:
    def test_rejects_non_uint8_array(self):
        with pytest.raises(ImageError, match="uint8"):
            ImagePyramid(np.zeros((64, 64), dtype=np.float64))

    def test_accepts_uint8_array(self):
        pyramid = ImagePyramid(np.full((64, 64), 9, dtype=np.uint8))
        assert pyramid.level(0).image.shape == (64, 64)

    def test_rejects_non_image_types(self):
        with pytest.raises(ImageError, match="GrayImage"):
            ImagePyramid([[1, 2], [3, 4]])

    def test_extractor_rejects_too_small_image(self, pyramid_config):
        tiny = GrayImage(np.zeros((40, 40), dtype=np.uint8))
        with pytest.raises(ReproError, match="deepest"):
            OrbExtractor(pyramid_config).extract(tiny, frame_id=0)

    def test_minimum_level_size_covers_patch_and_border(self, pyramid_config):
        window = minimum_level_size(pyramid_config)
        assert window == 2 * pyramid_config.fast.border + 1
        deepest = pyramid_level_shapes(120, 160, pyramid_config.pyramid)[-1]
        assert min(deepest) >= window  # the test workload itself is legal
