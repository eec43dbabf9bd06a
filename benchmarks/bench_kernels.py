"""Micro-benchmarks of the software kernels underlying the pipeline.

These are not paper tables; they characterise the Python substrate itself
(FAST detection, descriptor computation, Hamming matching, rendering) so that
regressions in the functional code are caught and the runtime models'
workload counters can be sanity-checked against real operation counts.
"""

import numpy as np
import pytest

from repro.config import ExtractorConfig, PyramidConfig
from repro.features import OrbExtractor, fast_corner_mask, harris_response_map
from repro.geometry import PinholeCamera, Pose
from repro.dataset import wall_scene
from repro.frontend import create_engine
from repro.image import random_blocks
from repro.matching import hamming_distance_matrix

from conftest import best_of, print_section


@pytest.mark.parametrize("shape", [(240, 320), (480, 640)], ids=["320x240", "640x480"])
def test_kernel_fast_detection(benchmark, shape):
    """The default engine's detect pass, timed beside the dense reference mask."""
    height, width = shape
    image = random_blocks(height, width, block=12, seed=4)
    config = ExtractorConfig(image_width=width, image_height=height)
    engine = create_engine("vectorized", config)
    _, _, _, corners = benchmark(engine.detect_with_count, image)
    mask = fast_corner_mask(image, config.fast)
    engine_ms = best_of(lambda: engine.detect_with_count(image)) * 1e3
    reference_ms = best_of(lambda: fast_corner_mask(image, config.fast)) * 1e3
    print_section(f"Kernel: FAST detection ({width}x{height})")
    print(f"  vectorized detect_with_count: {engine_ms:7.1f} ms, "
          f"{corners} FAST corners (before NMS)")
    print(f"  reference fast_corner_mask:   {reference_ms:7.1f} ms, "
          f"{int(mask.sum())} FAST corners")
    assert corners == int(mask.sum())
    assert mask.sum() > 100


def test_kernel_harris_response(benchmark, small_image):
    response = benchmark(harris_response_map, small_image)
    assert response.shape == small_image.shape


@pytest.mark.parametrize(
    "shape, config",
    [
        pytest.param(
            (240, 320),
            ExtractorConfig(
                image_width=320,
                image_height=240,
                pyramid=PyramidConfig(num_levels=2),
                max_features=500,
            ),
            id="320x240-2-levels",
        ),
        pytest.param((480, 640), ExtractorConfig(), id="640x480-default"),
    ],
)
def test_kernel_full_extraction(benchmark, shape, config):
    image = random_blocks(*shape, block=12, seed=4)
    extractor = OrbExtractor(config)
    described = []
    describe = extractor.backend.describe

    def counting_describe(smoothed, xs, ys, scores):
        described.append(len(xs))
        return describe(smoothed, xs, ys, scores)

    extractor.backend.describe = counting_describe
    result = benchmark.pedantic(extractor.extract, args=(image,), rounds=2, iterations=1)
    described.clear()
    extractor.extract(image)
    height, width = shape
    print_section(
        f"Kernel: full ORB extraction ({width}x{height}, "
        f"{config.pyramid.num_levels} levels)"
    )
    # software describes only the retained set; the profile reports the
    # modelled hardware schedule (all post-NMS candidates when rescheduled)
    print(f"  features: {len(result.features)}, described in software: "
          f"{sum(described)}, modelled descriptors_computed: "
          f"{result.profile.descriptors_computed}")
    assert len(result.features) > 100


@pytest.mark.parametrize(
    "num_frame, num_map",
    [
        pytest.param(512, 1024, id="512x1024"),
        # the map size at the end of a 20-frame fr1/desk QVGA tracking session
        pytest.param(1024, 3320, id="1024x3320"),
    ],
)
def test_kernel_hamming_matrix(benchmark, num_frame, num_map):
    rng = np.random.default_rng(0)
    frame = rng.integers(0, 256, (num_frame, 32), dtype=np.uint8)
    global_map = rng.integers(0, 256, (num_map, 32), dtype=np.uint8)
    matrix = benchmark(hamming_distance_matrix, frame, global_map)
    print_section(f"Kernel: Hamming distance matrix ({num_frame} x {num_map} descriptors)")
    print(f"  mean distance: {matrix.mean():.1f} bits (random descriptors -> ~128)")
    if benchmark.stats:  # None under --benchmark-disable
        print(f"  {benchmark.stats.stats.mean / matrix.size * 1e9:.2f} ns per evaluation")
    assert matrix.shape == (num_frame, num_map)
    assert 120 < matrix.mean() < 136


def test_kernel_scene_rendering(benchmark):
    scene = wall_scene()
    camera = PinholeCamera.tum_freiburg1().scaled(0.5)
    view = benchmark(scene.render, camera, Pose.identity())
    print_section("Kernel: ray-plane rendering (320x240)")
    print(f"  valid depth fraction: {view.valid_mask().mean():.2f}")
    assert view.valid_mask().all()
