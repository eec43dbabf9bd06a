"""Shared fixtures for the test suite.

Heavyweight objects (rendered sequences, extraction results) are produced at
reduced resolution and cached at session scope so the whole suite stays fast
while still exercising the real code paths end to end.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import numpy as np
import pytest

from repro.config import (
    ExtractorConfig,
    FastConfig,
    PyramidConfig,
    SlamConfig,
    TrackerConfig,
)
from repro.dataset import SequenceSpec, make_sequence
from repro.features import OrbExtractor
from repro.geometry import PinholeCamera, Pose, so3_exp
from repro.image import GrayImage, random_blocks


# ---------------------------------------------------------------------------
# per-test deadline: a hang fails the run with every thread's stack
# ---------------------------------------------------------------------------
#: Duplicate of the real stderr, taken while pytest's output capture is
#: suspended; a stack dump written to the captured stream would be lost
#: when the deadline exits the process.
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    fd = config.stash.get(_STDERR_FD, None)
    if fd is not None:
        os.close(fd)


@pytest.fixture(autouse=True)
def _test_deadline(request):
    """Dump all stacks and exit if one test outlives ``faulthandler_timeout``.

    pytest's own ``faulthandler_timeout`` only dumps stacks; this fixture
    re-arms the same single faulthandler timer with ``exit=True`` for the
    test body, so a hung test fails the run instead of stalling it.
    """
    timeout_s = float(request.config.getini("faulthandler_timeout") or 0.0)
    if timeout_s <= 0.0:
        yield
        return
    faulthandler.dump_traceback_later(
        timeout_s, exit=True, file=request.config.stash[_STDERR_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def blocks_image() -> GrayImage:
    """A 120x160 blocky random texture with plenty of FAST corners."""
    return random_blocks(120, 160, block=10, seed=1)


@pytest.fixture(scope="session")
def large_blocks_image() -> GrayImage:
    """A 240x320 blocky texture for pyramid / extractor tests."""
    return random_blocks(240, 320, block=12, seed=2)


@pytest.fixture(scope="session")
def flat_image() -> GrayImage:
    """A constant image: no corners anywhere."""
    return GrayImage.full(64, 64, 128)


# ---------------------------------------------------------------------------
# extractor configurations and results
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def small_extractor_config() -> ExtractorConfig:
    """Extractor configuration sized for the 120x160 test image."""
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        fast=FastConfig(threshold=20),
        max_features=200,
    )


@pytest.fixture(scope="session")
def extraction_result(blocks_image, small_extractor_config):
    """Features extracted once from the blocks image (reused by many tests)."""
    return OrbExtractor(small_extractor_config).extract(blocks_image)


# ---------------------------------------------------------------------------
# cameras and poses
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def camera() -> PinholeCamera:
    return PinholeCamera.tum_freiburg1()


@pytest.fixture(scope="session")
def small_camera() -> PinholeCamera:
    """TUM fr1 intrinsics scaled to 160x120."""
    return PinholeCamera.tum_freiburg1().scaled(0.25)


@pytest.fixture()
def example_pose() -> Pose:
    return Pose(so3_exp(np.array([0.05, -0.02, 0.1])), np.array([0.1, -0.2, 0.05]))


# ---------------------------------------------------------------------------
# sequences and SLAM configurations
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def tiny_sequence():
    """A 5-frame fr1/xyz-style sequence at 160x120 (fast enough for CI)."""
    return make_sequence(
        SequenceSpec(name="fr1/xyz", num_frames=5, image_width=160, image_height=120)
    )


@pytest.fixture(scope="session")
def tiny_slam_config() -> SlamConfig:
    return SlamConfig(
        extractor=ExtractorConfig(
            image_width=160,
            image_height=120,
            pyramid=PyramidConfig(num_levels=2),
            max_features=250,
        ),
        tracker=TrackerConfig(ransac_iterations=48, pose_iterations=8),
    )


@pytest.fixture(scope="session")
def tiny_slam_result(tiny_sequence, tiny_slam_config):
    """A full SLAM run over the tiny sequence, shared across tests."""
    from repro.slam import run_slam

    return run_slam(tiny_sequence, tiny_slam_config)
