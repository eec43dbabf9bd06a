"""Multi-frame serving: shared-engine extraction with frames in flight.

:class:`FrameServer` runs many frames through ONE detection engine + keypoint
backend pair on a thread pool with a bounded in-flight window; the process
cluster (:mod:`repro.cluster`) scales the same semantics past the GIL.  Both
satisfy the :class:`FrameServing` protocol consumed by
:meth:`repro.slam.SlamSystem.run`.  See ``docs/serving.md``.
"""

from .frame_server import (
    FrameServer,
    FrameServing,
    ServingStats,
    percentile_ms,
    stable_frame_id,
)
from .resultpack import (
    RESULT_PACK_MAGIC,
    max_packed_nbytes,
    pack_into,
    pack_result,
    packed_nbytes,
    unpack_result,
)

__all__ = [
    "FrameServer",
    "FrameServing",
    "RESULT_PACK_MAGIC",
    "ServingStats",
    "max_packed_nbytes",
    "pack_into",
    "pack_result",
    "packed_nbytes",
    "percentile_ms",
    "stable_frame_id",
    "unpack_result",
]
