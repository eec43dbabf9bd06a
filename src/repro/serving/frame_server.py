"""Thread-pooled multi-frame serving through one shared extraction engine.

The paper's accelerator keeps every pipeline stage busy by streaming frames
through fixed hardware; the software twin gets the same effect from a
:class:`FrameServer`: one :class:`~repro.features.OrbExtractor` — and
therefore ONE detection engine (:mod:`repro.frontend`) and ONE keypoint
compute backend (:mod:`repro.backends`) with all their precomputed tables —
serves many frames in flight on a thread pool.  Extraction is a pure
function of the image, numpy releases the GIL inside the array kernels, and
the vectorized engines keep their scratch buffers in thread-local storage,
so concurrent frames scale across cores without any cross-frame state.

A bounded in-flight window (semaphore) applies back-pressure: submitting
more frames than ``max_in_flight`` blocks the producer instead of queueing
unbounded pixel data, mirroring the bounded line-buffer FIFOs of the
hardware front-end.

Results are returned in submission order and are identical to sequential
extraction (asserted by ``tests/test_serving.py``).
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterable, List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..config import ExtractorConfig
from ..errors import JobAttempt, JobFailed, ReproError
from ..features import ExtractionResult, OrbExtractor
from ..image import GrayImage


#: How many recent per-frame latencies the stats keep for the percentile
#: columns.  A bounded window keeps long-lived servers at O(1) memory and
#: O(window) percentile reads while still describing current behaviour;
#: the frame *counters* are never windowed.
LATENCY_WINDOW: int = 4096


def percentile_ms(latencies_s: Iterable[float], q: float) -> float:
    """The ``q``-th percentile of per-frame latencies, in milliseconds.

    One definition shared by the thread server's :class:`ServingStats` and
    the process cluster's :class:`repro.cluster.ClusterStats`, so their
    latency columns are always computed the same way.  Returns 0.0 when no
    frame has completed yet.
    """
    values = np.fromiter(latencies_s, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return 1000.0 * float(np.percentile(values, q))


def stable_frame_id(sequence_name: str, frame_index: int) -> int:
    """Deterministic, collision-resistant frame id for trace and journal rows.

    Two runs over the same sequence — even in different processes or with
    different engines — derive the same id for the same frame, so their
    trace spans and journal rows can be joined frame by frame.  The
    sequence name is folded through CRC-32 into the high bits and the frame
    index occupies the low 32 bits, keeping ids non-negative and inside an
    int64 while separating same-index frames of different sequences.
    """
    if frame_index < 0:
        raise ReproError("frame_index must be non-negative")
    if frame_index >= 1 << 32:
        raise ReproError("frame_index exceeds the 32-bit id field")
    sequence_hash = zlib.crc32(sequence_name.encode("utf-8")) & 0x7FFFFFFF
    return (sequence_hash << 32) | frame_index


@runtime_checkable
class FrameServing(Protocol):
    """What :meth:`repro.slam.SlamSystem.run` needs from a frame server.

    Both the thread :class:`FrameServer` and the process
    :class:`repro.cluster.ClusterServer` satisfy this protocol: a bounded
    in-flight window (``max_in_flight``), a ``submit`` returning a future
    of the extraction result, and the configuration the serving engines
    were built from (``extractor_config``) for compatibility checks.
    """

    max_in_flight: int

    @property
    def extractor_config(self) -> ExtractorConfig: ...

    def submit(
        self, image: GrayImage, frame_id: Optional[int] = None
    ) -> "Future[ExtractionResult]": ...


class ServingStats:
    """Counters accumulated by a :class:`FrameServer` across its lifetime.

    Since the telemetry layer landed this is a **view over a
    :class:`~repro.telemetry.MetricsRegistry`** (``serving_*`` metrics —
    naming scheme in ``docs/observability.md``): the counter/gauge
    attributes read the registry, the latency percentiles read a bounded
    log-bucket histogram (a scrape never snapshots+sorts a deque under the
    lock any more), and every ``as_dict()`` key of the pre-registry
    dataclass is preserved.  ``latencies_s`` — the bounded recent-latency
    deque — is still maintained for callers that consume raw samples.

    Besides the legacy first-submit→last-complete span (which deflates
    across idle gaps between replays), the stats track an
    :class:`~repro.telemetry.ActivityWindow` and report
    ``active_elapsed_s`` / ``active_throughput_fps``: throughput over the
    time the server was actually serving.
    """

    def __init__(self, registry=None, _clock=None) -> None:
        from ..telemetry import ActivityWindow, MetricsRegistry

        self.registry = registry if registry is not None else MetricsRegistry()
        self.latencies_s: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        self._clock = _clock if _clock is not None else time.perf_counter
        self._in_flight_gauge = self.registry.gauge(
            "serving_in_flight", help="frames submitted but not yet completed"
        )
        self._submitted_counter = self.registry.counter(
            "serving_frames_submitted_total", help="frames accepted by submit()"
        )
        self._completed_counter = self.registry.counter(
            "serving_frames_completed_total", help="frames completed (or failed)"
        )
        self._max_in_flight_gauge = self.registry.gauge(
            "serving_max_in_flight", help="high-watermark of the in-flight window"
        )
        self._latency_histogram = self.registry.histogram(
            "serving_latency_s", help="per-frame extraction latency (seconds)"
        )
        self._active_gauge = self.registry.gauge(
            "serving_active_s", help="accumulated active serving time (idle gaps capped)"
        )
        self._window = ActivityWindow(clock=self._clock)
        self._first_submit_s: Optional[float] = None
        self._last_completed_s: Optional[float] = None
        self._lock = threading.Lock()

    # -- registry-backed counters (legacy attribute names) -----------------
    @property
    def frames_submitted(self) -> int:
        return self._submitted_counter.value

    @property
    def frames_completed(self) -> int:
        return self._completed_counter.value

    @property
    def max_in_flight(self) -> int:
        return self._max_in_flight_gauge.value

    @property
    def _in_flight(self) -> int:
        return self._in_flight_gauge.value

    def _touch_window(self) -> None:
        """Advance the activity window (caller holds ``self._lock``)."""
        self._window.touch()
        self._active_gauge.set(self._window.active_s)

    def _submitted(self) -> None:
        with self._lock:
            if self._first_submit_s is None:
                self._first_submit_s = self._clock()
            self._submitted_counter.inc()
            self._in_flight_gauge.inc()
            self._max_in_flight_gauge.set_max(self._in_flight_gauge.value)
            self._touch_window()

    def _completed(self, latency_s: float) -> None:
        with self._lock:
            self._last_completed_s = self._clock()
            self._completed_counter.inc()
            self._in_flight_gauge.dec()
            self.latencies_s.append(latency_s)
            self._latency_histogram.observe(latency_s)
            self._touch_window()

    def _abandoned(self) -> None:
        """Undo a submission whose pool hand-off failed (never extracted)."""
        with self._lock:
            self._submitted_counter.add(-1)
            self._in_flight_gauge.dec()

    # -- derived metrics ---------------------------------------------------
    @property
    def latency_p50_ms(self) -> float:
        """Median per-frame extraction latency (milliseconds).

        Reads the bounded log-bucket histogram: O(buckets), no deque
        snapshot or sort under the stats lock.
        """
        return 1000.0 * self._latency_histogram.percentile(50.0)

    @property
    def latency_p95_ms(self) -> float:
        """95th-percentile per-frame extraction latency (milliseconds)."""
        return 1000.0 * self._latency_histogram.percentile(95.0)

    @property
    def elapsed_s(self) -> float:
        """Wall-clock span from first submit to last completion."""
        if self._first_submit_s is None or self._last_completed_s is None:
            return 0.0
        return max(0.0, self._last_completed_s - self._first_submit_s)

    @property
    def throughput_fps(self) -> float:
        """Completed frames per wall-clock second across the server's life."""
        elapsed = self.elapsed_s
        if elapsed <= 0.0:
            return 0.0
        return self.frames_completed / elapsed

    @property
    def active_elapsed_s(self) -> float:
        """Accumulated *active* serving time (idle gaps capped at the
        activity window's gap — ``docs/observability.md``)."""
        with self._lock:
            return self._window.active_s

    @property
    def active_throughput_fps(self) -> float:
        """Completed frames per second of active serving time — immune to
        idle gaps between replays, unlike the legacy ``throughput_fps``."""
        active = self.active_elapsed_s
        if active <= 0.0:
            return 0.0
        return self.frames_completed / active

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (benchmark reports).

        Every pre-telemetry key is preserved; ``active_elapsed_s`` /
        ``active_throughput_fps`` are additive.
        """
        return {
            "frames_submitted": self.frames_submitted,
            "frames_completed": self.frames_completed,
            "max_in_flight": self.max_in_flight,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "elapsed_s": self.elapsed_s,
            "throughput_fps": self.throughput_fps,
            "active_elapsed_s": self.active_elapsed_s,
            "active_throughput_fps": self.active_throughput_fps,
        }


class FrameServer:
    """Bounded-queue, thread-pooled frame extraction over one shared engine.

    Parameters
    ----------
    extractor:
        Pre-built extractor to share.  Built from ``config`` when omitted.
    config:
        Extractor configuration used when ``extractor`` is not supplied.
    max_workers:
        Thread-pool width (frames extracted concurrently).
    max_in_flight:
        Back-pressure bound on submitted-but-unfinished frames; defaults to
        ``2 * max_workers`` so the pool always has queued work without
        holding unbounded images alive.
    registry:
        Optional :class:`~repro.telemetry.MetricsRegistry` the server's
        :class:`ServingStats` registers its metrics in (a private registry
        is created when omitted); pass one registry to several servers to
        scrape them as one surface.
    tracer:
        Optional :class:`~repro.telemetry.Tracer`; when enabled, submit /
        extract spans and per-frame ``resolve`` instants are recorded
        (``docs/observability.md``).  Defaults to a disabled no-op tracer.
    """

    def __init__(
        self,
        extractor: Optional[OrbExtractor] = None,
        config: Optional[ExtractorConfig] = None,
        max_workers: int = 4,
        max_in_flight: Optional[int] = None,
        registry=None,
        tracer=None,
    ) -> None:
        from ..telemetry import Tracer

        if max_workers <= 0:
            raise ReproError("max_workers must be positive")
        if extractor is not None and config is not None and extractor.config != config:
            raise ReproError("injected extractor configuration does not match config")
        self.extractor = extractor or OrbExtractor(config)
        self.max_workers = max_workers
        self.max_in_flight = 2 * max_workers if max_in_flight is None else max_in_flight
        if self.max_in_flight < max_workers:
            raise ReproError("max_in_flight must be >= max_workers")
        self.tracer = tracer if tracer is not None else Tracer(track="serving")
        self.stats = ServingStats(registry=registry)
        self.registry = self.stats.registry
        self._slots = threading.BoundedSemaphore(self.max_in_flight)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="frame-server"
        )
        self._closed = False

    @property
    def extractor_config(self) -> ExtractorConfig:
        """Configuration of the shared engine (the serving protocol handle)."""
        return self.extractor.config

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Drain and shut the pool down; the server cannot be reused."""
        self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "FrameServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving -----------------------------------------------------------
    def submit(
        self,
        image: GrayImage,
        frame_id: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> "Future[ExtractionResult]":
        """Queue one frame; blocks while ``max_in_flight`` frames are pending.

        Returns a future resolving to the same :class:`ExtractionResult`
        sequential extraction would produce.  ``frame_id`` is the frame's
        trace correlation key; it never changes the result.  ``deadline_s`` optionally bounds the frame's serving budget: a
        frame still queued behind the pool when its deadline passes fails
        with :class:`~repro.errors.JobFailed` instead of being extracted
        late (checked at extraction start — the thread-server counterpart
        of the cluster's deadline rule, ``docs/serving.md``).
        """
        if self._closed:
            raise ReproError("FrameServer is closed")
        if deadline_s is not None and deadline_s <= 0.0:
            raise ReproError("deadline_s must be positive")
        submitted_s = time.perf_counter()
        deadline = submitted_s + deadline_s if deadline_s is not None else None
        with self.tracer.span("submit", frame=frame_id):
            self._slots.acquire()
            self.stats._submitted()
            try:
                future = self._pool.submit(
                    self._extract_one, image, frame_id, deadline, submitted_s
                )
            except BaseException:
                self.stats._abandoned()
                self._slots.release()
                raise
        return future

    def _extract_one(
        self,
        image: GrayImage,
        frame_id: Optional[int] = None,
        deadline: Optional[float] = None,
        submitted_s: Optional[float] = None,
    ) -> ExtractionResult:
        start = time.perf_counter()
        try:
            if deadline is not None and start > deadline:
                elapsed = start - (submitted_s if submitted_s is not None else start)
                raise JobFailed(
                    "frame deadline expired before extraction started",
                    (
                        JobAttempt(
                            worker_id=-1,
                            reason="deadline expired in the thread-pool queue",
                            elapsed_s=elapsed,
                        ),
                    ),
                )
            with self.tracer.span("extract", frame=frame_id):
                return self.extractor.extract(image, frame_id=frame_id)
        finally:
            if submitted_s is not None:
                # pool-queue wait: cross-thread by nature, so an async record
                self.tracer.record("queue_wait", submitted_s, start, frame=frame_id)
            self.stats._completed(time.perf_counter() - start)
            self.tracer.instant("resolve", frame=frame_id)
            self._slots.release()

    def extract_many(
        self,
        images: Iterable[GrayImage],
        frame_ids: Optional[Sequence[int]] = None,
    ) -> List[ExtractionResult]:
        """Extract every image through the shared engine; results in order.

        Submission interleaves with completion (the in-flight window keeps
        the pool saturated while the producer is still iterating), so this
        also serves as the pipelined entry point for whole sequences.
        """
        futures = [
            self.submit(image, frame_id=frame_ids[index] if frame_ids else None)
            for index, image in enumerate(images)
        ]
        return [future.result() for future in futures]

    def map_frames(
        self, frames: Sequence, max_frames: Optional[int] = None
    ) -> List[ExtractionResult]:
        """Extract the ``.image`` of dataset frames (RGB-D or SLAM frames)."""
        images = [
            frame.image
            for index, frame in enumerate(frames)
            if max_frames is None or index < max_frames
        ]
        return self.extract_many(images)
