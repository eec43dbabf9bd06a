"""The benchmark's workloads: seeded synthetic TUM sessions over three SLAM paths.

Every workload is a closed loop driven from this one process with at most
``WORKERS`` extraction workers and default configuration knobs except the
image resolution.  The seed drives only the rendered sequence's sensor
noise, so the program under test only ever sees frames:

* ``track_desk_qvga`` — sequential ``SlamSystem.run`` over ``fr1/desk`` at
  320x240.  The map grows across the 20-frame session, so feature matching
  dominates: the tracker-bound workload, with no serving layer at all.
* ``extract_desk_vga_cluster`` — extraction only: dense ``fr1/desk`` frames at
  640x480 through a 2-worker ``ClusterServer``.  Feature extraction and the
  cluster transport do all the work; matching and the tracker do none.
* ``track_rpy_vga_threads`` — full SLAM over ``fr2/rpy`` (sparse wall
  texture, fast rotation) at 640x480 with extraction pipelined through a
  2-thread ``FrameServer``, two 16-frame sessions of independent noise per
  run.  RANSAC runs near its iteration cap and the extraction threads share
  the interpreter lock with the serial tracker.

A tracking window runs whole sessions back to back until ``seconds`` have
passed, each on a fresh ``SlamSystem`` over the engine built during set-up.
The extraction window ends at the first frame completed after ``seconds``;
frames still in flight then are not counted.
"""

from __future__ import annotations

import gc
import resource
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster import ClusterServer
from repro.config import ExtractorConfig, SlamConfig
from repro.dataset import RgbdSequence, SequenceSpec, make_sequence
from repro.features import OrbExtractor
from repro.serving import FrameServer
from repro.slam import SlamSystem
from repro.telemetry import Tracer

from ledger import FrameLedger

#: Extraction workers (threads or processes) on the served paths.
WORKERS = 2
#: Image sensor noise (grey levels) the workload seed draws; depth is exact.
#: Kept small: stronger noise (3 grey levels, 5 mm depth) moved per-seed map
#: growth and tracking losses, and so the work per frame, by over 10% on
#: fr2/rpy.
IMAGE_NOISE_STD = 0.5
#: Loose accuracy floors of the sequential reference.  Served output must
#: equal the reference bit for bit; these catch a tracker that broke both.
MAX_ATE_RMSE_MM = 50.0
MIN_TRACKED_RATIO = 0.5


@dataclass(frozen=True)
class WorkloadSpec:
    sequence: str
    width: int
    height: int
    #: Frames of the rendered trajectory (sets the motion between frames).
    trajectory: int
    #: Session length (tracking) or distinct frames cycled (extraction): the
    #: trajectory's first ``frames`` frames.
    frames: int
    #: ``"sequential"``, ``"threads"`` or ``"cluster"``.
    path: str
    #: Independent noise draws per run, one session each; averaging them
    #: keeps seed-to-seed work differences (map growth) inside the bounds.
    draws: int = 1

    @property
    def tracking(self) -> bool:
        return self.path != "cluster"


WORKLOADS: Dict[str, WorkloadSpec] = {
    "track_desk_qvga": WorkloadSpec("fr1/desk", 320, 240, 30, 20, "sequential"),
    "extract_desk_vga_cluster": WorkloadSpec("fr1/desk", 640, 480, 16, 16, "cluster"),
    "track_rpy_vga_threads": WorkloadSpec("fr2/rpy", 640, 480, 24, 16, "threads", draws=2),
}


def render(spec: WorkloadSpec, seed: int) -> List[RgbdSequence]:
    """The workload's input sequences, one per draw; the load generator, never timed."""
    sequences = []
    for draw in np.random.SeedSequence(seed).spawn(spec.draws):
        sequence = make_sequence(
            SequenceSpec(
                name=spec.sequence,
                num_frames=spec.trajectory,
                image_width=spec.width,
                image_height=spec.height,
                image_noise_std=IMAGE_NOISE_STD,
                seed=int(draw.generate_state(1)[0]),
            )
        )
        sequence.frames = sequence.frames[: spec.frames]
        sequences.append(sequence)
    return sequences


@dataclass
class Window:
    """One timed closed-loop window and everything it produced."""

    start_s: float
    ledger: FrameLedger = field(default_factory=FrameLedger)
    #: Tracking: one list of ``TrackingResult`` per session, in order.
    sessions: List[list] = field(default_factory=list)
    #: Extraction: ``(frame index, ExtractionResult)`` per completed frame.
    extractions: List[tuple] = field(default_factory=list)

    @property
    def end_s(self) -> float:
        return self.ledger.last_completion_s or self.start_s

    @property
    def elapsed_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def fps(self) -> float:
        return self.ledger.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0


class _EntryStamp:
    """``FrameServing`` proxy that stamps each frame's entry into the system."""

    def __init__(self, server, ledger: FrameLedger) -> None:
        self._server = server
        self._ledger = ledger

    @property
    def max_in_flight(self) -> int:
        return self._server.max_in_flight

    @property
    def extractor_config(self) -> ExtractorConfig:
        return self._server.extractor_config

    def submit(self, image, frame_id=None, **kwargs):
        self._ledger.enter(frame_id)
        return self._server.submit(image, frame_id=frame_id, **kwargs)


def _peak_rss_mb(workers: int = 0) -> float:
    """Main-process peak RSS plus ``workers`` times the largest reaped child's peak."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + workers * child_kb) / 1024.0


def _poses_equal(a, b) -> bool:
    return np.array_equal(a.rotation, b.rotation) and np.array_equal(
        a.translation, b.translation
    )


class TrackingRunner:
    """The two tracking workloads: sequential or thread-served ``SlamSystem.run``."""

    def __init__(self, spec: WorkloadSpec, sequences: List[RgbdSequence]) -> None:
        self.spec = spec
        self.sequences = sequences
        self.config = SlamConfig(
            extractor=ExtractorConfig(image_width=spec.width, image_height=spec.height)
        )
        self.served = spec.path == "threads"
        self.extractor: Optional[OrbExtractor] = None
        self.server: Optional[FrameServer] = None

    def setup(self, tracer: Optional[Tracer] = None) -> float:
        """Build the engine (and thread server) and warm it; returns seconds."""
        self.close()
        start = time.perf_counter()
        self.extractor = OrbExtractor(self.config.extractor)
        if self.served:
            self.server = FrameServer(
                extractor=self.extractor, max_workers=WORKERS, tracer=tracer
            )
            self.server.extract_many(
                [frame.image for frame in self.sequences[0].frames[:WORKERS]]
            )
        else:
            self.extractor.extract(self.sequences[0].frames[0].image)
        return time.perf_counter() - start

    def window(self, seconds: float, probe=None) -> Window:
        """Run whole sessions, one per draw in turn, until ``seconds`` have passed.

        Whole rounds of sessions keep the latency sample balanced over draws
        and over session positions, whose cost grows with the map.
        ``probe`` times layers.
        """
        window = Window(start_s=time.perf_counter())
        deadline = window.start_s + seconds
        ledger = window.ledger
        length = self.spec.frames
        while True:
            sequence = self.sequences[len(window.sessions) % len(self.sequences)]
            system = SlamSystem(self.config, extractor=self.extractor)
            if probe is not None:
                probe.attach(system)
            results: list = []
            window.sessions.append(results)
            base = (len(window.sessions) - 1) * length
            track = system.process_frame

            def process_frame(rgbd_frame, camera, extraction=None, _base=base,
                              _track=track, _results=results):
                result = ledger.call(
                    _base + rgbd_frame.index, _track, rgbd_frame, camera,
                    extraction=extraction,
                )
                _results.append(result)
                return result

            system.process_frame = process_frame
            failed_before = ledger.failed
            try:
                if self.served:
                    system.run(
                        sequence,
                        frame_server=_EntryStamp(self.server, ledger),
                        frame_ids=[base + index for index in range(length)],
                    )
                else:
                    system.run(sequence)
            except Exception:  # a failed frame; the next session goes on
                if ledger.failed == failed_before:
                    ledger.fail(base + len(results))
            round_done = len(window.sessions) % len(self.sequences) == 0
            if round_done and time.perf_counter() >= deadline:
                break
        return window

    def reference(self) -> list:
        """Sequential reference: one full session per draw on a fresh system."""
        return [SlamSystem(self.config).run(sequence) for sequence in self.sequences]

    def check(self, windows: List[Window], reference: list) -> List[str]:
        """Mismatches of every tracked frame against the reference."""
        problems = []
        for window in windows:
            for session, results in enumerate(window.sessions):
                expected = reference[session % len(reference)].frame_results
                for got, want in zip(results, expected):
                    if got.tracked != want.tracked or not _poses_equal(got.pose, want.pose):
                        problems.append(
                            f"session {session} frame {got.frame_index}: pose differs "
                            "from the sequential reference"
                        )
        for draw, run in enumerate(reference):
            ate_mm = run.ate().rmse * 1000.0
            if not ate_mm <= MAX_ATE_RMSE_MM:
                problems.append(
                    f"draw {draw}: reference ATE {ate_mm:.3f} mm exceeds {MAX_ATE_RMSE_MM} mm"
                )
            if run.tracking_success_ratio < MIN_TRACKED_RATIO:
                problems.append(
                    f"draw {draw}: reference tracked ratio "
                    f"{run.tracking_success_ratio:.3f} below {MIN_TRACKED_RATIO}"
                )
        return problems

    @property
    def extractor_config(self) -> ExtractorConfig:
        return self.config.extractor

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    abort = close


class ClusterRunner:
    """Extraction only, one producer, through a 2-worker ``ClusterServer``."""

    def __init__(self, spec: WorkloadSpec, sequences: List[RgbdSequence]) -> None:
        self.spec = spec
        self.images = [frame.image for sequence in sequences for frame in sequence]
        self.config = ExtractorConfig(image_width=spec.width, image_height=spec.height)
        self.server: Optional[ClusterServer] = None

    def setup(self, tracer: Optional[Tracer] = None) -> float:
        """Spawn the workers and warm each engine once; returns seconds."""
        self.close()
        # forked workers inherit the main process's heap: collect the previous
        # set-up's garbage so their peak RSS does not depend on GC timing
        gc.collect()
        start = time.perf_counter()
        self.server = ClusterServer(self.config, num_workers=WORKERS, tracer=tracer)
        self.server.extract_many(self.images[:WORKERS])
        return time.perf_counter() - start

    def window(self, seconds: float) -> Window:
        """Keep the default in-flight window full for ``seconds``."""
        server = self.server
        window = Window(start_s=time.perf_counter())
        deadline = window.start_s + seconds
        ledger = window.ledger
        done_at: Dict[int, float] = {}
        outstanding: Dict[object, int] = {}
        submitted = 0
        while True:
            while len(outstanding) < server.max_in_flight:
                ledger.enter(submitted)
                future = server.submit(
                    self.images[submitted % len(self.images)], frame_id=submitted
                )
                # stamped by the collector thread the moment the result lands
                future.add_done_callback(
                    lambda _, key=submitted: done_at.setdefault(key, time.perf_counter())
                )
                outstanding[future] = submitted
                submitted += 1
            finished, _ = wait(list(outstanding), return_when=FIRST_COMPLETED)
            for future in sorted(finished, key=outstanding.get):
                key = outstanding.pop(future)
                if future.exception() is not None:
                    ledger.fail(key)
                    continue
                ledger.complete(key, done_at[key])
                window.extractions.append((key % len(self.images), future.result()))
            if time.perf_counter() >= deadline:
                return window

    def reference(self):
        """Sequential extraction of every distinct frame with a fresh engine."""
        extractor = OrbExtractor(self.config)
        return [extractor.extract(image) for image in self.images]

    def check(self, windows: List[Window], reference) -> List[str]:
        problems = []
        expected = [result.feature_records() for result in reference]
        for window in windows:
            for index, result in window.extractions:
                if result.feature_records() != expected[index]:
                    problems.append(
                        f"frame {index}: features differ from sequential extraction"
                    )
        return problems

    @property
    def extractor_config(self) -> ExtractorConfig:
        return self.config

    def peak_rss_mb(self) -> float:
        # called after close(): every worker has been reaped
        return _peak_rss_mb(WORKERS)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def abort(self) -> None:
        """Forced close for the watchdog: no graceful drain."""
        if self.server is not None:
            self.server.close(drain_timeout_s=1.0)


def runner_for(spec: WorkloadSpec, sequences: List[RgbdSequence]):
    runner = ClusterRunner if spec.path == "cluster" else TrackingRunner
    return runner(spec, sequences)
