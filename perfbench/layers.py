"""Per-layer metrics of a traced window, and the Table 2 model columns.

Per-layer times come from two sources, both outside ``src/``:

* :class:`LayerProbe` wraps the public functions each tracker stage calls —
  ``BruteForceMatcher.match_arrays`` (FM), ``PnpRansac.estimate`` (PE),
  ``PoseOptimizer.optimize`` (PO), ``GlobalMap.add_points`` / ``cull`` (MU),
  ``OrbExtractor.extract`` (FE on the sequential path) and
  ``SlamSystem.process_frame`` — for the traced window only;
* the spans the program already records through its public tracer API:
  the extractor's ``acquire_pyramid`` / ``smooth`` / ``detect`` /
  ``describe`` / ``filter``, the thread server's ``extract`` / ``queue_wait``,
  ``SlamSystem.run``'s ``await_result`` and the cluster's producer and
  worker spans.

Times are per-frame means over the traced window.  Work counts are per-frame
means over the sequential reference of the whole session (or of every
distinct frame), so they repeat exactly for a seed.  A metric of a layer the
workload does not run reads 0.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.geometry import PnpRansac
from repro.optimization import PoseOptimizer
from repro.platforms import (
    ARM_CORTEX_A9,
    ESLAM,
    INTEL_I7,
    EslamRuntimeModel,
    FrameWorkload,
    paper_stage_runtimes,
    runtime_model_for,
)
from repro.slam.tracker import StageWorkload
from repro.telemetry import Tracer, set_tracer

from ledger import covered_length, self_time

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = [
    ("matching.match_ms", "ms", "lower"),
    ("matching.ns_per_eval", "ns", "lower"),
    ("matching.distance_evals", "count", "lower"),
    ("matching.map_points", "count", "lower"),
    ("matching.accept_ratio", "ratio", "higher"),
    ("backends.describe_ms", "ms", "lower"),
    ("backends.descriptors_computed", "count", "lower"),
    ("features.kept_per_described", "ratio", "higher"),
    ("frontend.smooth_ms", "ms", "lower"),
    ("frontend.detect_ms", "ms", "lower"),
    ("frontend.keypoints_detected", "count", "lower"),
    ("pyramid.acquire_ms", "ms", "lower"),
    ("features.filter_ms", "ms", "lower"),
    ("features.extract_ms", "ms", "lower"),
    ("geometry.ransac_ms", "ms", "lower"),
    ("geometry.ransac_iterations", "count", "lower"),
    ("geometry.inlier_ratio", "ratio", "higher"),
    ("optimization.lm_ms", "ms", "lower"),
    ("optimization.lm_iterations", "count", "lower"),
    ("slam.map_update_ms", "ms", "lower"),
    ("slam.map_size", "count", "lower"),
    ("slam.keyframes", "count", "lower"),
    ("slam.track_self_ms", "ms", "lower"),
    ("slam.await_result_ms", "ms", "lower"),
    ("slam.ate_rmse_mm", "mm", "lower"),
    ("slam.tracked_ratio", "ratio", "higher"),
    ("cluster.submit_ms", "ms", "lower"),
    ("cluster.queue_wait_ms", "ms", "lower"),
    ("cluster.worker_busy_ratio", "ratio", "higher"),
    ("cluster.transport_ms", "ms", "lower"),
    ("cluster.zero_copy_ratio", "ratio", "higher"),
    ("cluster.restarts", "count", "lower"),
    ("cluster.retries", "count", "lower"),
    ("serving.queue_wait_ms", "ms", "lower"),
    ("serving.extract_ms", "ms", "lower"),
    ("telemetry.overhead_ratio", "ratio", "higher"),
]

#: Probe names of the tracker's child stages (``process_frame`` is the parent).
TRACKER_STAGES = ("extract", "match", "ransac", "lm", "map_update")
#: Cluster spans that move frame or result bytes between processes.
TRANSPORT_SPANS = ("ring_write", "publish_pyramid", "ring_read", "attach_pyramid", "pack")
#: Table 2 rows: (stage, ``repro.platforms`` stage key, measured per-layer metric).
TABLE2_STAGES = (
    ("FE", "feature_extraction", "features.extract_ms"),
    ("FM", "feature_matching", "matching.match_ms"),
    ("PE", "pose_estimation", "geometry.ransac_ms"),
    ("PO", "pose_optimization", "optimization.lm_ms"),
    ("MU", "map_updating", "slam.map_update_ms"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    frame: object


def spans_from_tracer(records: Iterable[tuple]) -> List[Span]:
    """``Tracer.drain()`` records as :class:`Span` rows."""
    return [Span(name, start, end, frame) for _, name, start, end, frame, _, _ in records]


def spans_from_trace(trace) -> List[Span]:
    """A merged cluster ``Trace`` as :class:`Span` rows on the server clock."""
    return [Span(name, start, end, frame) for _, _, name, start, end, frame, _, _ in trace.spans()]


@contextmanager
def installed(tracer: Tracer):
    """Install ``tracer`` as the process-local tracer for the block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


class LayerProbe:
    """Times calls into each tracker layer's public functions.

    Use as a context manager around one traced window: the class-level
    patches (``PnpRansac.estimate``, ``PoseOptimizer.optimize``) and the
    extractor patch are undone on exit; :meth:`attach` instruments each
    session's fresh ``SlamSystem``.
    """

    def __init__(self, extractor=None) -> None:
        self.intervals: Dict[str, list] = defaultdict(list)
        self._extractor = extractor
        self._undo: list = []

    def _timed(self, name: str, fn):
        intervals = self.intervals[name]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                intervals.append((start, time.perf_counter()))

        return timed

    def _patch(self, owner, attribute: str, name: str) -> None:
        original = owner.__dict__.get(attribute)
        setattr(owner, attribute, self._timed(name, getattr(owner, attribute)))
        self._undo.append((owner, attribute, original))

    def __enter__(self) -> "LayerProbe":
        self._patch(PnpRansac, "estimate", "ransac")
        self._patch(PoseOptimizer, "optimize", "lm")
        if self._extractor is not None:
            self._patch(self._extractor, "extract", "extract")
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._undo):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._undo.clear()

    def attach(self, system) -> None:
        """Instrument one session's system (discarded with it)."""
        tracker = system.tracker
        tracker.matcher.match_arrays = self._timed("match", tracker.matcher.match_arrays)
        tracker.map.add_points = self._timed("map_update", tracker.map.add_points)
        tracker.map.cull = self._timed("map_update", tracker.map.cull)
        system.process_frame = self._timed("process_frame", system.process_frame)

    def total_s(self, name: str) -> float:
        return sum(end - start for start, end in self.intervals.get(name, ()))

    def tracker_self_s(self) -> float:
        """``process_frame`` time not covered by any timed stage call."""
        children = [
            interval for name in TRACKER_STAGES for interval in self.intervals.get(name, ())
        ]
        return sum(self_time(parent, children) for parent in self.intervals["process_frame"])


def _ms_per_frame(total_s: float, frames: int) -> float:
    return 1000.0 * total_s / frames if frames else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum(rows, attribute: str) -> int:
    return sum(getattr(row, attribute) for row in rows)


def _mean(rows, attribute: str) -> float:
    return _ratio(_sum(rows, attribute), len(rows))


def mean_stage_workload(rows: List[StageWorkload]) -> StageWorkload:
    """Per-field rounded mean of per-frame workloads."""
    return StageWorkload(
        **{name: int(round(_mean(rows, name))) for name in vars(StageWorkload())}
    )


def ate_rmse_mm(reference) -> float:
    """Mean over the draws of each reference session's ATE RMSE."""
    return 1000.0 * sum(run.ate().rmse for run in reference) / len(reference)


def tracked_ratio(reference) -> float:
    """Share of all reference frames that tracked."""
    results = [result for run in reference for result in run.frame_results]
    return _ratio(sum(result.tracked for result in results), len(results))


def count_metrics(spec, reference) -> Dict[str, float]:
    """Work counts of the sequential reference; they repeat exactly for a seed.

    Per-frame means over every reference session; ``slam.map_size`` and
    ``slam.keyframes`` are per-session means.
    """
    if not spec.tracking:
        profiles = [result.profile for result in reference]
        return {
            "backends.descriptors_computed": _mean(profiles, "descriptors_computed"),
            "features.kept_per_described": _ratio(
                _sum(profiles, "features_retained"), _sum(profiles, "descriptors_computed")
            ),
            "frontend.keypoints_detected": _mean(profiles, "keypoints_detected"),
        }
    counts = [result.workload for run in reference for result in run.frame_results]
    matched = [row for row in counts if row.map_points_matched_against]
    estimated = [row for row in counts if row.ransac_iterations]
    return {
        "matching.distance_evals": _mean(counts, "distance_evaluations"),
        "matching.map_points": _mean(counts, "map_points_matched_against"),
        "matching.accept_ratio": _ratio(
            _sum(matched, "matches_accepted"), _sum(matched, "features_retained")
        ),
        "backends.descriptors_computed": _mean(counts, "descriptors_computed"),
        "features.kept_per_described": _ratio(
            _sum(counts, "features_retained"), _sum(counts, "descriptors_computed")
        ),
        "frontend.keypoints_detected": _mean(counts, "keypoints_detected"),
        "geometry.ransac_iterations": _mean(counts, "ransac_iterations"),
        "geometry.inlier_ratio": _ratio(
            _sum(estimated, "ransac_inliers"), _sum(estimated, "matches_accepted")
        ),
        "optimization.lm_iterations": _mean(counts, "lm_iterations"),
        "slam.map_size": _mean([run.frame_results[-1].workload for run in reference], "map_size_after"),
        "slam.keyframes": _mean(reference, "num_keyframes"),
        "slam.ate_rmse_mm": ate_rmse_mm(reference),
        "slam.tracked_ratio": tracked_ratio(reference),
    }


def per_layer_metrics(
    spec, window, spans: List[Span], reference, probe: Optional[LayerProbe] = None,
    cluster_stats=None, workers: int = 0,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``telemetry.overhead_ratio``."""
    frames = window.ledger.completed
    low, high = window.start_s, window.end_s
    in_window = [span for span in spans if low <= span.end <= high and span.end > span.start]
    totals: Dict[str, float] = defaultdict(float)
    for span in in_window:
        totals[span.name] += span.end - span.start
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    metrics.update(count_metrics(spec, reference))
    metrics.update({
        "pyramid.acquire_ms": _ms_per_frame(totals["acquire_pyramid"], frames),
        "frontend.smooth_ms": _ms_per_frame(totals["smooth"], frames),
        "frontend.detect_ms": _ms_per_frame(totals["detect"], frames),
        "backends.describe_ms": _ms_per_frame(totals["describe"], frames),
        "features.filter_ms": _ms_per_frame(totals["filter"], frames),
        "features.extract_ms": _ms_per_frame(
            probe.total_s("extract") if spec.path == "sequential" else totals["extract"],
            frames,
        ),
    })
    if spec.tracking:
        traced = [result.workload for session in window.sessions for result in session]
        metrics.update({
            "matching.match_ms": _ms_per_frame(probe.total_s("match"), frames),
            "matching.ns_per_eval": 1e9 * _ratio(
                probe.total_s("match"), _sum(traced, "distance_evaluations")
            ),
            "geometry.ransac_ms": _ms_per_frame(probe.total_s("ransac"), frames),
            "optimization.lm_ms": _ms_per_frame(probe.total_s("lm"), frames),
            "slam.map_update_ms": _ms_per_frame(probe.total_s("map_update"), frames),
            "slam.track_self_ms": _ms_per_frame(probe.tracker_self_s(), frames),
            "slam.await_result_ms": _ms_per_frame(totals["await_result"], frames),
        })
        if spec.path == "threads":
            metrics["serving.queue_wait_ms"] = _ms_per_frame(totals["queue_wait"], frames)
            metrics["serving.extract_ms"] = _ms_per_frame(totals["extract"], frames)
    else:
        submit_end = {
            span.frame: span.end for span in in_window if span.name == "submit"
        }
        serve = [span for span in spans if span.name == "serve_frame"]
        # worker clocks are mapped onto the server's with a small estimated
        # offset, so a wait can read a hair below zero
        waits = [
            max(0.0, span.start - submit_end[span.frame])
            for span in serve
            if span.frame in submit_end
        ]
        busy = sum(
            covered_length((low, high), [(span.start, span.end)]) for span in serve
        )
        results = cluster_stats.results_zero_copy + cluster_stats.results_via_pickle
        metrics.update({
            "cluster.submit_ms": _ms_per_frame(totals["submit"], frames),
            "cluster.queue_wait_ms": _ms_per_frame(sum(waits), len(waits)),
            "cluster.worker_busy_ratio": _ratio(busy, workers * (high - low)),
            "cluster.transport_ms": _ms_per_frame(
                sum(totals[name] for name in TRANSPORT_SPANS), frames
            ),
            "cluster.zero_copy_ratio": _ratio(cluster_stats.results_zero_copy, results),
            "cluster.restarts": cluster_stats.restarts,
            "cluster.retries": cluster_stats.retries,
        })
    return metrics


def traced_workload(spec, window) -> StageWorkload:
    """Mean per-frame workload of the traced window (model input)."""
    if spec.tracking:
        return mean_stage_workload(
            [result.workload for session in window.sessions for result in session]
        )
    rows = [
        StageWorkload(
            pixels_processed=result.profile.pixels_processed,
            keypoints_detected=result.profile.keypoints_detected,
            descriptors_computed=result.profile.descriptors_computed,
            features_retained=result.profile.features_retained,
        )
        for _, result in window.extractions
    ]
    return mean_stage_workload(rows)


def table2_rows(spec, extractor_config, window, metrics: Dict[str, float]) -> List[tuple]:
    """``(stage, measured, model ARM, model i7, model eSLAM, paper ARM, paper i7, paper eSLAM)``.

    The model columns are :mod:`repro.platforms` output for the traced
    window's mean workload, not measurements; the eSLAM model runs at the
    workload's resolution.  The paper columns are Table 2's anchors.
    """
    workload = FrameWorkload.from_stage_workload(traced_workload(spec, window))
    models = [
        runtime_model_for(ARM_CORTEX_A9).stage_runtimes(workload).as_dict(),
        runtime_model_for(INTEL_I7).stage_runtimes(workload).as_dict(),
        EslamRuntimeModel(extractor_config).stage_runtimes(workload).as_dict(),
    ]
    papers = [paper_stage_runtimes(platform.name) for platform in (ARM_CORTEX_A9, INTEL_I7, ESLAM)]
    return [
        (stage, metrics[metric], *(model[key] for model in models), *(paper[key] for paper in papers))
        for stage, key, metric in TABLE2_STAGES
    ]
