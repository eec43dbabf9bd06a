"""The repository benchmark: one seeded workload, timed, checked and reported.

Run from the repository root::

    python3 perfbench/run.py --workload track_desk_qvga --seed 7 --seconds 15 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``track_desk_qvga``,
``extract_desk_vga_cluster`` and ``track_rpy_vga_threads``.

``--trace 0`` sets up ``SETUP_REPEATS`` times, runs one untraced closed-loop
window of at least ``--seconds`` (tracking windows run whole sessions) and
reports the end-to-end metrics: ``fps``,
``frame_ms_p50``, ``frame_ms_tail`` (the highest percentile with at least
ten samples beyond it), ``setup_s`` (median set-up), ``peak_rss_mb``, and on
the tracking workloads ``ate_rmse_mm`` / ``tracked_ratio``, each with its
unit and sample count.  ``--trace 1`` runs the same untraced window, then a
traced one, and reports the per-layer split (``layers.py``), the
``repro.platforms`` model's Table 2 columns beside the measured split, and
``telemetry.overhead_ratio`` (traced over untraced fps).

Every run compares its outputs with a sequential reference computed after
the timed windows: poses bit for bit on the tracking workloads,
``feature_records()`` on the extraction workload.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the full result record, stamped with the git sha, core count, Python
and numpy versions and the seed.  Exit status: 0 when every output matched,
1 on a mismatch or when no frame completed, 2 when the sources are missing,
3 when the watchdog ended a wedged run (stacks on standard error).
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import multiprocessing
import os
import platform
import statistics
import sys
import threading
from pathlib import Path

SETUP_REPEATS = 5
#: A run still going after this long is wedged: dump stacks and end it.
WATCHDOG_S = 150.0
#: Time the watchdog gives the forced server close before killing children.
CLOSE_GRACE_S = 10.0

END_TO_END_UNITS = {
    "fps": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Watchdog:
    """Ends a wedged run as a failed one: stacks, forced close, exit 3.

    ``faulthandler.dump_traceback_later`` is the backstop for a process so
    stuck that the watchdog thread itself cannot run.
    """

    def __init__(self, timeout_s: float) -> None:
        self.timeout_s = timeout_s
        self.closers: list = []
        faulthandler.dump_traceback_later(timeout_s + CLOSE_GRACE_S + 10.0, exit=True)
        self._timer = threading.Timer(timeout_s, self._fire)
        self._timer.daemon = True
        self._timer.start()

    def _fire(self) -> None:
        print(
            f"perfbench: watchdog: run exceeded {self.timeout_s:.0f} s; stacks follow",
            file=sys.stderr,
            flush=True,
        )
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        closer = threading.Thread(target=self._close_all, daemon=True)
        closer.start()
        closer.join(CLOSE_GRACE_S)
        for child in multiprocessing.active_children():
            child.kill()
            child.join(5.0)
        sys.stderr.flush()
        os._exit(3)

    def _close_all(self) -> None:
        for close in self.closers:
            try:
                close()
            except Exception as error:  # keep closing the rest
                print(f"perfbench: watchdog: close failed: {error!r}", file=sys.stderr)

    def cancel(self) -> None:
        self._timer.cancel()
        faulthandler.cancel_dump_traceback_later()


def git_sha(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name.strip() == name:
                return sha
    return "unknown"


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value, unit, samples, note=""):
    return {"value": value, "unit": unit, "samples": samples, "note": note}


def end_to_end(window, setups, peak_rss_mb, reference, spec):
    from layers import ate_rmse_mm, tracked_ratio
    from ledger import tail_percentile

    latencies_ms = [1000.0 * latency for latency in window.ledger.latencies_s]
    frames = len(latencies_ms)
    percentile, tail_ms = tail_percentile(latencies_ms)
    metrics = {
        "fps": _metric(window.fps, "1/s", frames, f"over {window.elapsed_s:.2f} s"),
        # nearest-rank median, the same convention as the tail
        "frame_ms_p50": _metric(statistics.median_low(latencies_ms), "ms", frames),
        "frame_ms_tail": _metric(tail_ms, "ms", frames, f"p{percentile:.1f}"),
        "setup_s": _metric(statistics.median(setups), "s", len(setups), "median"),
        "peak_rss_mb": _metric(
            peak_rss_mb, "MB", 1, "main process + workers x largest worker" if not spec.tracking else "main process"
        ),
    }
    # reported, not bounded: they vary with the seed far more than any bound
    if spec.tracking:
        frames = sum(run.num_frames for run in reference)
        note = f"reference, {len(reference)} draw(s)"
        metrics["ate_rmse_mm"] = _metric(ate_rmse_mm(reference), "mm", frames, note)
        metrics["tracked_ratio"] = _metric(tracked_ratio(reference), "ratio", frames, note)
    ledger = window.ledger
    metrics["failed_ratio"] = _metric(ledger.failed / ledger.attempted, "ratio", ledger.attempted)
    return metrics


def traced_window(runner, spec, seconds):
    """Set up again with tracing on and run one traced window.

    Returns ``(window, spans, probe, cluster_stats)``.
    """
    from layers import LayerProbe, installed, spans_from_trace, spans_from_tracer
    from repro.telemetry import Tracer

    if spec.tracking:
        tracer = Tracer(enabled=True, track="local")
        runner.setup(tracer=tracer)
        extractor = runner.extractor if spec.path == "sequential" else None
        with installed(tracer), LayerProbe(extractor) as probe:
            window = runner.window(seconds, probe=probe)
        runner.close()
        return window, spans_from_tracer(tracer.drain()), probe, None
    runner.setup(tracer=Tracer(enabled=True, track="server"))
    window = runner.window(seconds)
    server = runner.server
    runner.close()
    return window, spans_from_trace(server.trace()), None, server.stats


def print_table(title, rows, header):
    print(f"\n{title}")
    widths = [max(len(str(cell)) for cell in column) for column in zip(header, *rows)]
    for row in [header, *rows]:
        print("  " + "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))


def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def run(args, root: Path, watchdog: Watchdog) -> int:
    import numpy

    from layers import PER_LAYER, per_layer_metrics, table2_rows
    from workloads import WORKERS, WORKLOADS, render, runner_for

    spec = WORKLOADS[args.workload]
    runner = runner_for(spec, render(spec, args.seed))
    watchdog.closers.append(runner.abort)
    windows = []
    try:
        setups = [runner.setup() for _ in range(SETUP_REPEATS)]
        untraced = runner.window(args.seconds)
        windows.append(untraced)
        runner.close()
        peak_rss_mb = runner.peak_rss_mb()
        if args.trace:
            traced, spans, probe, cluster_stats = traced_window(runner, spec, args.seconds)
            windows.append(traced)
    finally:
        runner.close()
    reference = runner.reference()
    problems = runner.check(windows, reference)
    attempted = sum(window.ledger.attempted for window in windows)
    failed = sum(window.ledger.failed for window in windows)
    if any(window.ledger.completed == 0 for window in windows):
        print("perfbench: a timed window completed no frame", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": WORKERS if spec.path != "sequential" else 0,
        "end_to_end": end_to_end(untraced, setups, peak_rss_mb, reference, spec),
        "problems": problems,
    }
    print(f"perfbench {args.workload} seed={args.seed} sha={record['git_sha']} "
          f"nproc={record['nproc']} python={record['python']} numpy={record['numpy']}")
    print_table(
        "end-to-end (untraced)",
        [(name, _fmt(m["value"]), m["unit"], m["samples"], m["note"])
         for name, m in record["end_to_end"].items()],
        ("metric", "value", "unit", "samples", "note"),
    )
    if args.trace:
        layer = per_layer_metrics(
            spec, traced, spans, reference, probe, cluster_stats, WORKERS
        )
        layer["telemetry.overhead_ratio"] = traced.fps / untraced.fps
        units = {name: unit for name, unit, _ in PER_LAYER}
        record["per_layer"] = {
            name: _metric(value, units[name], traced.ledger.completed)
            for name, value in layer.items()
        }
        record["table2"] = table2_rows(spec, runner.extractor_config, traced, layer)
        print_table(
            f"per layer (traced window, {traced.ledger.completed} frames)",
            [(name, _fmt(value), units[name]) for name, value in layer.items()],
            ("metric", "value", "unit"),
        )
        print_table(
            "Table 2, ms/frame: measured software split vs repro.platforms MODEL "
            "output (not measurements) and the paper's anchors",
            [tuple(_fmt(cell) for cell in row) for row in record["table2"]],
            ("stage", "measured", "model ARM", "model i7", "model eSLAM",
             "paper ARM", "paper i7", "paper eSLAM"),
        )
    for problem in problems:
        print(f"MISMATCH: {problem}")
    print(json.dumps(record))
    if args.trace:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in record["per_layer"].items()}
    else:
        metrics = {name: {"value": record["end_to_end"][name]["value"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


def reap_resource_tracker() -> None:
    """Wait for the shared-memory resource tracker the cluster started.

    ``multiprocessing`` starts that helper on first use and leaves it to exit
    after the main process does; stopping it here ends the run with every process
    it started reaped.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    args = parse_args(argv)
    watchdog = Watchdog(WATCHDOG_S)
    try:
        return run(args, root, watchdog)
    finally:
        watchdog.cancel()
        reap_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
