"""Tests of the benchmark's own helpers.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ledger import FrameLedger, covered_length, self_time, tail_percentile  # noqa: E402


class TestTailPercentile:
    def test_leaves_ten_samples_beyond(self):
        samples = [float(value) for value in range(1, 21)]
        assert tail_percentile(samples) == (50.0, 10.0)
        samples = [float(value) for value in range(1, 101)]
        assert tail_percentile(samples) == (90.0, 90.0)

    def test_order_does_not_matter(self):
        samples = [float(value) for value in range(100, 0, -1)]
        assert tail_percentile(samples) == (90.0, 90.0)

    def test_ties_count_only_strictly_greater_samples(self):
        samples = [1.0] * 5 + [2.0] * 20
        # no 2.0 has ten samples strictly above it, so the tail drops to 1.0
        assert tail_percentile(samples) == (20.0, 1.0)

    def test_too_few_samples_report_the_maximum(self):
        assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
        assert tail_percentile([float(value) for value in range(10)]) == (100.0, 9.0)

    def test_eleven_samples_is_the_first_real_percentile(self):
        percentile, value = tail_percentile([float(value) for value in range(11)])
        assert value == 0.0
        assert percentile == pytest.approx(100.0 / 11)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            tail_percentile([])


class TestSelfTime:
    def test_subtracts_the_union_of_children(self):
        # (1,3) and (2,4) overlap: covered [1,4] once; (8,12) is clipped to 10
        assert self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == 5.0

    def test_nested_children_are_not_counted_twice(self):
        assert self_time((0.0, 10.0), [(2.0, 8.0), (3.0, 4.0), (5.0, 6.0)]) == 4.0

    def test_children_outside_the_parent_are_ignored(self):
        assert self_time((5.0, 6.0), [(0.0, 1.0), (7.0, 9.0), (6.0, 7.0)]) == 1.0

    def test_no_children(self):
        assert self_time((1.0, 2.5), []) == 1.5
        assert covered_length((0.0, 1.0), []) == 0.0


class _Sequence:
    def __init__(self, frames):
        self.frames = frames
        self.camera = None

    def __len__(self):
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)


def _raise(error):
    raise error


class TestFailureCounting:
    def test_raising_frame_fails_and_has_no_latency(self):
        ledger = FrameLedger()
        ledger.call("ok", lambda: None)
        with pytest.raises(RuntimeError):
            ledger.call("bad", _raise, RuntimeError("boom"))
        assert ledger.completed == 1
        assert ledger.failed == 1
        assert ledger.attempted == 2
        assert len(ledger.latencies_s) == 1

    def test_latency_runs_from_entry_to_completion(self):
        ledger = FrameLedger()
        ledger.enter(7, at_s=1.0)
        assert ledger.complete(7, at_s=1.25) == 0.25
        assert ledger.last_completion_s == 1.25
        ledger.enter(8, at_s=2.0)
        ledger.fail(8)
        assert ledger.latencies_s == [0.25]
        assert ledger.attempted == 2

    def test_tracking_window_counts_a_raising_frame_as_failed(self, monkeypatch):
        class FailingSystem:
            """Stands in for SlamSystem: frame 2 of every session raises."""

            def __init__(self, config, extractor=None):
                pass

            def process_frame(self, rgbd_frame, camera, extraction=None):
                time.sleep(0.005)
                if rgbd_frame.index == 2:
                    raise RuntimeError("tracking blew up")
                return SimpleNamespace(frame_index=rgbd_frame.index)

            def run(self, sequence, **kwargs):
                for rgbd_frame in sequence.frames:
                    self.process_frame(rgbd_frame, sequence.camera)

        monkeypatch.setattr(workloads, "SlamSystem", FailingSystem)
        sequence = _Sequence([SimpleNamespace(index=index) for index in range(4)])
        spec = workloads.WorkloadSpec("fr1/desk", 320, 240, 4, 4, "sequential")
        window = workloads.TrackingRunner(spec, [sequence]).window(0.1)
        ledger = window.ledger
        sessions = len(window.sessions)
        assert sessions >= 2
        assert ledger.failed >= sessions - 1
        assert ledger.completed == sum(len(results) for results in window.sessions)
        assert all(len(results) <= 2 for results in window.sessions)
        assert len(ledger.latencies_s) == ledger.completed
        assert ledger.attempted == ledger.completed + ledger.failed


class TestDeterministicCounts:
    """Per-layer work counts repeat exactly for a fixed seed."""

    KEYS = {
        "backends.descriptors_computed",
        "matching.distance_evals",
        "geometry.ransac_iterations",
        "slam.map_size",
    }

    def _counts(self, spec, seed):
        runner = workloads.runner_for(spec, workloads.render(spec, seed))
        return layers.count_metrics(spec, runner.reference())

    def test_tracking_counts_repeat(self):
        spec = workloads.WorkloadSpec("fr1/desk", 320, 240, 30, 4, "sequential", draws=2)
        first = self._counts(spec, seed=3)
        second = self._counts(spec, seed=3)
        assert self.KEYS <= set(first)
        assert first == second
        assert first["matching.distance_evals"] > 0
        assert first["slam.map_size"] > 0

    def test_extraction_counts_repeat(self):
        spec = workloads.WorkloadSpec("fr1/desk", 320, 240, 3, 3, "cluster")
        first = self._counts(spec, seed=3)
        assert first == self._counts(spec, seed=3)
        assert first["backends.descriptors_computed"] > 0


def test_benchmark_json_matches_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [row["name"] for row in declared["workloads"]] == list(workloads.WORKLOADS)
    assert {row["name"]: row["unit"] for row in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert [
        (row["name"], row["unit"], row["better"]) for row in declared["per_layer"]
    ] == layers.PER_LAYER


def _run_python(code, cwd, timeout=60):
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )


def test_watchdog_ends_a_wedged_run_with_stacks():
    code = (
        "import sys, time; sys.path.insert(0, 'perfbench'); import run\n"
        "watchdog = run.Watchdog(0.5)\n"
        "watchdog.closers.append(lambda: print('server closed', file=sys.stderr))\n"
        "time.sleep(30)\n"
    )
    finished = _run_python(code, ROOT)
    assert finished.returncode == 3
    assert "stacks follow" in finished.stderr
    assert "server closed" in finished.stderr
    assert "time.sleep" in finished.stderr or "line 4" in finished.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track_desk_qvga",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert finished.returncode != 0
    assert finished.stdout == ""
