"""Chaos matrix: the cluster serves bit-identical results through faults.

Every scenario here drives a :class:`~repro.cluster.ClusterServer` through
seeded faults — worker kills, stalls, overload — and
asserts the robustness contract from ``docs/serving.md``: every submitted
frame either completes **bit-identical to sequential extraction, in
submission order**, or fails with a *structured* error carrying its
attempt history; no submission hangs; and after the storm the transport
audit shows **zero leaked slots** and the pool is back inside its bounds.

The host may have a single core, so the assertions are about correctness
and counters, never about timing or throughput.
"""

import os
import signal
import time
from dataclasses import replace

import pytest

from repro.chaos import FAULT_KINDS, FaultEvent, FaultPlan
from repro.cluster import (
    ClusterServer,
    ElasticityConfig,
    JobFailed,
    SupervisorConfig,
)
from repro.config import ExtractorConfig, PyramidConfig
from repro.errors import ReproError
from repro.features import OrbExtractor
from repro.image import random_blocks

ENGINES = ("reference", "vectorized", "hwexact")

#: Fast supervision for tests: immediate-ish restarts, short control ticks.
FAST_SUPERVISION = SupervisorConfig(
    restart_backoff_s=0.02, restart_backoff_max_s=0.2, heartbeat_timeout_s=30.0
)


@pytest.fixture(scope="module")
def chaos_config():
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=150,
    )


@pytest.fixture(scope="module")
def chaos_images():
    return [random_blocks(120, 160, block=9, seed=seed) for seed in range(12)]


def _feature_key(result):
    return result.feature_records()  # the repo-wide bit-identity key


def _sequential_baseline(config, images):
    extractor = OrbExtractor(config)
    return [_feature_key(extractor.extract(image)) for image in images]


def _wait_until(predicate, timeout_s=15.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


def _warm_up(server, images, count=2, sharded=False):
    """Serve a couple of frames so every worker has booted and beaten."""
    futures = [
        server.submit(
            images[index % len(images)],
            frame_id=1_000_000 + index,
            **({"shard_key": index} if sharded else {}),
        )
        for index in range(count)
    ]
    for future in futures:
        future.result(timeout=60)


class TestFaultPlan:
    def test_storm_is_deterministic(self):
        first = FaultPlan.storm(frames=64, every=8, num_workers=4, seed=3)
        second = FaultPlan.storm(frames=64, every=8, num_workers=4, seed=3)
        assert first.events == second.events
        assert len(first.events) == 7  # submits 8, 16, ..., 56

    def test_different_seed_different_storm(self):
        first = FaultPlan.storm(
            frames=64, every=4, kinds=FAULT_KINDS, num_workers=4, seed=1
        )
        second = FaultPlan.storm(
            frames=64, every=4, kinds=FAULT_KINDS, num_workers=4, seed=2
        )
        assert first.events != second.events

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            FaultEvent(at_submit=0, kind="meteor")

    def test_events_fire_at_most_once(self):
        plan = FaultPlan([FaultEvent(at_submit=2, kind="slow_frame")])
        plan.on_submit(server=None, job_id=2)
        plan.on_submit(server=None, job_id=2)
        assert len(plan.fired) == 1


class TestKillStorm:
    """The acceptance gate: seeded kill-every-N storm, per engine pair."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identical_in_order_through_kill_storm(
        self, engine, chaos_config, chaos_images
    ):
        config = replace(chaos_config, frontend=engine, backend=engine)
        baseline = _sequential_baseline(config, chaos_images)
        plan = FaultPlan.storm(
            frames=len(chaos_images), every=4, num_workers=2, seed=13
        )
        server = ClusterServer(
            config, num_workers=2, supervision=FAST_SUPERVISION, fault_plan=plan
        )
        with server:
            futures = [
                server.submit(image, frame_id=index)
                for index, image in enumerate(chaos_images)
            ]
            results = [future.result(timeout=120) for future in futures]
            served = [_feature_key(result) for result in results]
            assert served == baseline  # bit-identical AND in submission order
            assert plan.report()["fired_by_kind"] == {"kill": 2}
            assert server.stats.restarts > 0
            assert server.stats.requeued > 0
            # the pool healed: every killed worker slot is serving again
            assert _wait_until(lambda: len(server.alive_worker_ids()) == 2)
        report = server.stats.as_dict()
        assert report["leaked_slots"] == 0
        assert report["frames_failed"] == 0


class TestRestartInFlight:
    """Kill between ring write and result flush; every slot must come back."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_killed_in_flight_jobs_retry_and_reclaim(
        self, engine, chaos_config, chaos_images
    ):
        config = replace(chaos_config, frontend=engine, backend=engine)
        images = chaos_images[:4]
        baseline = _sequential_baseline(config, images)
        server = ClusterServer(
            config,
            num_workers=2,
            policy="by_sequence",
            max_in_flight=8,
            supervision=FAST_SUPERVISION,
        )
        with server:
            _warm_up(server, images, sharded=True)
            # stall the shard's worker so its jobs are provably in flight
            # (ring slot written + dispatched, result not flushed), then
            # kill it mid-flight
            assert server.chaos_stall(0, duration_s=30.0) == 0
            futures = [
                server.submit(image, shard_key=0, frame_id=index)
                for index, image in enumerate(images)
            ]
            time.sleep(0.2)  # let the dispatcher hand jobs to the victim
            assert server.chaos_kill(0) == 0
            served = [_feature_key(f.result(timeout=120)) for f in futures]
            assert served == baseline
            assert server.stats.requeued > 0
            assert server.stats.retries > 0  # dispatched jobs were re-run
            assert _wait_until(lambda: server.stats.restarts >= 1)
            # every frame-ring slot the killed worker held came back once
            # its requeued job completed — before the close-time audit
            assert server._ring.in_flight() == 0
        assert server.stats.as_dict()["leaked_slots"] == 0


class TestResultRingUnderChaos:
    """The result ring's own acceptance gate: kill storms with the
    zero-copy return path enabled leak no result slots and change no bits."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_kill_storm_with_ring_leaves_zero_leaked_result_slots(
        self, engine, chaos_config, chaos_images
    ):
        config = replace(chaos_config, frontend=engine, backend=engine)
        baseline = _sequential_baseline(config, chaos_images)
        plan = FaultPlan.storm(
            frames=len(chaos_images), every=4, num_workers=2, seed=29
        )
        server = ClusterServer(
            config,
            num_workers=2,
            supervision=FAST_SUPERVISION,
            fault_plan=plan,
            result_transport="ring",
        )
        with server:
            futures = [
                server.submit(image, frame_id=index)
                for index, image in enumerate(chaos_images)
            ]
            served = [_feature_key(f.result(timeout=120)) for f in futures]
            # every collected result freed its slot, and every slot a dead
            # worker left claimed was force-reclaimed at death — the ring
            # is already empty before the close-time audit even runs
            assert server._result_ring.in_use() == 0
        assert served == baseline  # bit-identical AND in submission order
        report = server.stats.as_dict()
        assert report["frames_failed"] == 0
        # descriptors flushed before each kill still completed zero-copy
        assert report["results_zero_copy"] > 0
        assert report["leaked_slots"] == 0

    def test_pickle_transport_survives_the_same_storm(
        self, chaos_config, chaos_images
    ):
        baseline = _sequential_baseline(chaos_config, chaos_images)
        plan = FaultPlan.storm(
            frames=len(chaos_images), every=4, num_workers=2, seed=29
        )
        server = ClusterServer(
            chaos_config,
            num_workers=2,
            supervision=FAST_SUPERVISION,
            fault_plan=plan,
            result_transport="pickle",
        )
        with server:
            futures = [
                server.submit(image, frame_id=index)
                for index, image in enumerate(chaos_images)
            ]
            served = [_feature_key(f.result(timeout=120)) for f in futures]
        assert served == baseline
        report = server.stats.as_dict()
        assert report["results_zero_copy"] == 0
        assert report["results_via_pickle"] >= len(chaos_images)
        assert report["leaked_slots"] == 0


class TestStallDetection:
    def test_stalled_worker_is_killed_restarted_and_jobs_requeued(
        self, chaos_config, chaos_images
    ):
        supervision = SupervisorConfig(
            restart_backoff_s=0.02,
            restart_backoff_max_s=0.2,
            heartbeat_timeout_s=0.5,
        )
        images = chaos_images[:3]
        baseline = _sequential_baseline(chaos_config, images)
        server = ClusterServer(
            chaos_config,
            num_workers=2,
            policy="by_sequence",
            max_in_flight=8,
            supervision=supervision,
        )
        with server:
            _warm_up(server, images, sharded=True)  # both workers have beaten
            assert server.chaos_stall(0, duration_s=60.0) == 0
            futures = [
                server.submit(image, shard_key=0, frame_id=index)
                for index, image in enumerate(images)
            ]
            # no manual kill: the supervisor must notice the flat heartbeat
            served = [_feature_key(f.result(timeout=120)) for f in futures]
        assert served == baseline
        report = server.stats.as_dict()
        assert report["restarts"] >= 1
        assert report["requeued"] >= 1
        assert report["leaked_slots"] == 0

    def test_worker_wedged_before_first_beat_is_reaped(
        self, chaos_config, chaos_images, monkeypatch, tmp_path
    ):
        """A worker that stops before its first heartbeat still ages out:
        the server stamps the spawn time into its heartbeat slot, so the
        stall clock runs from spawn, not from a beat that never comes."""
        baseline = _sequential_baseline(chaos_config, chaos_images[:1])
        parent_pid = os.getpid()
        marker = tmp_path / "wedged-once"
        original_init = OrbExtractor.__init__

        def wedge_first_worker_boot(self, *args, **kwargs):
            # forked workers inherit this patch; only the first one wedges,
            # so the respawned replacement boots normally
            if os.getpid() != parent_pid and not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGSTOP)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(OrbExtractor, "__init__", wedge_first_worker_boot)
        server = ClusterServer(
            chaos_config,
            num_workers=1,
            start_method="fork",
            supervision=replace(FAST_SUPERVISION, heartbeat_timeout_s=0.5),
        )
        with server:
            future = server.submit(chaos_images[0], frame_id=0)
            assert _feature_key(future.result(timeout=30)) == baseline[0]
            assert server.journal.events(kind="stall_kill")
        report = server.stats.as_dict()
        assert report["restarts"] >= 1
        assert report["retries"] >= 1  # the dispatched job ran again
        assert report["leaked_slots"] == 0


class TestDeadlines:
    def test_undispatched_jobs_expire_with_attempt_history(
        self, chaos_config, chaos_images
    ):
        server = ClusterServer(
            chaos_config,
            num_workers=1,
            max_in_flight=6,
            supervision=FAST_SUPERVISION,
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            assert server.chaos_stall(0, duration_s=1.0) == 0
            futures = [
                server.submit(image, frame_id=index, deadline_s=0.3)
                for index, image in enumerate(chaos_images[:6])
            ]
            outcomes = []
            for future in futures:
                try:
                    future.result(timeout=120)
                    outcomes.append("ok")
                except JobFailed as error:
                    assert error.attempts  # structured history, never bare
                    assert "deadline" in str(error)
                    outcomes.append("deadline")
            # the dispatch window reached the stalled worker: those frames
            # complete (late); the queued remainder expired at the deadline
            assert "deadline" in outcomes
        assert server.stats.as_dict()["leaked_slots"] == 0

    def test_dispatched_job_past_deadline_fails_at_worker_death(
        self, chaos_config, chaos_images
    ):
        server = ClusterServer(
            chaos_config, num_workers=1, supervision=FAST_SUPERVISION
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            assert server.chaos_stall(0, duration_s=60.0) == 0
            future = server.submit(chaos_images[0], frame_id=0, deadline_s=0.2)
            assert _wait_until(lambda: server._dispatched_count(0) > 0)
            time.sleep(0.3)  # push the job past its budget while in flight
            server.chaos_kill(0)
            with pytest.raises(JobFailed) as excinfo:
                future.result(timeout=120)
        assert excinfo.value.attempts
        assert excinfo.value.attempts[0].worker_id == 0
        assert "deadline" in str(excinfo.value)


class TestRetryBudget:
    def test_exhausted_retry_budget_fails_with_history(
        self, chaos_config, chaos_images
    ):
        supervision = replace(FAST_SUPERVISION, max_retries=0)
        server = ClusterServer(
            chaos_config, num_workers=1, supervision=supervision
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            assert server.chaos_stall(0, duration_s=60.0) == 0
            future = server.submit(chaos_images[0], frame_id=0)
            assert _wait_until(lambda: server._dispatched_count(0) > 0)
            server.chaos_kill(0)
            with pytest.raises(JobFailed) as excinfo:
                future.result(timeout=120)
        assert len(excinfo.value.attempts) == 1
        assert excinfo.value.attempts[0].worker_id == 0
        assert "retry budget" in str(excinfo.value)

    def test_budgeted_job_survives_within_budget(self, chaos_config, chaos_images):
        baseline = _sequential_baseline(chaos_config, chaos_images[:1])
        server = ClusterServer(
            chaos_config, num_workers=1, supervision=FAST_SUPERVISION
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            assert server.chaos_stall(0, duration_s=60.0) == 0
            future = server.submit(chaos_images[0], frame_id=0)
            assert _wait_until(lambda: server._dispatched_count(0) > 0)
            server.chaos_kill(0)  # attempt 1 of the default budget of 2
            assert _feature_key(future.result(timeout=120)) == baseline[0]
        report = server.stats.as_dict()
        assert report["retries"] >= 1
        assert report["restarts"] >= 1


class TestShedding:
    def test_fail_fast_sheds_when_saturated(self, chaos_config, chaos_images):
        server = ClusterServer(
            chaos_config, num_workers=1, max_in_flight=1, on_overload="fail_fast"
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            assert server.chaos_stall(0, duration_s=1.0) == 0
            first = server.submit(chaos_images[0], frame_id=0)
            with pytest.raises(JobFailed) as excinfo:
                server.submit(chaos_images[1], frame_id=1)
            assert "shed" in str(excinfo.value)
            assert excinfo.value.attempts[0].worker_id == -1
            first.result(timeout=120)  # completes once the stall lifts
        assert server.stats.as_dict()["shed"] == 1

    def test_degrade_to_local_is_bit_identical(self, chaos_config, chaos_images):
        baseline = _sequential_baseline(chaos_config, chaos_images[:2])
        server = ClusterServer(
            chaos_config,
            num_workers=1,
            max_in_flight=1,
            on_overload="degrade_to_local",
        )
        with server:
            _warm_up(server, chaos_images, count=1)
            assert server.chaos_stall(0, duration_s=1.0) == 0
            first = server.submit(chaos_images[0], frame_id=0)
            second = server.submit(chaos_images[1], frame_id=1)
            assert second.done()  # served synchronously in-process
            assert _feature_key(second.result()) == baseline[1]
            assert _feature_key(first.result(timeout=120)) == baseline[0]
        assert server.stats.as_dict()["shed"] == 1


class TestElasticity:
    def test_pool_grows_under_load_and_shrinks_back(
        self, chaos_config, chaos_images
    ):
        elasticity = ElasticityConfig(
            min_workers=1,
            max_workers=3,
            grow_at_queue_depth=1.0,
            shrink_idle_s=0.2,
        )
        server = ClusterServer(
            chaos_config,
            num_workers=1,
            max_in_flight=8,
            supervision=FAST_SUPERVISION,
            elasticity=elasticity,
        )
        with server:
            futures = [
                server.submit(image, frame_id=index)
                for index, image in enumerate(chaos_images)
            ]
            for future in futures:
                future.result(timeout=120)
            assert server.stats.pool_grows >= 1
            # retirement is two-phase: a retiring worker leaves the alive
            # set at once but counts as a shrink only after its process
            # exits, so wait for both rather than racing the second
            assert _wait_until(
                lambda: len(server.alive_worker_ids()) == 1
                and server.stats.pool_shrinks >= 1
            )
            assert 1 <= len(server.alive_worker_ids()) <= 3
        assert server.stats.as_dict()["leaked_slots"] == 0


class TestCloseRobustness:
    def test_close_is_idempotent_after_crash(self, chaos_config, chaos_images):
        server = ClusterServer(chaos_config, num_workers=2)
        future = server.submit(chaos_images[0], frame_id=0)
        future.result(timeout=60)
        server.kill_worker(0)
        server.close()
        server.close()  # second close must be a no-op, not a crash
        assert server.stats.as_dict()["leaked_slots"] == 0
        with pytest.raises(ReproError):
            server.submit(chaos_images[0])

    def test_close_reclaims_slots_killed_mid_flight(
        self, chaos_config, chaos_images
    ):
        # unsupervised: the killed worker's jobs fail, and close() must
        # still join cleanly and account every transport slot
        server = ClusterServer(
            chaos_config, num_workers=2, policy="by_sequence", max_in_flight=8
        )
        _warm_up(server, chaos_images, sharded=True)
        server.chaos_stall(0, duration_s=30.0)
        futures = [
            server.submit(image, shard_key=0, frame_id=index)
            for index, image in enumerate(chaos_images[:3])
        ]
        time.sleep(0.2)
        server.chaos_kill(0)
        for future in futures:
            with pytest.raises(ReproError):
                future.result(timeout=60)
        server.close()
        assert server.stats.as_dict()["leaked_slots"] == 0

    def test_workers_ignore_sigint(self, chaos_config, chaos_images):
        baseline = _sequential_baseline(chaos_config, chaos_images[:1])
        with ClusterServer(chaos_config, num_workers=1) as server:
            _warm_up(server, chaos_images, count=1)
            pid = server._processes[0].pid
            os.kill(pid, signal.SIGINT)  # Ctrl-C fans out to the group
            time.sleep(0.3)
            assert server._processes[0].exitcode is None  # still alive
            future = server.submit(chaos_images[0], frame_id=0)
            assert _feature_key(future.result(timeout=60)) == baseline[0]


class TestSlamDeadlinePassThrough:
    def test_frame_deadline_forwarded_to_server(self, chaos_config):
        from repro.config import SlamConfig
        from repro.dataset import SequenceSpec, make_sequence
        from repro.serving import FrameServer
        from repro.slam import SlamSystem

        slam_config = SlamConfig(extractor=chaos_config)
        sequence = make_sequence(
            SequenceSpec(
                name="fr1/xyz", num_frames=3, image_width=160, image_height=120
            )
        )
        system = SlamSystem(slam_config)
        with FrameServer(config=slam_config.extractor, max_workers=2) as frame_server:
            # a generous budget: every frame must serve inside it
            result = system.run(
                sequence, frame_server=frame_server, frame_deadline_s=60.0
            )
        assert len(result.frame_results) == 3
