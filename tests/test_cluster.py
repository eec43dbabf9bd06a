"""ClusterServer: process-sharded serving, bit-identical to sequential.

The serving parity matrix runs sequential extraction, the thread
:class:`~repro.serving.FrameServer` and the process
:class:`~repro.cluster.ClusterServer` across every registered engine pair
and both shard policies; the remaining classes pin down the transport,
back-pressure, crash surfacing and the SLAM / batch-runner wiring.
"""

import time

import numpy as np
import pytest

from repro.analysis import BatchRunner
from repro.cluster import (
    ClusterServer,
    LeastLoadedPolicy,
    SharedFrameRing,
    SharedResultRing,
    WorkerLoad,
    available_policies,
    create_policy,
)
from repro.config import ExtractorConfig, PyramidConfig, SlamConfig, TrackerConfig
from repro.dataset import SequenceSpec, make_sequence
from repro.errors import ReproError
from repro.features import OrbExtractor
from repro.image import GrayImage, random_blocks
from repro.serving import FrameServer, FrameServing, stable_frame_id
from repro.slam import SlamSystem


@pytest.fixture(scope="module")
def cluster_config():
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=150,
    )


@pytest.fixture(scope="module")
def cluster_images():
    return [random_blocks(120, 160, block=9, seed=seed) for seed in range(5)]


def _feature_key(result):
    return result.feature_records()  # the repo-wide bit-identity key


class TestSharedFrameRing:
    def test_write_then_view_roundtrip(self, cluster_images):
        pixels = cluster_images[0].pixels
        with SharedFrameRing(num_slots=2, slot_bytes=pixels.size) as ring:
            slot = ring.acquire()
            height, width = ring.write(slot, pixels)
            from multiprocessing import shared_memory

            from repro.cluster.shared_ring import attach_slot_view

            shm = shared_memory.SharedMemory(name=ring.name)
            try:
                view = attach_slot_view(shm, slot, pixels.size, height, width)
                assert np.array_equal(view, pixels)
            finally:
                del view  # drop the buffer reference before closing the map
                shm.close()
            ring.release(slot)

    def test_backpressure_and_release(self):
        with SharedFrameRing(num_slots=2, slot_bytes=16) as ring:
            first = ring.acquire()
            second = ring.acquire()
            assert {first, second} == {0, 1}
            assert ring.in_flight() == 2
            assert ring.acquire(timeout=0.05) is None  # full: back-pressure
            ring.release(first)
            assert ring.acquire(timeout=0.05) == first

    def test_double_release_rejected(self):
        with SharedFrameRing(num_slots=1, slot_bytes=16) as ring:
            slot = ring.acquire()
            ring.release(slot)
            with pytest.raises(ReproError):
                ring.release(slot)

    def test_oversize_frame_rejected(self):
        with SharedFrameRing(num_slots=1, slot_bytes=4) as ring:
            slot = ring.acquire()
            with pytest.raises(ReproError):
                ring.write(slot, np.zeros((3, 3), dtype=np.uint8))
            ring.release(slot)


class TestServingParityMatrix:
    """sequential == FrameServer == ClusterServer, every engine x policy."""

    @pytest.fixture(scope="class")
    def sequential_by_engine(self, cluster_config, cluster_images):
        from dataclasses import replace

        results = {}
        for engine in ("reference", "vectorized", "hwexact"):
            config = replace(cluster_config, frontend=engine, backend=engine)
            extractor = OrbExtractor(config)
            results[engine] = [extractor.extract(image) for image in cluster_images]
        return results

    @pytest.mark.parametrize("engine", ["reference", "vectorized", "hwexact"])
    @pytest.mark.parametrize("policy", ["round_robin", "by_sequence"])
    def test_cluster_bit_identical_to_sequential(
        self, engine, policy, cluster_config, cluster_images, sequential_by_engine
    ):
        from dataclasses import replace

        config = replace(cluster_config, frontend=engine, backend=engine)
        sequential = sequential_by_engine[engine]
        shard_keys = (
            [index % 2 for index in range(len(cluster_images))]
            if policy == "by_sequence"
            else None
        )
        with ClusterServer(config, num_workers=2, policy=policy) as server:
            served = server.extract_many(cluster_images, shard_keys=shard_keys)
        assert len(served) == len(sequential)
        for seq_result, cluster_result in zip(sequential, served):
            assert _feature_key(seq_result) == _feature_key(cluster_result)
            assert vars(seq_result.profile) == vars(cluster_result.profile)

    @pytest.mark.parametrize("engine", ["reference", "vectorized", "hwexact"])
    def test_thread_server_agrees_with_cluster(
        self, engine, cluster_config, cluster_images, sequential_by_engine
    ):
        from dataclasses import replace

        config = replace(cluster_config, frontend=engine, backend=engine)
        with FrameServer(config=config, max_workers=2) as server:
            threaded = server.extract_many(cluster_images)
        for seq_result, thread_result in zip(sequential_by_engine[engine], threaded):
            assert _feature_key(seq_result) == _feature_key(thread_result)


class TestClusterServer:
    def test_satisfies_serving_protocol(self, cluster_config):
        with ClusterServer(cluster_config, num_workers=1) as server:
            assert isinstance(server, FrameServing)
            assert server.extractor_config == cluster_config

    def test_stats_and_bounded_in_flight(self, cluster_config, cluster_images):
        with ClusterServer(
            cluster_config, num_workers=2, max_in_flight=3
        ) as server:
            server.extract_many(cluster_images)
            stats = server.stats
        assert stats.frames_submitted == len(cluster_images)
        assert stats.frames_completed == len(cluster_images)
        assert stats.frames_failed == 0
        assert 1 <= stats.max_in_flight <= 3
        assert stats.queue_depth == 0
        assert stats.latency_p50_ms > 0.0
        assert stats.latency_p95_ms >= stats.latency_p50_ms
        assert stats.throughput_fps > 0.0
        per_worker = sum(worker.frames_completed for worker in stats.workers)
        assert per_worker == len(cluster_images)
        assert all(worker.queue_depth == 0 for worker in stats.workers)
        report = stats.as_dict()
        assert report["frames_completed"] == len(cluster_images)
        assert len(report["workers"]) == 2

    def test_round_robin_spreads_frames(self, cluster_config, cluster_images):
        with ClusterServer(cluster_config, num_workers=2) as server:
            server.extract_many(cluster_images[:4])
            counts = [worker.frames_completed for worker in server.stats.workers]
        assert counts == [2, 2]

    def test_by_sequence_pins_key_to_one_worker(self, cluster_config, cluster_images):
        with ClusterServer(
            cluster_config, num_workers=2, policy="by_sequence"
        ) as server:
            server.extract_many(cluster_images[:4], shard_keys=[1, 1, 1, 1])
            counts = [worker.frames_completed for worker in server.stats.workers]
        assert counts == [0, 4]

    def test_by_sequence_requires_shard_key(self, cluster_config, cluster_images):
        with ClusterServer(
            cluster_config, num_workers=2, policy="by_sequence"
        ) as server:
            with pytest.raises(ReproError):
                server.submit(cluster_images[0])

    def test_submit_after_close_rejected(self, cluster_config, cluster_images):
        server = ClusterServer(cluster_config, num_workers=1)
        server.close()
        with pytest.raises(ReproError):
            server.submit(cluster_images[0])

    def test_close_is_idempotent(self, cluster_config):
        server = ClusterServer(cluster_config, num_workers=1)
        server.close()
        server.close()

    def test_invalid_configuration_rejected(self, cluster_config):
        with pytest.raises(ReproError):
            ClusterServer(cluster_config, num_workers=0)
        with pytest.raises(ReproError):
            ClusterServer(cluster_config, num_workers=4, max_in_flight=2)
        with pytest.raises(ReproError) as excinfo:
            ClusterServer(cluster_config, policy="nope")
        for name in available_policies():
            assert name in str(excinfo.value)

    def test_oversize_frame_rejected_at_submit(self, cluster_config):
        big = GrayImage(np.zeros((240, 320), dtype=np.uint8))
        with ClusterServer(cluster_config, num_workers=1) as server:
            with pytest.raises(ReproError):
                server.submit(big)
            # the reserved slot was returned: serving still works afterwards
            small = GrayImage(np.zeros((120, 160), dtype=np.uint8))
            assert server.submit(small).result(timeout=30) is not None

    def test_negative_frame_id_rejected(self, cluster_config, cluster_images):
        with ClusterServer(cluster_config, num_workers=1) as server:
            with pytest.raises(ReproError):
                server.submit(cluster_images[0], frame_id=-1)


class TestClusterCrash:
    def test_killed_worker_fails_its_frames_and_spares_others(
        self, cluster_config, cluster_images
    ):
        with ClusterServer(cluster_config, num_workers=2) as server:
            server.extract_many(cluster_images[:2])  # jobs 0, 1: warm both workers
            process = server._processes[0]
            process.kill()
            process.join()
            futures = [server.submit(image) for image in cluster_images[:2]]
            with pytest.raises(ReproError, match="died"):
                futures[0].result(timeout=30)  # job 2 -> dead worker 0
            assert len(futures[1].result(timeout=30).features) > 0  # worker 1 lives
            assert not server.stats.workers[0].alive
            assert server.stats.frames_failed >= 1

    def test_submit_to_dead_worker_rejected(self, cluster_config, cluster_images):
        with ClusterServer(cluster_config, num_workers=2) as server:
            server.kill_worker(0)
            with pytest.raises(ReproError, match="died"):
                # round-robin hits worker 0 within two submissions
                for image in cluster_images[:2]:
                    server.submit(image)

    def test_all_workers_dead_halts_serving(self, cluster_config, cluster_images):
        with ClusterServer(cluster_config, num_workers=2) as server:
            server.kill_worker(0)
            server.kill_worker(1)
            with pytest.raises(ReproError):
                server.extract_many(cluster_images[:2])


class TestClusterSlam:
    @pytest.fixture(scope="class")
    def slam_setup(self, cluster_config):
        config = SlamConfig(
            extractor=cluster_config,
            tracker=TrackerConfig(ransac_iterations=32, pose_iterations=6),
        )
        sequence = make_sequence(
            SequenceSpec(name="fr1/xyz", num_frames=5, image_width=160, image_height=120)
        )
        return config, sequence

    def test_pipelined_run_identical(self, slam_setup):
        config, sequence = slam_setup
        sequential = SlamSystem(config).run(sequence)
        with ClusterServer(config.extractor, num_workers=2) as server:
            served = SlamSystem(config).run(sequence, frame_server=server)
        assert served.num_frames == sequential.num_frames
        assert served.ate().mean_cm == sequential.ate().mean_cm
        for a, b in zip(sequential.frame_results, served.frame_results):
            assert a.num_matches == b.num_matches
            assert a.num_inliers == b.num_inliers
            assert np.array_equal(a.pose.rotation, b.pose.rotation)
            assert np.array_equal(a.pose.translation, b.pose.translation)

    def test_sequence_handle_pins_run_to_one_worker(self, slam_setup):
        config, sequence = slam_setup
        sequential = SlamSystem(config).run(sequence)
        with ClusterServer(
            config.extractor, num_workers=2, policy="by_sequence"
        ) as server:
            handle = server.sequence_handle(1)
            served = SlamSystem(config).run(sequence, frame_server=handle)
            counts = [worker.frames_completed for worker in server.stats.workers]
        assert served.ate().mean_cm == sequential.ate().mean_cm
        assert counts[0] == 0 and counts[1] == sequential.num_frames

    def test_mismatched_server_config_rejected(self, slam_setup):
        config, sequence = slam_setup
        other = ExtractorConfig(image_width=64, image_height=64)
        with ClusterServer(other, num_workers=1) as server:
            with pytest.raises(ReproError):
                SlamSystem(config).run(sequence, frame_server=server)


class TestMultiprocessBatchRunner:
    def test_multiprocess_sweep_identical_to_sequential(self, cluster_config):
        config = SlamConfig(
            extractor=cluster_config,
            tracker=TrackerConfig(ransac_iterations=32, pose_iterations=6),
        )
        specs = [
            SequenceSpec(name=name, num_frames=3, image_width=160, image_height=120)
            for name in ("fr1/xyz", "fr1/desk", "fr2/rpy")
        ]
        sequential = BatchRunner(config=config)
        sharded = BatchRunner(config=config)
        seq_records = sequential.run_all(specs)
        mp_records = sharded.run_all_multiprocess(specs, num_workers=2)
        assert mp_records == seq_records
        assert sharded.records == sequential.records  # appended in spec order

    def test_invalid_worker_count_rejected(self, cluster_config):
        runner = BatchRunner(config=SlamConfig(extractor=cluster_config))
        with pytest.raises(ReproError):
            runner.run_all_multiprocess([], num_workers=0)

    def test_mismatched_resolution_fails_fast(self, cluster_config):
        runner = BatchRunner(config=SlamConfig(extractor=cluster_config))
        bad = [SequenceSpec(name="fr1/xyz", num_frames=2, image_width=64, image_height=64)]
        with pytest.raises(ReproError):
            runner.run_all_multiprocess(bad, num_workers=1)


class TestConditionVariableBackPressure:
    """The ring's free pool is a condition variable, not a poll loop."""

    def test_blocked_acquire_wakes_on_release(self):
        import threading

        with SharedFrameRing(num_slots=1, slot_bytes=16) as ring:
            slot = ring.acquire()
            woken = []
            waiter = threading.Thread(
                target=lambda: woken.append(ring.acquire(timeout=5.0))
            )
            waiter.start()
            time.sleep(0.05)  # let the waiter park on the condition variable
            ring.release(slot)
            waiter.join(timeout=1.0)  # a notify wake, not a poll tick
            assert not waiter.is_alive()
            assert woken == [slot]

    def test_blocked_acquire_raises_on_close(self):
        import threading

        ring = SharedFrameRing(num_slots=1, slot_bytes=16)
        ring.acquire()
        errors = []

        def wait_for_slot():
            try:
                ring.acquire(timeout=5.0)
            except ReproError as error:
                errors.append(error)

        waiter = threading.Thread(target=wait_for_slot)
        waiter.start()
        time.sleep(0.05)
        ring.close()  # waiters must be released immediately, not time out
        waiter.join(timeout=1.0)
        assert not waiter.is_alive()
        assert len(errors) == 1


def _make_loads(*specs):
    """WorkerLoad list from (queue_depth, ewma_latency_s, alive) triples."""
    return [
        WorkerLoad(worker_id=index, queue_depth=depth, ewma_latency_s=ewma, alive=alive)
        for index, (depth, ewma, alive) in enumerate(specs)
    ]


class TestLeastLoadedPolicy:
    def test_registered_in_policy_registry(self):
        assert "least_loaded" in available_policies()
        assert isinstance(create_policy("least_loaded"), LeastLoadedPolicy)

    def test_picks_shallowest_queue(self):
        policy = LeastLoadedPolicy()
        loads = _make_loads((5, 0.01, True), (1, 0.01, True), (3, 0.01, True))
        assert policy.route(0, None, 3, loads=loads) == 1

    def test_routes_around_stalled_worker(self):
        # a stalled worker keeps its backlog (deep queue, climbing EWMA);
        # the policy must send new frames to the responsive one
        policy = LeastLoadedPolicy()
        loads = _make_loads((6, 2.5, True), (0, 0.01, True))
        assert policy.route(0, None, 2, loads=loads) == 1

    def test_skips_dead_workers(self):
        policy = LeastLoadedPolicy()
        loads = _make_loads((0, 0.0, False), (4, 0.1, True))
        assert policy.route(0, None, 2, loads=loads) == 1

    def test_tie_breaks_by_latency_then_worker_id(self):
        policy = LeastLoadedPolicy()
        by_latency = _make_loads((2, 0.5, True), (2, 0.1, True))
        assert policy.route(0, None, 2, loads=by_latency) == 1
        by_id = _make_loads((2, 0.1, True), (2, 0.1, True))
        assert policy.route(0, None, 2, loads=by_id) == 0

    def test_no_load_view_falls_back_to_round_robin(self):
        policy = LeastLoadedPolicy()
        assert policy.route(7, None, 3, loads=None) == 1

    def test_no_alive_worker_raises(self):
        policy = LeastLoadedPolicy()
        with pytest.raises(ReproError):
            policy.route(0, None, 2, loads=_make_loads((0, 0.0, False), (0, 0.0, False)))

    def test_server_routes_around_killed_worker(self, cluster_config, cluster_images):
        with ClusterServer(cluster_config, num_workers=2, policy="least_loaded") as server:
            server.kill_worker(0)
            served = server.extract_many(cluster_images)
            counts = [worker.frames_completed for worker in server.stats.workers]
        assert len(served) == len(cluster_images)
        assert counts[0] == 0 and counts[1] == len(cluster_images)


class TestWorkStealing:
    @pytest.mark.parametrize("engine", ["reference", "vectorized", "hwexact"])
    def test_stealing_bit_exact_across_engines(
        self, engine, cluster_config, cluster_images
    ):
        """Stealing moves where a job runs, never what it computes."""
        from dataclasses import replace

        config = replace(cluster_config, frontend=engine, backend=engine)
        extractor = OrbExtractor(config)
        sequential = [extractor.extract(image) for image in cluster_images] * 3
        images = cluster_images * 3
        # by_sequence pins every frame to one worker: without stealing the
        # other worker would idle while a backlog builds
        shard_keys = [1] * len(images)
        with ClusterServer(
            config,
            num_workers=2,
            policy="by_sequence",
            max_in_flight=8,
            work_stealing=True,
        ) as server:
            served = server.extract_many(images, shard_keys=shard_keys)
            steals = server.stats.steals
            counts = [worker.frames_completed for worker in server.stats.workers]
        assert steals > 0
        assert min(counts) > 0  # the idle worker drained the hot backlog
        assert sum(counts) == len(images)
        for seq_result, cluster_result in zip(sequential, served):
            assert _feature_key(seq_result) == _feature_key(cluster_result)
            assert vars(seq_result.profile) == vars(cluster_result.profile)

    def test_stealing_off_by_default_preserves_affinity(
        self, cluster_config, cluster_images
    ):
        with ClusterServer(cluster_config, num_workers=2, policy="by_sequence") as server:
            shard_key = 0
            target = server.policy.route(0, shard_key, 2)
            server.extract_many(cluster_images, shard_keys=[shard_key] * len(cluster_images))
            counts = [worker.frames_completed for worker in server.stats.workers]
            steals = server.stats.steals
        assert steals == 0
        assert counts[target] == len(cluster_images)
        assert counts[1 - target] == 0

    def test_steal_counters_in_stats_dict(self, cluster_config, cluster_images):
        with ClusterServer(
            cluster_config, num_workers=2, work_stealing=True, max_in_flight=8
        ) as server:
            server.extract_many(cluster_images * 2)
            stats = server.stats.as_dict()
        assert "steals" in stats
        assert stats["steals"] == sum(worker["steals"] for worker in stats["workers"])
        for worker in stats["workers"]:
            assert "ewma_latency_ms" in worker and worker["ewma_latency_ms"] > 0.0


class TestSharedResultRing:
    def test_claim_write_free_cycle(self):
        with SharedResultRing(2, 3, slot_bytes=64) as ring:
            slot = ring.try_claim(1)
            assert slot is not None and 3 <= slot < 6  # inside range 1
            view = ring.slot_view(slot)
            view[:4] = [1, 2, 3, 4]
            assert ring.in_use() == 1
            ring.free(slot)
            assert ring.in_use() == 0

    def test_exhausted_range_returns_none_not_blocks(self):
        with SharedResultRing(2, 2, slot_bytes=8) as ring:
            assert ring.try_claim(0) is not None
            assert ring.try_claim(0) is not None
            assert ring.try_claim(0) is None  # own range full
            assert ring.try_claim(1) is not None  # other range unaffected

    def test_reclaim_range_frees_only_the_dead_workers_slots(self):
        with SharedResultRing(2, 2, slot_bytes=8) as ring:
            ring.try_claim(0)
            survivor = ring.try_claim(1)
            assert ring.reclaim_range(0) == 1
            assert ring.in_use() == 1  # the survivor's slot is untouched
            ring.free(survivor)

    def test_attach_sees_owner_claims(self):
        with SharedResultRing(1, 2, slot_bytes=32) as ring:
            attached = SharedResultRing.attach(ring.handle())
            slot = attached.try_claim(0)
            attached.slot_view(slot)[:3] = [7, 8, 9]
            assert ring.in_use() == 1
            assert list(ring.slot_view(slot)[:3]) == [7, 8, 9]
            attached.close()

    def test_rejects_bad_geometry_and_ranges(self):
        with pytest.raises(ReproError):
            SharedResultRing(0, 1, slot_bytes=8)
        with SharedResultRing(1, 1, slot_bytes=8) as ring:
            with pytest.raises(ReproError):
                ring.try_claim(5)
            with pytest.raises(ReproError):
                ring.free(99)


class TestResultTransport:
    def test_ring_transport_counts_zero_copy_results(
        self, cluster_config, cluster_images
    ):
        with ClusterServer(cluster_config, num_workers=2) as server:
            expected = [
                OrbExtractor(cluster_config).extract(image)
                for image in cluster_images
            ]
            served = server.extract_many(cluster_images)
            report = server.stats.as_dict()
        for seq_result, cluster_result in zip(expected, served):
            assert _feature_key(seq_result) == _feature_key(cluster_result)
        assert report["results_zero_copy"] == len(cluster_images)
        assert report["results_via_pickle"] == 0
        assert report["result_bytes_saved"] > 0
        assert report["leaked_slots"] == 0

    def test_pickle_transport_is_bit_identical(self, cluster_config, cluster_images):
        with ClusterServer(
            cluster_config, num_workers=2, result_transport="pickle"
        ) as server:
            expected = [
                OrbExtractor(cluster_config).extract(image)
                for image in cluster_images
            ]
            served = server.extract_many(cluster_images)
            report = server.stats.as_dict()
        for seq_result, cluster_result in zip(expected, served):
            assert _feature_key(seq_result) == _feature_key(cluster_result)
        assert report["results_zero_copy"] == 0
        assert report["results_via_pickle"] == len(cluster_images)
        assert report["result_bytes_saved"] == 0

    def test_result_batch_of_one_flushes_every_result(
        self, cluster_config, cluster_images
    ):
        with ClusterServer(cluster_config, num_workers=1, result_batch=1) as server:
            served = server.extract_many(cluster_images)
            report = server.stats.as_dict()
        assert len(served) == len(cluster_images)
        assert report["results_zero_copy"] == len(cluster_images)

    def test_invalid_transport_knobs_rejected(self, cluster_config):
        with pytest.raises(ReproError, match="result_transport"):
            ClusterServer(cluster_config, result_transport="carrier_pigeon")
        with pytest.raises(ReproError, match="result_batch"):
            ClusterServer(cluster_config, result_batch=0)


class TestStableFrameIds:
    def test_stable_and_collision_resistant(self):
        base = stable_frame_id("fr1/xyz", 3)
        assert base == stable_frame_id("fr1/xyz", 3)  # deterministic
        assert base >= 0
        assert stable_frame_id("fr1/xyz", 4) == base + 1  # index in low bits
        assert stable_frame_id("fr1/desk", 3) != base  # sequences separated
        with pytest.raises(ReproError):
            stable_frame_id("fr1/xyz", -1)
