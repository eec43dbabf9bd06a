"""Self-healing control plane for the process cluster.

The paper's FPGA datapath never dies; a production serving pool does.  This
module holds the two control-loop configurations and the supervisor thread
that keep a :class:`~repro.cluster.server.ClusterServer` serving through
worker crashes, stalls and load swings:

* **Supervision** (:class:`SupervisorConfig`) — watch every worker process
  (exit code + heartbeat), kill stalled workers, respawn dead ones with the
  same engine configuration under capped exponential backoff, and requeue
  their in-flight/backlog jobs through the router.  A job is retried at
  most ``max_retries`` times and only inside its optional per-job
  ``deadline_s``; past either budget it fails with a structured
  :class:`~repro.errors.JobFailed` carrying the full attempt history.
* **Elasticity** (:class:`ElasticityConfig`) — grow the pool toward
  ``max_workers`` while the aggregate queue runs deeper than
  ``grow_at_queue_depth`` frames per alive worker, and drain/retire
  workers that have sat idle for ``shrink_idle_s`` back down to
  ``min_workers``.  Shard policies already route against an ``alive`` load
  view, so membership changes need no routing changes at all.

The supervisor owns only the *decisions* (when to kill, respawn, grow,
shrink, expire); the *mechanics* (process spawning, job requeueing, slot
reclamation) live on the server so they share its locking discipline.
Failure semantics are documented in ``docs/serving.md``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (server imports us)
    from .server import ClusterServer

# re-exported here so cluster callers find the failure types next to the
# supervision configuration that produces them
from ..errors import JobAttempt, JobFailed  # noqa: F401

#: Worker lifecycle states tracked by :class:`~repro.cluster.WorkerStats`.
#: ``running`` serves; ``dead`` awaits a supervised restart; ``failed`` is
#: permanently gone (supervision off, or restart budget exhausted);
#: ``retiring``/``retired`` mark a graceful elastic drain.
WORKER_RUNNING = "running"
WORKER_DEAD = "dead"
WORKER_FAILED = "failed"
WORKER_RETIRING = "retiring"
WORKER_RETIRED = "retired"


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the worker supervision / retry loop.

    ``max_retries`` bounds how often one job may be requeued after worker
    deaths (the N+1-th death fails it with :class:`JobFailed`).
    ``heartbeat_timeout_s`` declares a worker *stalled* when it holds
    dispatched jobs but has not beaten for this long — it is then killed
    and restarted, and its jobs requeued, so the worst cost of a false
    positive (one genuinely slow frame) is a retry, never a wrong result.
    Restarts back off exponentially from ``restart_backoff_s`` doubling up
    to ``restart_backoff_max_s``; ``max_restarts`` (per worker, ``None`` =
    unlimited) turns a crash-looping worker into a permanent failure.
    """

    max_retries: int = 2
    heartbeat_timeout_s: float = 10.0
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 5.0
    max_restarts: Optional[int] = None
    interval_s: float = 0.02

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError("max_retries must be non-negative")
        if self.heartbeat_timeout_s <= 0.0:
            raise ReproError("heartbeat_timeout_s must be positive")
        if self.restart_backoff_s <= 0.0 or self.restart_backoff_max_s <= 0.0:
            raise ReproError("restart backoff values must be positive")
        if self.max_restarts is not None and self.max_restarts < 0:
            raise ReproError("max_restarts must be non-negative or None")


@dataclass(frozen=True)
class ElasticityConfig:
    """Knobs of the pool-sizing control loop.

    The pool grows (one worker per control tick) while the cluster-wide
    queue depth exceeds ``grow_at_queue_depth`` frames per alive worker
    and fewer than ``max_workers`` are alive; an alive worker beyond
    ``min_workers`` whose queue has been empty for ``shrink_idle_s`` is
    drained and retired.  ``target_latency_ms`` optionally adds a latency
    trigger: grow when the mean alive EWMA latency exceeds the target
    while frames are queued.
    """

    min_workers: int = 1
    max_workers: int = 4
    grow_at_queue_depth: float = 2.0
    shrink_idle_s: float = 1.0
    target_latency_ms: Optional[float] = None
    interval_s: float = 0.02

    def __post_init__(self) -> None:
        if self.min_workers <= 0:
            raise ReproError("min_workers must be positive")
        if self.max_workers < self.min_workers:
            raise ReproError("max_workers must be >= min_workers")
        if self.grow_at_queue_depth <= 0.0:
            raise ReproError("grow_at_queue_depth must be positive")
        if self.shrink_idle_s <= 0.0:
            raise ReproError("shrink_idle_s must be positive")


class Supervisor:
    """Control-loop thread: health, restarts, deadlines and pool sizing.

    One supervisor runs per server whenever supervision and/or elasticity
    is configured.  Every tick it (1) folds observed worker exits into the
    server's death handler, (2) kills workers whose heartbeat has stalled
    while they hold dispatched jobs, (3) respawns dead workers whose
    backoff window has passed, (4) expires queued jobs past their
    deadline, and (5) grows/shrinks the pool.  Ticks never raise: a
    failing respawn simply reschedules with a doubled backoff.
    """

    def __init__(
        self,
        server: "ClusterServer",
        supervision: Optional[SupervisorConfig],
        elasticity: Optional[ElasticityConfig],
    ) -> None:
        self._server = server
        self.supervision = supervision
        self.elasticity = elasticity
        intervals = [
            config.interval_s for config in (supervision, elasticity) if config
        ]
        self._interval_s = min(intervals) if intervals else 0.05
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="cluster-supervisor", daemon=True
        )
        # per-worker restart schedule: next allowed respawn time + current
        # backoff (doubles per respawn, capped); cleared when a worker has
        # proven itself by surviving a full max-backoff window
        self._next_restart_at: Dict[int, float] = {}
        self._backoff_s: Dict[int, float] = {}
        self._respawned_at: Dict[int, float] = {}
        self._idle_since: Dict[int, float] = {}

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout_s: float = 5.0) -> None:
        self._stop_event.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout_s)

    def _run(self) -> None:
        while not self._stop_event.wait(self._interval_s):
            try:
                self.tick()
            except Exception:
                # the control loop must outlive any single bad tick; the
                # next tick re-observes the same state and retries
                continue

    # -- one control tick --------------------------------------------------
    def tick(self) -> None:
        """One pass of every control loop (also callable from tests)."""
        server = self._server
        server._check_worker_health()
        if self.supervision is not None:
            self._kill_stalled_workers()
            self._respawn_dead_workers()
            server._expire_deadlines()
        if self.elasticity is not None:
            self._scale_pool()

    # -- supervision -------------------------------------------------------
    def _kill_stalled_workers(self) -> None:
        assert self.supervision is not None
        now = time.monotonic()
        for worker in list(self._server.stats.workers):
            worker_id = worker.worker_id
            if worker.state != WORKER_RUNNING:
                continue
            if self._server._dispatched_count(worker_id) <= 0:
                continue  # an idle worker parked on its queue cannot stall
            # the server stamps the spawn time into the slot, so a worker
            # wedged before its first beat ages out here like any stall
            beat = self._server._last_heartbeat(worker_id)
            if now - beat > self.supervision.heartbeat_timeout_s:
                self._server._kill_stalled_worker(
                    worker_id, stalled_for_s=now - beat
                )

    def _respawn_dead_workers(self) -> None:
        assert self.supervision is not None
        config = self.supervision
        now = time.monotonic()
        for worker in list(self._server.stats.workers):
            worker_id = worker.worker_id
            if worker.state != WORKER_DEAD:
                continue
            if (
                config.max_restarts is not None
                and worker.restarts >= config.max_restarts
            ):
                self._server._give_up_worker(worker_id)
                self._forget_schedule(worker_id)
                continue
            if worker_id not in self._next_restart_at:
                # first death restarts immediately; the backoff only paces
                # *repeated* deaths of the same worker slot
                survived = now - self._respawned_at.get(worker_id, 0.0)
                if survived > 2.0 * config.restart_backoff_max_s:
                    self._backoff_s.pop(worker_id, None)  # proven stable
                self._next_restart_at[worker_id] = now
            if now < self._next_restart_at[worker_id]:
                continue
            backoff = self._backoff_s.get(worker_id, config.restart_backoff_s)
            if self._server._respawn_worker(worker_id):
                self._respawned_at[worker_id] = time.monotonic()
                self._backoff_s[worker_id] = min(
                    2.0 * backoff, config.restart_backoff_max_s
                )
                del self._next_restart_at[worker_id]
            else:
                # spawn failed (or the server is closing): try again after
                # the capped backoff instead of spinning
                self._next_restart_at[worker_id] = now + backoff
                self._backoff_s[worker_id] = min(
                    2.0 * backoff, config.restart_backoff_max_s
                )
                self._server.journal.log(
                    "restart_backoff",
                    worker_id=worker_id,
                    backoff_s=round(backoff, 3),
                )

    def _forget_schedule(self, worker_id: int) -> None:
        self._next_restart_at.pop(worker_id, None)
        self._backoff_s.pop(worker_id, None)

    # -- elasticity --------------------------------------------------------
    def _scale_pool(self) -> None:
        assert self.elasticity is not None
        config = self.elasticity
        stats = self._server.stats
        alive = [worker for worker in stats.workers if worker.alive]
        if not alive:
            return  # restarts (supervision) own the empty-pool case
        queue_depth = stats.queue_depth
        should_grow = queue_depth > config.grow_at_queue_depth * len(alive)
        if config.target_latency_ms is not None and queue_depth > len(alive):
            mean_ewma_ms = 1000.0 * sum(
                worker.ewma_latency_s for worker in alive
            ) / len(alive)
            should_grow = should_grow or mean_ewma_ms > config.target_latency_ms
        if should_grow and len(alive) < config.max_workers:
            self._server._grow_pool()
            return  # one membership change per tick keeps the loop stable
        if len(alive) <= config.min_workers:
            self._idle_since.clear()
            return
        now = time.monotonic()
        for worker in alive:
            if worker.queue_depth == 0 and self._server._worker_is_idle(
                worker.worker_id
            ):
                idle_since = self._idle_since.setdefault(worker.worker_id, now)
                if now - idle_since >= config.shrink_idle_s:
                    if self._server._retire_worker(worker.worker_id):
                        self._idle_since.pop(worker.worker_id, None)
                        return  # one retirement per tick
            else:
                self._idle_since.pop(worker.worker_id, None)
