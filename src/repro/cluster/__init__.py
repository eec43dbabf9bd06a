"""Multi-process sharded serving with shared-memory frame transport.

:class:`ClusterServer` spawns N worker processes, each owning one
engine/backend pair, and streams frames to them through
``multiprocessing.shared_memory`` ring slots (no pixel pickling).  Results
return the same way: workers pack each extraction result's flat arrays
into a :class:`SharedResultRing` slot and the result queues carry only
tiny descriptors (``docs/serving.md`` → Result transport).  It mirrors
the thread server's semantics — bounded in-flight back-pressure, in-order
results, bit-identical extraction — while scaling past the single GIL.
Placement is pluggable (``round_robin``, ``by_sequence``, load-aware
``least_loaded``) with optional work stealing between worker backlogs.
With a :class:`SupervisorConfig` the cluster self-heals (crashed workers
respawn, their jobs requeue under retry/deadline budgets) and with an
:class:`ElasticityConfig` the pool grows and shrinks with load.  See
``docs/serving.md`` for when to pick which server and policy, and its
"Failure semantics" section for the supervision/elasticity rules.
"""

from ..errors import JobAttempt, JobFailed
from .router import (
    BySequencePolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    ShardPolicy,
    WorkerLoad,
    available_policies,
    create_policy,
    register_policy,
    route_to_alive,
)
from .result_ring import ResultRingHandle, RingSlotRef, SharedResultRing
from .server import ClusterServer, ClusterStats, WorkerStats
from .shared_ring import SharedFrameRing
from .supervisor import (
    WORKER_DEAD,
    WORKER_FAILED,
    WORKER_RETIRED,
    WORKER_RETIRING,
    WORKER_RUNNING,
    ElasticityConfig,
    Supervisor,
    SupervisorConfig,
)

__all__ = [
    "ClusterServer",
    "ClusterStats",
    "WorkerStats",
    "SharedFrameRing",
    "SharedResultRing",
    "ResultRingHandle",
    "RingSlotRef",
    "ShardPolicy",
    "RoundRobinPolicy",
    "BySequencePolicy",
    "LeastLoadedPolicy",
    "WorkerLoad",
    "available_policies",
    "create_policy",
    "register_policy",
    "route_to_alive",
    "Supervisor",
    "SupervisorConfig",
    "ElasticityConfig",
    "JobAttempt",
    "JobFailed",
    "WORKER_RUNNING",
    "WORKER_DEAD",
    "WORKER_FAILED",
    "WORKER_RETIRING",
    "WORKER_RETIRED",
]
