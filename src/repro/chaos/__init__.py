"""Chaos engineering for the serving stack: seeded, replayable fault plans.

:class:`FaultPlan` schedules worker kills, worker stalls and slow
frames against submission indices of a
:class:`~repro.cluster.ClusterServer`, replacing ad-hoc ``kill_worker``
poking with a deterministic storm the chaos tests (``tests/test_chaos.py``)
and the recovery benchmark (``benchmarks/bench_chaos_recovery.py``) can
replay exactly.  See ``docs/serving.md`` → Failure semantics.
"""

from .plan import FAULT_KINDS, FaultEvent, FaultPlan, FiredFault

__all__ = ["FaultPlan", "FaultEvent", "FiredFault", "FAULT_KINDS"]
