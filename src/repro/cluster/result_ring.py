"""Shared-memory result transport: the reverse-direction twin of the frame ring.

The inbound half of the cluster moves pixels zero-copy
(:class:`~repro.cluster.shared_ring.SharedFrameRing`); this module gives the
*return* path the same discipline.  Workers pack each
:class:`~repro.features.ExtractionResult` straight into a shared-memory slot
(:mod:`repro.serving.resultpack` flat layout) and push only a tiny
:class:`RingSlotRef` descriptor through the result queue; the collector
rebuilds the result with one memcpy (or a zero-copy view) and frees the
slot.  The descriptor is ~100 bytes where the pickled result is tens of
kilobytes — the last copy-heavy hop in the serving path.

**Why there is no cross-process lock.**  PR 7.5 learned the hard way that a
``multiprocessing`` lock held by a SIGKILLed worker wedges every survivor
(that is why result queues are per-worker).  The ring therefore partitions
its slots into per-worker *ranges* and runs a strict single-writer protocol
per flag word:

* a worker claims slots **only inside its own range** (flag ``0 -> 1``) —
  no two processes ever race a claim;
* the server alone frees (flag ``1 -> 0``) — after it has copied the
  packed bytes out, or when it force-reclaims a crashed worker's range.

Aligned 8-byte flag writes are atomic on every platform we run on, and the
result queue itself provides the happens-before edge: the worker finishes
writing the slot *before* it enqueues the descriptor, and the server frees
the slot *after* it dequeues and unpacks, so neither side ever reads a
half-written slot.  A SIGKILL at any instant leaves at worst some flags
stuck at ``1``; the supervisor drains the dead worker's result queue (so
descriptors flushed before death still complete their futures) and then
:meth:`SharedResultRing.reclaim_range` sweeps the range for the respawn.
Slots still in use at ``close()`` are the crash residue and are audited
into ``ClusterStats.leaked_slots`` (zero in a healthy run, asserted by the
chaos tests).

A worker whose range is momentarily exhausted — or whose result packs
larger than a slot — simply falls back to pickling the result into the
batch entry, exactly the pre-ring transport.  The fallback is a per-result
decision, so correctness never depends on ring capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from ..errors import ReproError

#: Flag value of a free slot (only the server writes 1 -> 0).
_FREE = 0
#: Flag value of a claimed slot (only the owning worker writes 0 -> 1).
_IN_USE = 1


@dataclass(frozen=True)
class ResultRingHandle:
    """Picklable attachment info handed to workers at spawn."""

    name: str
    num_ranges: int
    slots_per_range: int
    slot_bytes: int


@dataclass(frozen=True)
class RingSlotRef:
    """Queue descriptor for one packed result: *which* slot, *how many* bytes.

    This is the entire per-result payload the pipe carries on the zero-copy
    path (the batch tuple adds job id, latency and the error field).
    """

    slot: int
    nbytes: int


class SharedResultRing:
    """Per-worker slot pools workers pack extraction results into.

    Layout: ``num_ranges * slots_per_range`` int64 claim flags, followed by
    the same number of fixed-size data slots.  Worker ``w`` owns flags
    ``[w * slots_per_range, (w + 1) * slots_per_range)`` and may claim only
    there; the server frees anywhere.  See the module docstring for the
    crash-safety argument.
    """

    def __init__(
        self,
        num_ranges: int,
        slots_per_range: int,
        slot_bytes: int,
        *,
        _attach: Optional[ResultRingHandle] = None,
    ) -> None:
        if _attach is None:
            if num_ranges <= 0 or slots_per_range <= 0:
                raise ReproError("result ring needs positive range dimensions")
            if slot_bytes <= 0:
                raise ReproError("slot_bytes must be positive")
        self.num_ranges = num_ranges
        self.slots_per_range = slots_per_range
        self.slot_bytes = slot_bytes
        self.num_slots = num_ranges * slots_per_range
        flags_bytes = self.num_slots * 8
        total = flags_bytes + self.num_slots * slot_bytes
        if _attach is None:
            self._shm = shared_memory.SharedMemory(create=True, size=total)
            self._owner = True
        else:
            self._shm = shared_memory.SharedMemory(name=_attach.name)
            self._owner = False
        self._flags = np.ndarray(
            (self.num_slots,), dtype=np.int64, buffer=self._shm.buf
        )
        if self._owner:
            self._flags[:] = _FREE
        self._data_offset = flags_bytes
        self._closed = False

    @classmethod
    def attach(cls, handle: ResultRingHandle) -> "SharedResultRing":
        """Worker-side view over the server's ring (no ownership)."""
        return cls(
            handle.num_ranges,
            handle.slots_per_range,
            handle.slot_bytes,
            _attach=handle,
        )

    def handle(self) -> ResultRingHandle:
        """Picklable attachment info for :meth:`attach`."""
        return ResultRingHandle(
            self._shm.name, self.num_ranges, self.slots_per_range, self.slot_bytes
        )

    # -- worker side (single writer per range) ------------------------------
    def try_claim(self, range_id: int) -> Optional[int]:
        """Claim one free slot in ``range_id``'s own range, or ``None``.

        Non-blocking by design: a ``None`` means the worker's flushed
        results have not been collected yet, and the caller falls back to
        the pickle transport rather than waiting on the server.
        """
        if not 0 <= range_id < self.num_ranges:
            raise ReproError(
                f"range {range_id} outside ring of {self.num_ranges} ranges"
            )
        base = range_id * self.slots_per_range
        for slot in range(base, base + self.slots_per_range):
            if self._flags[slot] == _FREE:
                self._flags[slot] = _IN_USE
                return slot
        return None

    def slot_view(self, slot: int) -> np.ndarray:
        """Writable uint8 view of one slot's data bytes (zero-copy)."""
        if not 0 <= slot < self.num_slots:
            raise ReproError(f"slot {slot} outside ring of {self.num_slots} slots")
        return np.ndarray(
            (self.slot_bytes,),
            dtype=np.uint8,
            buffer=self._shm.buf,
            offset=self._data_offset + slot * self.slot_bytes,
        )

    # -- server side --------------------------------------------------------
    def free(self, slot: int) -> None:
        """Return one slot to its range after the descriptor was consumed."""
        if not 0 <= slot < self.num_slots:
            raise ReproError(f"slot {slot} outside ring of {self.num_slots} slots")
        self._flags[slot] = _FREE

    def reclaim_range(self, range_id: int) -> int:
        """Force-free every slot of a (dead) worker's range; returns count.

        Call only after the dead worker's result queue has been drained:
        a descriptor folded after its slot is reclaimed could read bytes a
        respawned worker is already overwriting.
        """
        if not 0 <= range_id < self.num_ranges:
            raise ReproError(
                f"range {range_id} outside ring of {self.num_ranges} ranges"
            )
        base = range_id * self.slots_per_range
        stuck = int(
            np.count_nonzero(self._flags[base : base + self.slots_per_range])
        )
        self._flags[base : base + self.slots_per_range] = _FREE
        return stuck

    def in_use(self) -> int:
        """Slots currently claimed across all ranges (close-time audit)."""
        return int(np.count_nonzero(self._flags))

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Detach; the owner also unlinks the shared block."""
        if self._closed:
            return
        self._closed = True
        self._flags = None  # drop the buffer export before closing the mmap
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedResultRing":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
