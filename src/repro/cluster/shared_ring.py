"""Shared-memory frame transport for the process-sharded serving layer.

The hardware front-end of the paper never copies a frame between pipeline
stages: pixels stream once from SDRAM through line-buffer FIFOs.  The
process cluster gets the same property from a :class:`SharedFrameRing` — a
single ``multiprocessing.shared_memory`` block divided into fixed-size
slots.  The producer writes a frame's pixels into a free slot (one memcpy
out of the producer's heap), hands the *slot index* to a worker through a
tiny control message, and the worker maps a zero-copy numpy view over the
same physical pages.  No pixel data is ever pickled or pushed through a
pipe.

Slot lifecycle mirrors the hardware FIFO's back-pressure: ``acquire()``
blocks while every slot is in flight, and a slot only returns to the free
pool after the worker's result has been collected (the worker is guaranteed
to have finished reading by then, because extraction results never
reference the input pixels).  The free pool is guarded by a condition
variable, so a producer parked on a full ring wakes the moment a slot is
released (microseconds), not on the next poll tick.

The ring is the cluster's only inbound transport: every frame takes one
slot, and the worker builds the frame's pyramid from its view of it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from multiprocessing import shared_memory
from typing import Optional, Tuple

import numpy as np

from ..errors import ReproError


class SharedFrameRing:
    """Owner side of the shared-memory frame slots (producer process).

    Parameters
    ----------
    num_slots:
        Number of frames that can be in flight simultaneously; this is the
        cluster's back-pressure bound.
    slot_bytes:
        Capacity of one slot in bytes (``height * width`` of the largest
        frame the ring must carry).
    """

    def __init__(self, num_slots: int, slot_bytes: int) -> None:
        if num_slots <= 0:
            raise ReproError("num_slots must be positive")
        if slot_bytes <= 0:
            raise ReproError("slot_bytes must be positive")
        self.num_slots = num_slots
        self.slot_bytes = slot_bytes
        self._shm = shared_memory.SharedMemory(
            create=True, size=num_slots * slot_bytes
        )
        self._free: deque[int] = deque(range(num_slots))
        # one condition variable guards the free pool: release() notifies,
        # so a blocked acquire() wakes immediately instead of polling
        self._cv = threading.Condition()
        self._closed = False

    @property
    def name(self) -> str:
        """System-wide name workers use to attach to the same pages."""
        return self._shm.name

    # -- producer side ----------------------------------------------------
    def acquire(self, timeout: Optional[float] = None) -> Optional[int]:
        """Reserve a free slot index; ``None`` on timeout (back-pressure).

        Blocks on the condition variable until a slot is released (wake-up
        latency is a notify, not a poll tick).  Raises when the ring is
        closed — including while waiting, so producers blocked across a
        teardown are released instead of timing out.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._cv:
            while True:
                if self._closed:
                    raise ReproError("shared frame ring is closed")
                if self._free:
                    return self._free.popleft()
                if deadline is None:
                    self._cv.wait()
                else:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0.0 or not self._cv.wait(remaining):
                        return None

    def release(self, slot: int) -> None:
        """Return ``slot`` to the free pool once its frame is fully consumed."""
        if not 0 <= slot < self.num_slots:
            raise ReproError(f"slot {slot} outside ring of {self.num_slots} slots")
        with self._cv:
            if slot in self._free:
                raise ReproError(f"slot {slot} released twice")
            self._free.append(slot)
            self._cv.notify()

    def write(self, slot: int, pixels: np.ndarray) -> Tuple[int, int]:
        """Copy ``pixels`` (2-D uint8) into ``slot``; returns ``(height, width)``.

        This is the single copy of the transport: producer heap -> shared
        pages.  The consumer side reads the same pages with no further copy.
        """
        if pixels.ndim != 2 or pixels.dtype != np.uint8:
            raise ReproError("frame slots carry 2-D uint8 pixel arrays")
        height, width = pixels.shape
        if height * width > self.slot_bytes:
            raise ReproError(
                f"frame of {height}x{width} pixels exceeds the ring slot "
                f"capacity of {self.slot_bytes} bytes"
            )
        view = np.ndarray(
            (height, width),
            dtype=np.uint8,
            buffer=self._shm.buf,
            offset=slot * self.slot_bytes,
        )
        view[:] = pixels
        return height, width

    def in_flight(self) -> int:
        """Number of slots currently reserved (for stats / queue depth)."""
        with self._cv:
            return self.num_slots - len(self._free)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release the shared block (owner unlinks; workers just detach)."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()  # waiters wake and raise instead of hanging
        try:
            self._shm.close()
        finally:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already unlinked (double close paths)
                pass

    def __enter__(self) -> "SharedFrameRing":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def attach_slot_view(
    shm: shared_memory.SharedMemory,
    slot: int,
    slot_bytes: int,
    height: int,
    width: int,
) -> np.ndarray:
    """Worker-side zero-copy view of one frame slot.

    The returned array aliases the shared pages directly; wrapping it in a
    :class:`~repro.image.GrayImage` does not copy (the view is C-contiguous
    uint8), so extraction reads the producer's bytes in place.
    """
    if height * width > slot_bytes:
        raise ReproError("slot view exceeds slot capacity")
    return np.ndarray(
        (height, width),
        dtype=np.uint8,
        buffer=shm.buf,
        offset=slot * slot_bytes,
    )
