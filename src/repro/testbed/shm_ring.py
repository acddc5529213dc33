"""Per-shard shared-memory ring buffers for zero-copy sub-batch transport.

One :class:`ShardRing` backs one shard.  The parent (pool supervisor)
*creates* and owns the segment; the worker process *attaches* to it by
name.  Traffic is strictly single-producer/single-consumer: the parent
writes an encoded batch (:func:`repro.core.alerts.encode_alert_columns`:
flat string columns and one JSON attribute document, no pickle opcodes)
into the ring and sends only a ``(ring_offset, length, seq)`` descriptor
down the control pipe; the worker copies the region out once and
decodes it — no pickle bytes ever cross the pipe for the batch payload.

Allocation is a rolling head plus an explicit in-flight region list
(bounded by the pool's pipelining depth, so membership checks are O(1)
in practice).  A write that does not fit contiguously at the head wraps
to offset 0; if neither placement avoids the in-flight regions the
write returns ``None`` and the caller falls back to the pickle path.
Regions are released FIFO as worker replies are consumed, mirroring the
per-shard FIFO the descriptor protocol guarantees.

Rings are transient runtime plumbing: they are excluded from snapshots
and checkpoints, torn down and rebuilt across reshard, and unlinked by
the owner on ``close()``.  Segment names carry :data:`SEGMENT_PREFIX`
so leak hunters (tests/conftest.py) can scan ``/dev/shm`` for strays,
followed by the creating process's id (:func:`owned_segment_prefix`),
so one process can tell its own rings from another's.
"""

from __future__ import annotations

import os
import secrets
from collections import deque
from multiprocessing import shared_memory
from typing import Deque, Optional, Tuple

#: Prefix of every ring segment name; leak checks scan /dev/shm for it.
SEGMENT_PREFIX = "repro-ring-"

#: Default per-shard ring capacity in bytes.  Sized so typical fuzz and
#: pipeline sub-batches (a few KiB encoded) fit tens of times over even
#: at pipelining depth 4, while keeping /dev/shm usage per pool modest.
DEFAULT_RING_CAPACITY = 1 << 20


def owned_segment_prefix() -> str:
    """The name prefix of every ring segment this process creates."""
    return f"{SEGMENT_PREFIX}{os.getpid()}-"


class ShardRing:
    """SPSC shared-memory ring with owner-side allocation bookkeeping.

    Exactly one of the two constructors is used per process:
    :meth:`create` in the parent (owner — allocates, writes, releases,
    unlinks) and :meth:`attach` in the worker (reader — ``view`` only).
    """

    def __init__(self, segment: shared_memory.SharedMemory, *, owner: bool) -> None:
        self._segment: Optional[shared_memory.SharedMemory] = segment
        self._owner = owner
        self.capacity = segment.size
        self._head = 0
        self._inflight: Deque[Tuple[int, int]] = deque()

    # -- constructors ---------------------------------------------------

    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_CAPACITY) -> "ShardRing":
        """Create and own a fresh segment (parent side)."""
        name = owned_segment_prefix() + secrets.token_hex(8)
        segment = shared_memory.SharedMemory(name=name, create=True, size=capacity)
        return cls(segment, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShardRing":
        """Attach to an existing segment by name (worker side).

        ``SharedMemory(name)`` re-registers the segment with the
        resource tracker the worker inherited from the parent; that is
        a set-semantics no-op (the parent's ``create`` registered the
        same name), and the parent's ``unlink`` on close retires the
        single entry -- so the worker must *not* unregister here, or
        the owner's balanced unregister would have nothing to remove.
        """
        return cls(shared_memory.SharedMemory(name=name), owner=False)

    @property
    def name(self) -> str:
        if self._segment is None:
            raise ValueError("ring is closed")
        return self._segment.name

    @property
    def inflight_regions(self) -> int:
        return len(self._inflight)

    # -- owner-side allocation ------------------------------------------

    def write(self, payload: bytes) -> Optional[int]:
        """Copy ``payload`` into the ring; return its offset or ``None``.

        ``None`` means the payload cannot be placed without overlapping
        an in-flight region (ring full, or payload larger than the ring)
        and the caller must fall back to the pipe-pickle path.
        """
        if self._segment is None:
            raise ValueError("ring is closed")
        if not self._owner:
            raise ValueError("only the owning side may write")
        length = len(payload)
        if length == 0 or length > self.capacity:
            return None
        candidates = [self._head] if self._head + length <= self.capacity else []
        if self._head != 0:
            candidates.append(0)  # wrap to the start of the segment
        for offset in candidates:
            if self._overlaps_inflight(offset, length):
                continue
            self._segment.buf[offset : offset + length] = payload
            self._inflight.append((offset, length))
            self._head = offset + length
            return offset
        return None

    def release(self, offset: int, length: int) -> None:
        """Retire the oldest in-flight region (must match FIFO order)."""
        if not self._inflight:
            raise ValueError("release with no in-flight region")
        expected = self._inflight[0]
        if expected != (offset, length):
            raise ValueError(
                f"out-of-order ring release: expected {expected}, "
                f"got {(offset, length)}"
            )
        self._inflight.popleft()
        if not self._inflight:
            self._head = 0

    def reset(self) -> None:
        """Drop all in-flight bookkeeping (heal path: reader is dead)."""
        self._inflight.clear()
        self._head = 0

    def _overlaps_inflight(self, offset: int, length: int) -> bool:
        end = offset + length
        for used_offset, used_length in self._inflight:
            if offset < used_offset + used_length and used_offset < end:
                return True
        return False

    # -- reader side ----------------------------------------------------

    def view(self, offset: int, length: int) -> bytes:
        """Materialise one descriptor's payload (worker side)."""
        if self._segment is None:
            raise ValueError("ring is closed")
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise ValueError(f"descriptor {(offset, length)} outside ring")
        return bytes(self._segment.buf[offset : offset + length])

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Unmap (both sides) and unlink (owner only).  Idempotent."""
        segment, self._segment = self._segment, None
        if segment is None:
            return
        try:
            segment.close()
        except Exception:
            pass
        if self._owner:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        self._inflight.clear()
        self._head = 0

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


__all__ = ["ShardRing", "SEGMENT_PREFIX", "DEFAULT_RING_CAPACITY", "owned_segment_prefix"]
