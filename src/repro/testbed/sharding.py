"""Per-entity sharded detection: the pipeline's parallel detection layer.

All detector state is per-entity (every piece of mutable inference
state lives in the entity's slot of its tagger's
:class:`repro.core.sliding_window.WindowArena`), so the alert stream can be partitioned
by entity across independent detector replicas without changing a
single decode: entities never share state, therefore a detector that
only ever sees the sub-stream of "its" entities produces bit-identical
detections for them.

**Shard routing invariant.**  An alert for entity ``e`` is always
routed to shard ``crc32(e) % n_shards``.  The hash is ``zlib.crc32``
(not Python's salted ``hash``) so the assignment is stable across
processes and runs -- a requirement both for the process backend
(parent and workers must agree without coordination) and for
reproducible benchmarks.  Because routing is a pure function of the
entity, every alert of an entity lands on the same shard in stream
order, which is all the exactness argument needs.

**One protocol, two carriers.**  A shard is a detector replica behind
:class:`_ShardHandler`, which maps ``(verb, payload)`` to exactly one
status-tagged reply -- ``("ok", result)`` or ``("error", traceback)``.
The verbs are ``observe`` (a sub-batch in, ``(hits, busy_seconds,
kernel_seconds, kernel_steps)`` out), ``reset_entity``, ``reset``,
``snapshot`` (the replica's tracks out) and ``restore`` (tracks in);
each is implemented once, in the handler, against the
:class:`~repro.core.detector.Detector` base class: ``observe`` is the
replica's ``observe_batch_indexed`` and its ``kernel_seconds`` delta
whatever detector the shard hosts, so there is one code path per verb.
The two backends are two *carriers* of that protocol and nothing more:

* ``serial`` (default) -- :class:`_LocalShard`: the handler lives in
  the calling process and runs synchronously inside ``send``; the
  reply waits in a queue for ``receive``.  Deterministic,
  dependency-free, and the reference the process backend is tested
  against.
* ``process`` -- :class:`_ProcessShard`: one persistent worker process
  per shard whose loop is ``recv -> handle -> send``.  Workers hold
  their replica for the lifetime of the carrier, so the per-batch cost
  is moving the sub-batch, not detector state.

The pool drives both through the same ``send``/``receive`` pair and
never asks which kind it holds; what differs between the backends is
which carrier gets built and that ``close()`` leaves a serial pool
usable.  On both, every replica comes from the pool's factory --
:meth:`ShardedDetectorPool.from_template` clones a private copy of
the caller's detector -- so the caller's own object is never a shard.

**One state currency.**  State crosses a shard boundary only as the
replica's pickled :meth:`~repro.core.detector.Detector
.export_entity_tracks` (the ``snapshot`` reply), which ``restore``
adopts into a fresh replica from the factory.  Checkpoint, heal and
reshard all move it so, and the model a shard runs is always its
factory's; a reshard regroups the tracks by ``shard_of(entity, M)``
in the parent and builds no detector there.

**One wire.**  A batch reaches the pool as a
:class:`~repro.core.alerts.NormalizedBatch` (a plain alert list is
wrapped once) and is split per shard on its entity column, so a
sub-batch is columns too.  How it crosses the process boundary is
private to :meth:`_ProcessShard.send`: its columns are
flat-encoded (:func:`repro.core.alerts.encode_alert_columns`: five
UTF-8 string columns, each decoded once and sliced, and one JSON
array for the attributes), the bytes go into the shard's shared-memory
ring and only an ``(offset, length, seq)`` descriptor crosses the pipe.
A batch the ring cannot take travels on the pipe as pickled columns
instead, counted in ``shm_fallbacks``: one whose encoding does not fit
the ring, and one the codec cannot express (an attribute value the
service's JSON wire could not carry exactly, such as bytes, a tuple or
a ``complex``).  There is no transport option.

**One recovery.**  Only a process can die, so what happens then is
private to :class:`_ProcessShard` too, and the pool's per-shard
restart budget ``max_restarts`` is the whole policy.  At 0 (the
default) the ``receive`` that meets the corpse returns ``("dead",
detail)``, the pool raises :class:`ShardWorkerError`, and the carrier
retains no payload.  Above 0 the carrier keeps the shard's recoverable
image -- the last tracks blob (``snapshot`` reply or ``restore``
payload), the state-changing messages
answered since it, and the payloads of the messages still unanswered
-- and that same ``receive`` heals: respawn (after
:data:`RESTART_BACKOFF` seconds, doubling per attempt), ``restore``
the blob, re-``send`` the log and the unanswered messages in order, record
a :class:`RecoveryEvent`, and return the fresh worker's reply to the
message the caller was waiting on -- an ``observe``, a checkpoint's
``snapshot``, a ``restore``, a ``reset`` or a ``reset_entity`` alike.
A spent budget reads back as ``("unrecovered", detail)``, raised as
:class:`ShardRecoveryError`.  The log is folded into a fresh snapshot
only before a send would take it and the unanswered messages past
:data:`REPLAY_LOG_LIMIT` rows (a checkpoint's ``snapshot`` round resets
it too), so a healthy stream takes one snapshot per that many rows
between checkpoints.  Draining for shutdown (a ``receive`` with a
timeout: ``close``, ``reopen``) never heals.

**Non-blocking fan-out.**  ``observe_batch`` is sugar over the
two-phase :meth:`ShardedDetectorPool.submit_batch` /
:meth:`ShardedDetectorPool.collect` API: ``submit_batch`` ships the
sub-batches to the shards and returns a ticket, so the caller can do
other work (normalise and filter the *next* batch -- see
:meth:`repro.testbed.pipeline.TestbedPipeline.ingest_raw_stream`)
while process shards compute; ``collect`` blocks for the replies,
merges, and returns the detections.  Tickets collect in submission
(FIFO) order.

**Crash propagation.**  A detector exception does not kill a shard:
the handler catches it and replies ``("error", traceback)``; the pool
drains the remaining shards' replies for that batch (so it is never
left with unread replies) and raises a typed :class:`ShardWorkerError`
naming the shard and carrying the traceback -- the same on both
backends (an in-process shard additionally sets ``__cause__``).  The
pool stays drivable afterwards -- the failing sub-batch is applied up
to the poisoned alert on that shard -- and ``close()`` shuts down
cleanly.

Detections from all shards are merged back into the position order of
the input stream (equal to timestamp order for the time-sorted batches
the scan filter emits), making both backends' output bit-identical to
an unsharded detector consuming the same batch.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import multiprocessing
import pickle
import time
import traceback
import zlib
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.alerts import (
    Alert,
    AlertColumnsCodecError,
    NormalizedBatch,
    decode_alert_columns,
    encode_alert_columns,
)
from ..core.attack_tagger import Detection
from ..core.detector import Detector
from .shm_ring import DEFAULT_RING_CAPACITY, ShardRing

#: Supported execution backends (the two carriers of the shard protocol).
BACKENDS = ("serial", "process")

#: Seconds a supervised carrier waits before its first respawn of a
#: shard; each further attempt on that shard doubles the wait.
RESTART_BACKOFF = 0.001


class ShardWorkerError(RuntimeError):
    """A detector raised inside a shard.

    Carries the shard index and the formatted traceback of the
    original exception (for the process backend, captured inside the
    worker; the raw traceback object cannot cross the pipe).  The pool
    itself remains drivable: the failing shard applied its sub-batch
    up to the offending alert and its worker loop keeps serving
    commands.
    """

    def __init__(self, shard: int, worker_traceback: str) -> None:
        self.shard = shard
        self.worker_traceback = worker_traceback
        super().__init__(
            f"detector raised in shard {shard}:\n{worker_traceback}"
        )

    def __reduce__(self):
        # RuntimeError's default reduce would re-call __init__ with the
        # formatted *message* as the only argument; reconstruct from
        # the real fields so the error survives pickling (across
        # process boundaries, into repro files).
        return (type(self), (self.shard, self.worker_traceback))


class ShardRecoveryError(ShardWorkerError):
    """A dead shard worker could not be healed within ``max_restarts``.

    Raised only by a pool with ``max_restarts > 0`` once a shard's
    restart budget is exhausted; subclasses :class:`ShardWorkerError` so
    existing handlers keep working.  ``attempts`` is the number of
    respawns that were tried (every one of them is also recorded in the
    pool's ``recovery_log``).
    """

    def __init__(self, shard: int, worker_traceback: str, attempts: int) -> None:
        # Bypass ShardWorkerError.__init__: worker_traceback must stay
        # the *original* death detail (not a re-wrapped message), so
        # the pickle round-trip via __reduce__ is exact.
        self.shard = shard
        self.worker_traceback = worker_traceback
        self.attempts = attempts
        RuntimeError.__init__(
            self,
            f"shard {shard} unrecovered after {attempts} restart "
            f"attempt(s): {worker_traceback}",
        )

    def __reduce__(self):
        return (type(self), (self.shard, self.worker_traceback, self.attempts))


@dataclasses.dataclass(frozen=True)
class ReshardEvent:
    """One live N→M reshard of the pool (see :meth:`ShardedDetectorPool.reshard`)."""

    old_n_shards: int
    new_n_shards: int
    backend: str
    #: Entities whose per-entity detector state was migrated.
    entities_moved: int
    #: Per-shard telemetry totals at the moment of the reshard (the
    #: per-shard arrays are re-zeroed at the new width; the busy/kernel
    #: totals also accumulate on the pool's ``*_retired`` counters).
    alerts_routed_before: int
    busy_seconds_before: float
    kernel_seconds_before: float
    #: Shards whose worker was dead at harvest time and was healed by
    #: its carrier during the harvest round (see the recovery log).
    rebuilt_shards: Tuple[int, ...]
    reshard_seconds: float


@dataclasses.dataclass(frozen=True)
class RecoveryEvent:
    """One supervised restart of a dead shard worker."""

    shard: int
    #: 1-based restart attempt for this shard (monotonic across deaths).
    attempt: int
    backoff_seconds: float
    #: In-flight sub-batches re-submitted FIFO after the respawn.
    resubmitted_batches: int
    #: The death as the parent observed it (exitcode detail).
    death_detail: str
    healed: bool
    recovery_seconds: float


def shard_of(entity: str, n_shards: int) -> int:
    """The shard an entity's alerts are routed to (stable across processes)."""
    if n_shards <= 1:
        return 0
    return zlib.crc32(entity.encode("utf-8")) % n_shards


@dataclasses.dataclass(frozen=True)
class DetectorTemplate:
    """Picklable detector factory: copies a pristine template.

    ``AttackTagger.clone()`` is used when available (it shares the
    read-only parameter tables instead of copying them); other
    detectors fall back to :func:`copy.deepcopy`.  Being a plain frozen
    dataclass, the factory pickles cleanly into worker processes.
    Every call copies ``template`` as it is *now*, so a template nobody
    else holds (what :meth:`ShardedDetectorPool.from_template` builds)
    hands out the same replica for the pool's whole life.
    """

    template: Detector

    def __call__(self) -> Detector:
        clone = getattr(self.template, "clone", None)
        if callable(clone):
            return clone()
        return copy.deepcopy(self.template)


class _WorkerTraceback(str):
    """A formatted traceback that, in-process, still knows its exception.

    Error replies are text: a traceback object cannot cross a pipe.  An
    in-process shard has the exception itself, so the text carries it
    along as ``cause`` for ``ShardWorkerError.__cause__``; pickling
    reduces to the plain string, which is what a worker's parent sees.
    """

    cause: Optional[BaseException] = None

    @classmethod
    def capture(cls, exc: BaseException) -> "_WorkerTraceback":
        """The traceback of the exception being handled, tagged with it."""
        text = cls(traceback.format_exc())
        text.cause = exc
        return text

    def __reduce__(self):
        return (str, (str(self),))


class _ShardHandler:
    """One shard's end of the protocol: a detector replica answering verbs.

    :meth:`handle` maps every ``(verb, payload)`` to exactly one
    status-tagged reply -- ``("ok", result)`` or ``("error",
    traceback)`` -- so a driver can run a simple send-all / receive-all
    round and a detector exception can neither wedge it nor lose its
    traceback.  A factory that raises is recorded and replayed as the
    reply to every verb: ``restore`` builds from the same factory, so
    nothing can revive such a shard.

    ``unwire`` turns an ``observe`` payload into the column batch the
    replica observes; ``None`` means the payload is observed as it is
    (the in-process carrier's sub-batch).  It runs inside the timed
    region, so ``busy_seconds`` covers a carrier's decode.
    """

    def __init__(self, factory, unwire=None) -> None:
        self._factory = factory
        self._unwire = unwire
        self.failure: Optional[_WorkerTraceback] = None
        try:
            self.detector: Optional[Detector] = factory()
        except Exception as exc:  # reported per command, not lost
            self.detector = None
            self.failure = _WorkerTraceback.capture(exc)

    def handle(self, verb: str, payload=None) -> Tuple[str, object]:
        """Answer one command; never raises for a detector failure."""
        if self.failure is not None:
            return ("error", self.failure)
        try:
            method = self._VERBS.get(verb)
            if method is None:
                raise ValueError(f"unknown shard verb {verb!r}")
            return ("ok", method(self, payload))
        except Exception as exc:
            return ("error", _WorkerTraceback.capture(exc))

    def _observe(self, payload):
        """``(hits, busy_seconds, kernel_seconds, kernel_steps)`` for one sub-batch.

        ``hits`` are :meth:`~repro.core.detector.Detector.observe_batch_indexed`'s
        ``(position, detection)`` pairs, ``busy_seconds`` the CPU time
        unwire + observe consumed in the hosting process,
        ``kernel_seconds`` the wall-clock slice of that the detector
        spent inside its vectorised decode kernel (0.0 for detectors
        without one) and ``kernel_steps`` the windowed steps the kernel
        advanced, per path (:attr:`~repro.core.detector.Detector.kernel_steps`).
        Every detector takes this one path.
        """
        started = time.process_time()
        alerts = payload if self._unwire is None else self._unwire(payload)
        detector = self.detector
        kernel_before, steps_before = detector.kernel_seconds, detector.kernel_steps
        hits = detector.observe_batch_indexed(alerts)
        kernel = detector.kernel_seconds - kernel_before
        steps = tuple(after - before for after, before in zip(detector.kernel_steps, steps_before))
        return hits, time.process_time() - started, kernel, steps

    def _reset_entity(self, entity: str) -> None:
        self.detector.reset_entity(entity)

    def _reset(self, _payload) -> None:
        self.detector.reset()

    def _snapshot(self, _payload) -> bytes:
        return pickle.dumps(self.detector.export_entity_tracks(), pickle.HIGHEST_PROTOCOL)

    def _restore(self, blob: bytes) -> None:
        """A fresh replica from the factory adopts the tracks (all or none)."""
        detector = self._factory()
        for entity, track in pickle.loads(blob).items():
            detector.adopt_entity_track(entity, track)
        self.detector = detector

    _VERBS = {
        "observe": _observe,
        "reset_entity": _reset_entity,
        "reset": _reset,
        "snapshot": _snapshot,
        "restore": _restore,
    }


class _LocalShard:
    """In-process carrier: the handler runs synchronously inside ``send``.

    The serial backend has nobody to overlap with, so the work happens
    at send time and the reply waits (FIFO) for ``receive`` -- the same
    two calls, in the same order, a process shard answers.  ``observe``
    hands the sub-batch to the replica as it is (the tagger reads its
    columns; a per-alert detector iterates it, which builds its alerts
    once): nothing crosses a process boundary, so nothing is packed,
    encoded, or counted as shipped.
    """

    def __init__(self, index: int, factory) -> None:
        self.index = index
        self._handler = _ShardHandler(factory)
        self._replies: Deque[Tuple[str, object]] = collections.deque()

    @property
    def detector(self) -> Optional[Detector]:
        """The replica itself (``None`` if the factory raised)."""
        return self._handler.detector

    def send(self, verb: str, payload=None) -> bool:
        self._replies.append(self._handler.handle(verb, payload))
        return True

    def receive(self, timeout: Optional[float] = None) -> Tuple[str, object]:
        return self._replies.popleft()

    def close(self, timeout: float = 5.0) -> str:
        return "clean"


def _shard_worker_main(factory, connection, ring_name: str) -> None:
    """Worker loop of one process shard: ``recv -> handle -> send``.

    The protocol lives in :class:`_ShardHandler`; this loop adds only
    what the process hop needs: the ``close`` handshake and undoing
    :meth:`_ProcessShard.send`'s two wire forms for ``observe`` -- a
    ring descriptor (``seq`` must be strictly increasing: a stale or
    reordered descriptor is an error, never a silently wrong batch) or
    packed columns on the pipe.
    """
    ring: Optional[ShardRing] = None
    ring_failure = ""
    last_seq = -1
    try:
        ring = ShardRing.attach(ring_name)
    except Exception:
        ring_failure = ":\n" + traceback.format_exc()

    def unwire(message) -> NormalizedBatch:
        nonlocal last_seq
        form, body = message
        if form == "ring":
            if ring is None:
                raise RuntimeError(
                    "ring descriptor without an attached ring" + ring_failure
                )
            offset, length, seq = body
            if seq <= last_seq:
                raise RuntimeError(f"ring descriptor seq {seq} not after {last_seq}")
            last_seq = seq
            body = decode_alert_columns(ring.view(offset, length))
        return NormalizedBatch.of_columns(body)

    try:
        handler = _ShardHandler(factory, unwire)
        while True:
            verb, payload = connection.recv()
            if verb == "close":
                connection.send(("ok", None))
                return
            reply = handler.handle(verb, payload)
            try:
                connection.send(reply)
            except Exception:  # a result that will not pickle is an error reply
                connection.send(("error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        if ring is not None:
            ring.close()  # unmap only; the parent owns the unlink


@dataclasses.dataclass(frozen=True)
class _Recovery:
    """What a process carrier heals with when the pool has a restart budget.

    ``restarts_used`` (one counter per shard) and ``log`` belong to the
    pool and are shared by reference, so the consumed budget and the
    audit trail outlive the carriers a :meth:`~ShardedDetectorPool
    .reshard` replaces.
    """

    max_restarts: int
    restarts_used: List[int]
    log: List[RecoveryEvent]


#: A supervised carrier folds its replay log into a fresh snapshot
#: before a send would take log + unanswered messages past this many
#: rows: an ``observe`` counts its sub-batch's alerts, any other verb 1.
#: Counting rows, not messages, bounds what the carrier retains (and a
#: heal replays) however large the submitted groups grow.  A fold
#: blocks on a snapshot whose cost grows with the replica's entities,
#: so the limit is large enough to spread that over many groups.
REPLAY_LOG_LIMIT = 8192


def _rows(verb: str, payload) -> int:
    """What one retained message counts against :data:`REPLAY_LOG_LIMIT`."""
    return len(payload) if verb == "observe" else 1


class _ProcessShard:
    """Process carrier: one worker process, its pipe, its ring, its recovery.

    Owns everything the hop needs -- the shared-memory ring (created
    here, unlinked by :meth:`close`), the FIFO of unanswered messages
    and the descriptor sequence -- so "ring or pipe" is a private
    decision of :meth:`send`, tallied into ``counts`` (keys
    ``shm_batches``/``shm_fallbacks``; the pool passes its own).  Every
    ``send`` is answered by exactly one ``receive``, including a send a
    dead worker swallowed (its receive reports the death).

    With a ``recovery`` (a restart budget above 0) the carrier also keeps
    the shard's recoverable image -- the last snapshot blob, the
    state-changing messages answered since it (``_log``) and the
    payloads of the unanswered ones -- and :meth:`receive` heals a dead
    worker from it instead of reporting the death.  Without one (a zero
    budget) no payload is retained and nothing below runs.
    """

    #: The replica lives in the worker process.
    detector = None

    def __init__(
        self,
        index: int,
        factory,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        counts: Optional[collections.Counter] = None,
        recovery: Optional[_Recovery] = None,
    ) -> None:
        self.index = index
        self._factory = factory
        self._counts = collections.Counter() if counts is None else counts
        self._recovery = recovery
        self._seq = 0
        #: One ``(region, message)`` per unanswered message, oldest
        #: first: the ring region it occupies (``None`` for a pipe-only
        #: message) and, with a ``recovery`` only, its ``(verb, payload)``.
        self._transit: Deque[tuple] = collections.deque()
        #: Recovery image: a tracks blob (``None`` = pristine factory
        #: state) plus the state-changing messages answered since.
        self._snapshot: Optional[bytes] = None
        self._log: List[tuple] = []
        self._log_rows = 0
        #: Replies read early by :meth:`_fold`, for the receives that own them.
        self._ready: Deque[Tuple[str, object]] = collections.deque()
        self.ring = ShardRing.create(ring_capacity)
        try:
            self._start()
        except Exception:
            self.ring.close()
            raise

    def _start(self) -> None:
        context = multiprocessing.get_context()
        self.connection, child_connection = context.Pipe()
        self.process = context.Process(
            target=_shard_worker_main,
            args=(self._factory, child_connection, self.ring.name),
            daemon=True,
        )
        self.process.start()
        child_connection.close()

    def _wire(self, batch: NormalizedBatch):
        """``(wire payload, ring region or None)`` for one sub-batch.

        The batch's columns are packed as they are (no :class:`Alert`
        is read or built).  Their flat encoding goes into the ring when
        it fits; the packed columns go on the pipe when it does not, or
        when the batch is outside the codec's type set.
        """
        packed = batch.columns()
        try:
            encoded = encode_alert_columns(packed)
        except AlertColumnsCodecError:
            encoded = None
        offset = None if encoded is None else self.ring.write(encoded)
        if offset is None:
            self._counts["shm_fallbacks"] += 1
            return ("columns", packed), None
        self._seq += 1
        self._counts["shm_batches"] += 1
        region = (offset, len(encoded))
        return ("ring", region + (self._seq,)), region

    def send(self, verb: str, payload=None) -> bool:
        """Queue one command; returns whether it was actually delivered.

        If the worker process is gone the pipe write fails -- the
        failure is swallowed (``False`` returned) so the caller's
        send-all loop completes, and the matching :meth:`receive`
        reports the death as a ``("dead", ...)`` reply (or heals it).
        """
        if self._log:
            owed = sum(_rows(*message) for _region, message in self._transit)
            if self._log_rows + owed + _rows(verb, payload) > REPLAY_LOG_LIMIT:
                self._fold()
        return self._post(verb, payload)

    def _post(self, verb: str, payload=None) -> bool:
        """The wire path of :meth:`send` (a heal re-sends through it too)."""
        region = None
        wire = payload
        if verb == "observe":
            wire, region = self._wire(payload)
        try:
            self.connection.send((verb, wire))
            delivered = True
        except OSError:
            # Only a *dead* worker may be swallowed -- its recv side
            # reports the death.  A failed send to a live worker would
            # otherwise hang the matching receive forever, so fail
            # fast instead.
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                raise
            delivered = False
        message = None if self._recovery is None else (verb, payload)
        self._transit.append((region, message))
        return delivered

    def receive(self, timeout: Optional[float] = None) -> Tuple[str, object]:
        """The reply to the oldest unanswered message, status-tagged.

        ``ok``/``error`` come from the handler.  A worker that is gone
        without replying (killed, ``os._exit``) is the one place a
        death is handled: without a ``recovery`` it becomes a ``("dead",
        detail)`` reply, which callers map to the typed
        :class:`ShardWorkerError`; with one the worker is
        healed (:meth:`_heal`) and the reply is the fresh worker's
        answer to the same message, whatever its verb -- or
        ``("unrecovered", detail)`` once the restart budget is spent.

        With ``timeout`` set the caller is draining for shutdown: the
        wait is bounded, a wedged (alive but unresponsive) worker
        produces a ``("timeout", detail)`` reply instead of blocking
        forever, and a death is reported, never healed.
        """
        if self._ready:
            return self._ready.popleft()
        return self._next_reply(timeout)

    def _read(self, timeout: Optional[float] = None) -> Tuple[str, object]:
        """One reply off the pipe; ``EOFError`` becomes a ``dead`` reply."""
        try:
            if timeout is not None and not self.connection.poll(timeout):
                return (
                    "timeout",
                    f"shard worker did not reply within {timeout:.1f}s",
                )
            return self.connection.recv()
        except (EOFError, OSError):
            self.process.join(timeout=1.0)
            return (
                "dead",
                f"shard worker process died without replying "
                f"(exitcode {self.process.exitcode})",
            )

    def _next_reply(self, timeout: Optional[float] = None) -> Tuple[str, object]:
        """Read (healing if supervised) and settle the oldest unanswered message.

        A ``timeout`` settles nothing -- the worker may still read its
        ring region later.  Any other reply means the worker has read
        (or will never read) the message, so its ring region is free
        again, and an answered message joins the recovery image: a
        ``snapshot`` or ``restore`` tracks blob *is* the new image, any
        other verb changed the replica and is logged for replay (an
        ``error`` reply too: the replay stops at the same alert).
        """
        reply = self._read(timeout)
        if reply[0] == "timeout":
            return reply
        if reply[0] == "dead" and self._recovery is not None and timeout is None:
            reply = self._heal(reply[1])
        if self._transit:
            message = self._release()
            if message is not None and reply[0] in ("ok", "error"):
                verb, payload = message
                if reply[0] == "ok" and verb in ("snapshot", "restore"):
                    self._snapshot = reply[1] if verb == "snapshot" else payload
                    self._log.clear()
                    self._log_rows = 0
                elif verb != "snapshot":
                    self._log.append(message)
                    self._log_rows += _rows(verb, payload)
        return reply

    def _release(self) -> Optional[tuple]:
        """Drop the oldest transit entry, freeing its ring region."""
        region, message = self._transit.popleft()
        if region is not None:
            self.ring.release(*region)
        return message

    def _fold(self) -> None:
        """Fold the replay log into a fresh snapshot of the replica's tracks.

        The replies the worker still owes are read first and kept, in
        order, for the :meth:`receive` calls that own them; the
        ``snapshot`` reply then replaces the image (see
        :meth:`_next_reply`).  Best-effort: if the snapshot fails the
        old image still reconstructs the same state, just more slowly.
        """
        while self._transit:
            self._ready.append(self._next_reply())
        self._post("snapshot")
        self._next_reply()

    def _heal(self, death_detail: str) -> Tuple[str, object]:
        """Respawn the dead worker and rebuild its state from the image.

        Bounded by ``max_restarts`` with exponential backoff; every
        attempt is recorded.  Returns the fresh worker's reply to the
        oldest unanswered message, leaving the newer ones in transit
        for the receives that own them, or ``("unrecovered", detail)``
        once the budget is spent -- after which the image is dropped
        (replaying it can never succeed) and every later receive
        answers ``unrecovered`` at once.
        """
        recovery = self._recovery
        used = recovery.restarts_used
        owed = [message for _region, message in self._transit]
        reply: Optional[Tuple[str, object]] = None
        while reply is None and used[self.index] < recovery.max_restarts:
            used[self.index] += 1
            backoff = RESTART_BACKOFF * 2.0 ** (used[self.index] - 1)
            time.sleep(backoff)
            started = time.perf_counter()
            try:
                self.restart()
            except Exception:  # pragma: no cover - spawn failure
                pass
            else:
                reply = self._replay(owed)
            recovery.log.append(
                RecoveryEvent(
                    shard=self.index,
                    attempt=used[self.index],
                    backoff_seconds=backoff,
                    resubmitted_batches=sum(
                        verb == "observe" for verb, _ in self._log + owed
                    ),
                    death_detail=death_detail,
                    healed=reply is not None,
                    recovery_seconds=time.perf_counter() - started,
                )
            )
        if reply is None:
            self.ring.reset()
            self._transit = collections.deque((None, message) for message in owed)
            self._log.clear()
            self._log_rows = 0
            reply = ("unrecovered", death_detail)
        return reply

    def _replay(self, owed: List[tuple]) -> Optional[Tuple[str, object]]:
        """Re-drive a fresh worker: snapshot, log, then the ``owed`` messages.

        Everything goes through :meth:`_post`, so the new worker
        decodes the exact bytes the dead one was sent.  The image is
        replayed one message at a time (its replies mean nothing any
        more); the owed messages go out together, as they were.
        Returns the reply to the oldest of them, or ``None`` if the
        fresh worker died too (the caller retries within the budget).
        """
        image = list(self._log)
        if self._snapshot is not None:
            image.insert(0, ("restore", self._snapshot))
        for message in image:
            self._post(*message)
            status = self._read()[0]
            self._release()
            if status == "dead":
                return None
        for message in owed:
            self._post(*message)
        reply = self._read()
        return None if reply[0] == "dead" else reply

    def restart(self) -> None:
        """Replace a dead worker with a fresh one on the same ring.

        The ring is reset wholesale (the dead worker consumed nothing
        that matters any more) and nothing is in transit to the new
        process; the segment and its name carry over.
        """
        self._reap()
        self.ring.reset()
        self._transit.clear()
        self._start()

    def _reap(self) -> None:
        """Dispose of a dead (or dying) worker without a close handshake."""
        try:
            self.process.join(timeout=1.0)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.kill()
                self.process.join(timeout=1.0)
        finally:
            try:
                self.connection.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def close(self, timeout: float = 5.0) -> str:
        """Shut the worker down; returns the escalation outcome.

        ``"clean"``: the close handshake (or a worker already dead)
        needed no force.  ``"terminated"``: the worker ignored the
        handshake for ``timeout`` seconds and needed SIGTERM.
        ``"killed"``: it survived SIGTERM too and was SIGKILLed.  The
        bounded handshake is what makes pool shutdown deadlock-free: a
        wedged worker (stuck inside a detector) can stall ``close()``
        by at most a few multiples of ``timeout``, never forever.
        Whatever the outcome the worker is gone afterwards, so the ring
        segment is unlinked: nothing survives in ``/dev/shm``.
        """
        outcome = "clean"
        try:
            if self.process.is_alive():
                self.connection.send(("close", None))
                if self.connection.poll(timeout):
                    self.connection.recv()
            self.process.join(timeout=timeout)
        except (BrokenPipeError, EOFError, OSError):
            pass
        if self.process.is_alive():
            outcome = "terminated"
            self.process.terminate()
            self.process.join(timeout=timeout)
            if self.process.is_alive():  # pragma: no cover - hard to force
                outcome = "killed"
                self.process.kill()
                self.process.join(timeout=timeout)
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self.ring.close()
        return outcome


class _PendingBatch:
    """Ticket for one submitted batch awaiting :meth:`~ShardedDetectorPool.collect`.

    Remembers which shards were sent a sub-batch (``active``) and each
    routed alert's position in the original batch; the hits arrive at
    collect time, which leaves the batch position of each detection it
    returns in ``found_at``.
    """

    __slots__ = ("positions", "active", "found_at")

    def __init__(self, positions: List[Sequence[int]], active: List[int]) -> None:
        self.positions = positions
        self.active = active
        self.found_at: List[int] = []


@dataclasses.dataclass(frozen=True)
class PoolCloseResult:
    """What :meth:`ShardedDetectorPool.close` had to do to shut down.

    ``escalations`` holds one outcome per worker (``"clean"`` /
    ``"terminated"`` / ``"killed"``, see :meth:`_ProcessShard.close`);
    serial pools -- a true no-op close -- report an empty tuple.
    ``drained_batches`` counts submitted-but-uncollected batches whose
    replies were discarded by the shutdown.
    """

    backend: str
    escalations: Tuple[str, ...] = ()
    drained_batches: int = 0
    already_closed: bool = False

    @property
    def clean(self) -> bool:
        """Whether no worker needed force to shut down."""
        return all(outcome == "clean" for outcome in self.escalations)


class ShardedDetectorPool:
    """Entity-sharded detection layer: a container of detector replicas.

    Not a :class:`~repro.core.detector.Detector` itself: it fronts its
    replicas with the ``observe_batch`` / ``reset`` / ``reset_entity``
    facade, and the two-phase :meth:`submit_batch` / :meth:`collect`
    API underneath.

    Parameters
    ----------
    detector_factory:
        Zero-argument callable producing one pristine detector replica
        per shard, and more for every restore, reshard, reopen and
        fresh worker.  Must be picklable for the process backend
        (:meth:`from_template` builds one from a detector instance).  A
        factory that raises does not fail construction: the shard
        answers every command with the failure (see
        :class:`_ShardHandler`), on both backends.
    n_shards:
        Number of independent shards (>= 1).
    backend:
        ``"serial"`` or ``"process"``: which carrier runs the shards
        (see module docstring).
    max_restarts:
        Per-shard restart budget for the pool's lifetime (process
        backend only; only :meth:`reopen` refreshes it).  ``0``
        (default): a worker death surfaces as a typed
        :class:`ShardWorkerError` from whichever call reads the dead
        shard's reply, and no recovery image is kept.  Above 0: each
        process carrier heals its own worker (see "One recovery" in
        the module docstring) -- it respawns it with exponential
        backoff, restores the last snapshot and re-sends what the dead
        worker had been sent since, so the caller sees the same
        results an uninterrupted run produces, whichever operation met
        the corpse; every restart is recorded in :attr:`recovery_log`.
        Deterministically fatal inputs (a sub-batch that kills the
        worker on every replay) burn through the budget and then raise
        :class:`ShardRecoveryError`.
    ring_capacity:
        Per-shard shared-memory ring size in bytes (process backend).
        Size it to hold the driver's in-flight depth of encoded
        sub-batches (``TestbedPipeline.max_inflight``); a batch
        that does not fit travels on the pipe instead (counted in
        ``shm_fallbacks``), so undersizing costs throughput, never
        correctness.  Rings are transient plumbing: excluded from
        snapshots/checkpoints, replaced with their carriers across
        :meth:`reshard`/:meth:`reopen`, and unlinked by :meth:`close`.

    The pool returns the merged detections and keeps no log of them:
    the caller (the pipeline's ``detections``) records what fired.
    """

    def __init__(
        self,
        detector_factory,
        *,
        n_shards: int = 1,
        backend: str = "serial",
        max_restarts: int = 0,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")
        self.n_shards = int(n_shards)
        self.backend = backend
        self.max_restarts = int(max_restarts)
        self.ring_capacity = int(ring_capacity)
        #: Every supervised worker recovery ever performed, oldest
        #: first (survives reset/reopen: an operations log, not pool
        #: state).
        self.recovery_log: List[RecoveryEvent] = []
        #: Restarts each shard has consumed; pool-owned (like
        #: ``_wire_counts``) so the budget outlives the carriers.
        self._restarts_used: List[int] = [0] * self.n_shards
        #: What the process carriers heal with (``None``: they don't).
        self._recovery: Optional[_Recovery] = None
        if self.max_restarts:
            self._recovery = _Recovery(
                self.max_restarts,
                self._restarts_used,
                self.recovery_log,
            )
        #: Every live N→M reshard ever performed (same ops-log status).
        self.reshard_log: List[ReshardEvent] = []
        self.detector_factory = detector_factory
        #: Alerts routed to each shard (routing balance introspection).
        self.alerts_routed: List[int] = [0] * self.n_shards
        #: Cumulative CPU seconds each shard spent observing, as
        #: measured in the process hosting it.
        self.busy_seconds: List[float] = [0.0] * self.n_shards
        #: The slice of ``busy_seconds`` each shard's detector spent
        #: inside its vectorised decode kernel (always 0.0 for
        #: detectors without a ``kernel_seconds`` counter).
        self.kernel_seconds: List[float] = [0.0] * self.n_shards
        #: Busy/kernel/routed totals accumulated by shard layouts that
        #: :meth:`reshard` retired -- the per-shard arrays above are
        #: re-zeroed at the new width, these keep cumulative telemetry
        #: monotone across reshards.
        self.busy_seconds_retired = 0.0
        self.kernel_seconds_retired = 0.0
        self.alerts_routed_retired = 0
        #: Windowed steps the shards' kernels advanced, ``(stacked,
        #: patterned, scalar)`` summed over shards and reshards, since
        #: the pool was built, reset or restored (not checkpointed).
        self.kernel_steps: List[int] = [0, 0, 0]
        #: One carrier per shard (both backends; the name predates the
        #: serial carrier).
        self._workers: list = []
        self._pending: Deque[_PendingBatch] = collections.deque()
        # What the process carriers shipped by ring / sent by pipe
        # instead, across every carrier generation (see shm_batches).
        self._wire_counts: collections.Counter = collections.Counter()
        self._closed = False
        self._replace_workers(self.n_shards)

    @classmethod
    def from_template(cls, detector: Detector, **options) -> "ShardedDetectorPool":
        """Pool whose shards are clones of a pristine template detector.

        The template is one copy of ``detector`` taken here; the pool
        never drives or keeps the caller's object, so nothing the caller
        does to it later reaches a shard, a heal, a reopen or a reshard.
        ``options`` are the constructor's keyword arguments.
        """
        private = DetectorTemplate(detector)()
        return cls(DetectorTemplate(private), **options)

    # -- carriers ------------------------------------------------------------
    def _build_worker(self, shard: int):
        """One carrier for ``shard``: the place the backend is decided."""
        if self.backend == "serial":
            return _LocalShard(shard, self.detector_factory)
        return _ProcessShard(
            shard,
            self.detector_factory,
            self.ring_capacity,
            self._wire_counts,
            self._recovery,
        )

    def _retire_workers(self, timeout: float = 5.0) -> Tuple[str, ...]:
        """Shut every carrier down; the pool reads as closed without any."""
        workers, self._workers = self._workers, []
        self._closed = True
        return tuple(worker.close(timeout) for worker in workers)

    def _replace_workers(self, n_shards: int) -> None:
        """Retire the current carriers and build ``n_shards`` fresh ones.

        The pool is marked closed first and reopened only once every
        carrier exists: if a spawn fails, the partial set is shut down
        and the pool rejects batches as closed instead of posing as
        open with a half-built worker set.
        """
        self._retire_workers()
        fresh: list = []
        try:
            for shard in range(n_shards):
                fresh.append(self._build_worker(shard))
        except Exception:
            for worker in fresh:
                worker.close()
            raise
        self._workers = fresh
        self._closed = False

    @property
    def shards(self) -> List[Detector]:
        """The in-process detector replicas (serial backend).

        A process shard's replica lives in its worker, so a process
        pool has none to hand out.
        """
        return [
            worker.detector for worker in self._workers if worker.detector is not None
        ]

    @property
    def shm_batches(self) -> int:
        """Sub-batches shipped through the shared-memory rings so far.

        Runtime telemetry, not checkpointed (rings are transient).
        """
        return self._wire_counts["shm_batches"]

    @property
    def shm_fallbacks(self) -> int:
        """Sub-batches sent on the pipe instead (codec miss or ring full)."""
        return self._wire_counts["shm_fallbacks"]

    # -- routing -----------------------------------------------------------
    def _partition(
        self, batch: NormalizedBatch
    ) -> Tuple[List[NormalizedBatch], List[Sequence[int]]]:
        """Split one batch into per-shard sub-batches, remembering positions.

        The batch is split on its entity column -- :func:`shard_of` once
        per distinct entity -- and each shard's rows are picked with
        :meth:`~repro.core.alerts.NormalizedBatch.select`; no alert is
        read or built.
        """
        count = self.n_shards
        if count == 1:
            return [batch], [range(len(batch))]
        entities = batch.entities
        route = {entity: shard_of(entity, count) for entity in dict.fromkeys(entities)}
        positions: List[List[int]] = [[] for _ in range(count)]
        appends = [rows.append for rows in positions]
        for position, entity in enumerate(entities):
            appends[route[entity]](position)
        return [batch.select(rows) for rows in positions], positions

    # -- the detector facade -------------------------------------------------
    def observe_batch(self, alerts: Iterable[Alert]) -> list[Detection]:
        """Fan one batch out across the shards and merge the detections.

        Sugar for :meth:`collect` over :meth:`submit_batch`: the batch
        is shipped to the workers and the caller blocks for the merged
        result.  Detections come back tagged with their triggering
        alert's position in the batch and are merged in that order --
        exactly the emission order of an unsharded detector scanning
        the batch front to back (and timestamp order for time-sorted
        batches).

        Refuses to run while submitted batches are pending collection:
        interleaving the blocking wrapper with the two-phase API would
        otherwise ship the batch to the workers and *then* fail in
        ``collect`` (out-of-order ticket), double-applying the batch if
        the caller retries.
        """
        self._require_idle("observe_batch")
        return self.collect(self.submit_batch(alerts))

    # -- non-blocking fan-out ----------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` shut this (process) pool down."""
        return self._closed

    @property
    def pending_batches(self) -> int:
        """Submitted batches not yet collected."""
        return len(self._pending)

    def submit_batch(self, alerts: NormalizedBatch | Iterable[Alert]) -> _PendingBatch:
        """Ship one batch to the shards without waiting for the results.

        ``alerts`` is the pipeline's :class:`~repro.core.alerts
        .NormalizedBatch` of filter survivors; anything else is wrapped
        once with :meth:`~repro.core.alerts.NormalizedBatch.of_alerts`.
        A process shard packs its sub-batch's columns into the wire,
        so a process pool builds no :class:`Alert` in this process; an
        in-process shard hands its sub-batch to its replica as it is.
        Returns a ticket for :meth:`collect`.  Process shards start
        computing as soon as their sub-batch lands, so the caller can
        overlap other work with them; the payload sits in a ring and
        only a tiny descriptor on the pipe, so pipelining
        several batches deep never blocks on worker progress
        (a full ring degrades to the pipe, which can).  In-process
        shards compute here, inside the send.  Either way a detector
        exception is a reply like any other and is raised at collect
        time.  Tickets must be collected in submission order.
        """
        if self._closed:
            raise RuntimeError("ShardedDetectorPool is closed")
        if not isinstance(alerts, NormalizedBatch):
            alerts = NormalizedBatch.of_alerts(alerts)
        sub_batches, positions = self._partition(alerts)
        active = [shard for shard, sub_batch in enumerate(sub_batches) if sub_batch]
        # Send everything first so all workers compute concurrently.
        # `alerts_routed` counts a shard only once its sub-batch is
        # actually on its way, so the telemetry stays truthful if the
        # send loop fails part-way.
        sent: List[int] = []
        try:
            for shard in active:
                sub_batch = sub_batches[shard]
                delivered = self._workers[shard].send("observe", sub_batch)
                sent.append(shard)
                if delivered:
                    self.alerts_routed[shard] += len(sub_batch)
        except BaseException:
            # A failure part-way through the send loop (e.g. an
            # unpicklable alert attribute) must not leave the
            # already-sent shards with unread replies for the next
            # collect() to mistake for its own batch: drain them here
            # (keeping the busy telemetry they report), then surface
            # the original error.
            for shard in sent:
                status, reply = self._workers[shard].receive()
                if status == "ok":
                    self._account(shard, reply)
            raise
        ticket = _PendingBatch(positions, active)
        self._pending.append(ticket)
        return ticket

    def collect(self, ticket: Optional[_PendingBatch] = None) -> list[Detection]:
        """Wait for one submitted batch and merge its detections.

        Collects the oldest uncollected ticket (replies come back in
        FIFO order per shard, so collection must follow submission
        order; passing a newer ticket raises ``ValueError``).  If any
        shard reports an error, the remaining shards' replies for this
        batch are still drained -- the pool is never left with unread
        replies -- and a :class:`ShardWorkerError` for the first
        failing shard is raised; the batch's partial detections are
        discarded.
        """
        if self._closed:
            raise RuntimeError("ShardedDetectorPool is closed")
        if not self._pending:
            raise RuntimeError("no submitted batch to collect")
        if ticket is not None and ticket is not self._pending[0]:
            raise ValueError("batches must be collected in submission order")
        ticket = self._pending.popleft()
        hits: List[Tuple[int, Detection]] = []
        error: Optional[ShardWorkerError] = None
        for shard in ticket.active:
            status, result = self._workers[shard].receive()
            if status != "ok":
                error = error or self._shard_error(shard, status, result)
                continue
            self._account(shard, result)
            shard_hits = result[0]
            shard_positions = ticket.positions[shard]
            hits.extend(
                (shard_positions[local], detection) for local, detection in shard_hits
            )
        if error is not None:
            raise error
        hits.sort(key=lambda item: item[0])
        ticket.found_at = [position for position, _ in hits]
        return [detection for _, detection in hits]

    def _shard_error(self, shard: int, status: str, detail) -> ShardWorkerError:
        """The typed error for one non-``ok`` reply, whatever the carrier."""
        if status == "unrecovered":
            return ShardRecoveryError(shard, str(detail), self._restarts_used[shard])
        error = ShardWorkerError(shard, str(detail))
        error.__cause__ = getattr(detail, "cause", None)
        return error

    def _round(self, verb: str, payloads: Optional[Sequence] = None) -> list:
        """One command to every shard: send all, receive all, first error wins.

        Returns the per-shard results.  Every reply is read even when
        an earlier shard failed (the pool is never left with unread
        replies); the first failure is raised afterwards, typed the
        same way on both backends.
        """
        if payloads is None:
            payloads = [None] * len(self._workers)
        for worker, payload in zip(self._workers, payloads):
            worker.send(verb, payload)
        results = []
        error: Optional[ShardWorkerError] = None
        for worker in self._workers:
            status, result = worker.receive()
            if status != "ok":
                error = error or self._shard_error(worker.index, status, result)
            results.append(result)
        if error is not None:
            raise error
        return results

    def _drain_pending(self, timeout: Optional[float] = None) -> int:
        """Read every outstanding reply, discarding results and errors.

        Returns the number of batches drained.  With ``timeout`` set,
        each reply wait is bounded -- a wedged worker costs at most
        ``timeout`` seconds per expected reply instead of hanging the
        shutdown forever (the caller escalates to terminate/kill right
        after) -- and a dead worker is not healed.
        """
        drained = len(self._pending)
        while self._pending:
            for shard in self._pending.popleft().active:
                self._workers[shard].receive(timeout=timeout)
        return drained

    def _require_idle(self, operation: str) -> None:
        if self._closed:
            raise RuntimeError("ShardedDetectorPool is closed")
        if self._pending:
            raise RuntimeError(
                f"cannot {operation} with {len(self._pending)} submitted "
                "batch(es) pending; collect() them first"
            )

    def _account(self, shard: int, reply: tuple) -> None:
        """Add one ``observe`` reply's telemetry to the pool's."""
        _, busy, kernel, steps = reply
        self.busy_seconds[shard] += busy
        self.kernel_seconds[shard] += kernel
        self.kernel_steps = [total + step for total, step in zip(self.kernel_steps, steps)]

    def _clear_pool_state(self) -> None:
        """Zero the pool-level telemetry.

        The single definition of "pristine pool state" shared by
        :meth:`reset` and :meth:`reopen` (fresh construction produces
        the same values), so the two lifecycle paths cannot drift.
        """
        self.alerts_routed = [0] * self.n_shards
        self.busy_seconds = [0.0] * self.n_shards
        self.kernel_seconds = [0.0] * self.n_shards
        self.busy_seconds_retired = 0.0
        self.kernel_seconds_retired = 0.0
        self.alerts_routed_retired = 0
        self.kernel_steps = [0, 0, 0]

    def reset(self) -> None:
        """Forget all shard state."""
        self._require_idle("reset")
        self._clear_pool_state()
        self._round("reset")

    def reset_entity(self, entity: str) -> None:
        """Forget one entity on the shard that owns it."""
        self._require_idle("reset_entity")
        shard = shard_of(entity, self.n_shards)
        worker = self._workers[shard]
        worker.send("reset_entity", entity)
        status, result = worker.receive()
        if status != "ok":
            raise self._shard_error(shard, status, result)

    # -- live resharding ---------------------------------------------------
    def reshard(self, n_shards: int) -> ReshardEvent:
        """Live N→M reshard: migrate per-entity detector state in place.

        Because all detector state is per-entity and routing is a pure
        function of the entity (``crc32(entity) % n_shards``), moving
        every entity's state wholesale to the shard that owns it under
        the new count -- and nothing else -- reproduces exactly the
        state a pool *constructed* with ``n_shards=M`` would have
        reached on the same stream, so subsequent output is
        bit-identical across the transition.

        Mechanics: every shard's tracks are harvested into the parent
        (the same ``snapshot`` round a checkpoint uses, so with a
        restart budget a SIGKILLed worker is healed by its carrier on the
        way) and regrouped by ``shard_of(entity, M)``; the old carriers
        are retired, and M new ones are built and ``restore``\\ d from
        the regrouped tracks (each builds its replica from the factory
        and adopts them).  No detector is built or unpickled here.
        Requires an idle pool: callers must collect in-flight tickets
        first (the pipeline's ``reshard`` control refuses to run with a
        batch in flight for exactly this reason).

        Telemetry arrays (``alerts_routed``/``busy_seconds``/
        ``kernel_seconds``) are re-zeroed at the new width; their
        totals accumulate on the ``*_retired`` counters and in the
        returned :class:`ReshardEvent` (also appended to
        :attr:`reshard_log`).

        The new carriers start from the regrouped tracks as their
        recovery snapshots, but the per-shard restart budget is **not**
        refreshed: shards that keep their index carry their consumed
        ``max_restarts`` attempts across the transition (only shards
        new at a wider count start from zero), so periodic resharding
        cannot mask a crash-looping worker from the recovery-budget
        contract.
        """
        self._require_idle("reshard")
        new_n = int(n_shards)
        if new_n < 1:
            raise ValueError("n_shards must be >= 1")
        started = time.perf_counter()
        old_n = self.n_shards
        recoveries_before = len(self.recovery_log)
        harvest = [pickle.loads(blob) for blob in self._round("snapshot")]
        healed = self.recovery_log[recoveries_before:]
        rebuilt = sorted({event.shard for event in healed if event.healed})
        groups: List[Dict[str, object]] = [{} for _ in range(new_n)]
        for tracks in harvest:
            for entity, track in tracks.items():
                groups[shard_of(entity, new_n)][entity] = track
        moved = sum(map(len, groups))
        blobs = [pickle.dumps(group, pickle.HIGHEST_PROTOCOL) for group in groups]
        # Fresh workers, not a fresh fault history (see above).
        del self._restarts_used[new_n:]
        self._restarts_used.extend([0] * (new_n - old_n))
        # New carriers (and, for process shards, new rings: they are
        # per-shard-slot plumbing) at the new width, restored from the
        # regrouped tracks.  A failure leaves the pool closed.
        self._replace_workers(new_n)
        try:
            self._round("restore", blobs)
        except Exception:
            self._retire_workers()
            raise
        routed_before = sum(self.alerts_routed)
        busy_before = sum(self.busy_seconds)
        kernel_before = sum(self.kernel_seconds)
        self.alerts_routed_retired += routed_before
        self.busy_seconds_retired += busy_before
        self.kernel_seconds_retired += kernel_before
        self.n_shards = new_n
        self.alerts_routed = [0] * new_n
        self.busy_seconds = [0.0] * new_n
        self.kernel_seconds = [0.0] * new_n
        event = ReshardEvent(
            old_n_shards=old_n,
            new_n_shards=new_n,
            backend=self.backend,
            entities_moved=moved,
            alerts_routed_before=routed_before,
            busy_seconds_before=busy_before,
            kernel_seconds_before=kernel_before,
            rebuilt_shards=tuple(rebuilt),
            reshard_seconds=time.perf_counter() - started,
        )
        self.reshard_log.append(event)
        return event

    # -- checkpointing -----------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """The pool's state for a checkpoint: its shape (``n_shards``,
        ``backend``) and one tracks blob per shard (the ``snapshot`` verb).

        No model (replicas come from the factory), no run telemetry.
        Requires an idle pool: a snapshot with batches in flight would
        be neither before nor after them.
        """
        self._require_idle("snapshot_state")
        return {
            "n_shards": self.n_shards,
            "backend": self.backend,
            "shards": self._round("snapshot"),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Load a :meth:`snapshot_state` mapping back into this pool.

        The pool must be idle and configured identically (same shard
        count and backend) to the snapshotted one, and the mapping must
        carry exactly one blob per shard; a mismatch is refused with
        ``ValueError`` before any shard is touched.  Each shard's
        ``restore`` adopts its blob's tracks into a fresh replica.
        """
        self._require_idle("restore_state")
        if state["n_shards"] != self.n_shards or state["backend"] != self.backend:
            raise ValueError(
                "checkpoint was taken with n_shards="
                f"{state['n_shards']} backend={state['backend']!r}; this pool "
                f"has n_shards={self.n_shards} backend={self.backend!r}"
            )
        blobs = [bytes(blob) for blob in state["shards"]]
        if len(blobs) != self.n_shards:
            raise ValueError(
                f"checkpoint carries {len(blobs)} shard blob(s) for "
                f"n_shards={self.n_shards}"
            )
        self._round("restore", blobs)

    # -- lifecycle ---------------------------------------------------------
    def reopen(self) -> None:
        """Restart the detection tier: pristine state, fresh carriers.

        After ``reopen()`` the pool behaves like a freshly constructed
        one -- no per-entity detector state, zeroed routing/busy
        telemetry, and every carrier rebuilt from
        the factory (brand-new worker processes and rings on the
        process backend), whose replicas are pristine by construction.
        Uncollected submitted batches are drained first (their results
        discarded), mirroring :meth:`close`; a dead worker is replaced,
        not healed, and the restart budget starts over with the new
        workers.

        Reopening a *closed* process pool is allowed -- this is the
        ``close()``/reopen lifecycle the campaign fuzzer exercises --
        and reopening an open pool recycles its workers.
        """
        self._drain_pending(timeout=5.0)
        self._restarts_used[:] = [0] * self.n_shards
        self._replace_workers(self.n_shards)
        self._clear_pool_state()

    def close(self, *, timeout: float = 5.0) -> PoolCloseResult:
        """Shut down worker processes (idempotent).

        Serial pools are a true no-op: they have no workers and remain
        usable.  A closed *process* pool rejects further batches.  Any
        still-uncollected submitted batches are drained (their results
        discarded) so the shutdown handshake never races a pending
        reply.

        Every wait -- pending-reply drain, shutdown handshake, process
        join -- is bounded by ``timeout`` seconds, and a worker that
        does not exit cooperatively is escalated ``terminate`` then
        ``kill``, so a hung or wedged worker can never deadlock
        shutdown; whatever the outcome its ring segment is unlinked.
        The returned :class:`PoolCloseResult` records the per-shard
        escalation outcomes.
        """
        if self.backend != "process":
            return PoolCloseResult(backend=self.backend)
        if self._closed:
            return PoolCloseResult(backend=self.backend, already_closed=True)
        drained = self._drain_pending(timeout=timeout)
        return PoolCloseResult(
            backend=self.backend,
            escalations=self._retire_workers(timeout),
            drained_batches=drained,
        )

    def __enter__(self) -> "ShardedDetectorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


__all__ = [
    "BACKENDS",
    "DetectorTemplate",
    "PoolCloseResult",
    "RecoveryEvent",
    "ReshardEvent",
    "RESTART_BACKOFF",
    "ShardedDetectorPool",
    "ShardRecoveryError",
    "ShardWorkerError",
    "shard_of",
]
