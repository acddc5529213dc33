"""Per-entity sharded detection: the pipeline's parallel detection layer.

All detector state is per-entity (PR 1 moved every piece of mutable
inference state into per-entity :class:`repro.core.streaming
.StreamingDecoder` instances), so the alert stream can be partitioned
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
kernel_seconds)`` out), ``reset_entity``, ``reset``, ``snapshot`` (the
pickled replica out) and ``restore`` (a pickled replica in); each is
implemented once, in the handler.  The two backends are two *carriers*
of that protocol and nothing more:

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
usable.

**One wire.**  How a sub-batch crosses the process boundary is private
to :meth:`_ProcessShard.send`: the batch is packed into columns and
flat-encoded (:func:`repro.core.alerts.encode_alert_columns`), the
bytes go into the shard's shared-memory ring and only an ``(offset,
length, seq)`` descriptor crosses the pipe.  Bytes that do not fit the
ring travel on the pipe instead, and a batch the codec cannot express
travels as pickled columns -- each the only path for some input, both
counted in ``shm_fallbacks``.  There is no transport option.

**One recovery.**  Only a process can die, so what happens then is
private to :class:`_ProcessShard` too.  Under
``restart_policy="raise"`` the ``receive`` that meets the corpse
returns ``("dead", detail)`` and the pool raises
:class:`ShardWorkerError`.  Under ``"restore"`` the carrier keeps the
shard's recoverable image -- the last ``snapshot`` blob, the
state-changing messages answered since it, and the payloads of the
messages still unanswered -- and that same ``receive`` heals: respawn
(exponential backoff, ``max_restarts`` per shard), ``restore`` the
blob, re-``send`` the log and the unanswered messages in order, record
a :class:`RecoveryEvent`, and return the fresh worker's reply to the
message the caller was waiting on -- an ``observe``, a checkpoint's
``snapshot``, a ``restore``, a ``reset`` or a ``reset_entity`` alike.
A spent budget reads back as ``("unrecovered", detail)``, raised as
:class:`ShardRecoveryError`.  The log is folded into a fresh snapshot
whenever the worker owes nothing, and at the latest when it reaches
:data:`REPLAY_LOG_LIMIT` messages.  Draining for shutdown (a
``receive`` with a timeout: ``close``, ``reopen``) never heals.

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
    decode_alert_columns,
    encode_alert_columns,
    pack_alert_columns,
    unpack_alert_columns,
)
from ..core.attack_tagger import Detection
from ..core.detector import Detector
from .shm_ring import DEFAULT_RING_CAPACITY, ShardRing

#: Supported execution backends (the two carriers of the shard protocol).
BACKENDS = ("serial", "process")

#: Supported worker-death policies (process backend).
RESTART_POLICIES = ("raise", "restore")


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

    Raised only under ``restart_policy="restore"`` once the restart
    budget is exhausted; subclasses :class:`ShardWorkerError` so
    existing handlers keep working.  ``attempts`` is the number of
    respawns that were tried (every one of them is also recorded in the
    pool's :class:`RecoveryLog`).
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


class ReshardLog:
    """Append-only record of every live reshard (an operations log)."""

    def __init__(self) -> None:
        self.events: List[ReshardEvent] = []

    def record(self, event: ReshardEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


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


class RecoveryLog:
    """Append-only record of every supervised worker recovery."""

    def __init__(self) -> None:
        self.events: List[RecoveryEvent] = []

    def record(self, event: RecoveryEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def for_shard(self, shard: int) -> List[RecoveryEvent]:
        """Recovery events for one shard, oldest first."""
        return [event for event in self.events if event.shard == shard]

    @property
    def healed(self) -> List[RecoveryEvent]:
        """Restarts that brought the shard back."""
        return [event for event in self.events if event.healed]


def shard_of(entity: str, n_shards: int) -> int:
    """The shard an entity's alerts are routed to (stable across processes)."""
    if n_shards <= 1:
        return 0
    return zlib.crc32(entity.encode("utf-8")) % n_shards


@dataclasses.dataclass(frozen=True)
class _IdentityFactory:
    """``wrap()``'s factory: hands out the wrapped instance itself.

    Only valid for a single serial shard -- every call returns the
    *same* object, which is exactly what the facade path wants (the
    caller's detector instance keeps doing the work) and wrong for any
    real fan-out.
    """

    detector: Detector

    def __call__(self) -> Detector:
        return self.detector


@dataclasses.dataclass(frozen=True)
class DetectorTemplate:
    """Picklable detector factory: deep-copies a pristine template.

    ``AttackTagger.clone()`` is used when available (it shares the
    read-only parameter tables instead of copying them); other
    detectors fall back to :func:`copy.deepcopy`.  Being a plain frozen
    dataclass, the factory pickles cleanly into worker processes.
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
    reply to every verb except ``restore`` (which installs a replica
    and so clears it): a supervisor can restore into a shard whose
    factory crashed.

    ``unwire`` turns an ``observe`` payload into the list of alerts;
    ``None`` means the payload already is that list.  It runs inside
    the timed region, so ``busy_seconds`` covers a carrier's decode.
    """

    def __init__(self, factory, unwire=None) -> None:
        self._unwire = unwire
        self.failure: Optional[_WorkerTraceback] = None
        try:
            self.detector: Optional[Detector] = factory()
        except Exception as exc:  # reported per command, not lost
            self.detector = None
            self.failure = _WorkerTraceback.capture(exc)

    def handle(self, verb: str, payload=None) -> Tuple[str, object]:
        """Answer one command; never raises for a detector failure."""
        if self.failure is not None and verb != "restore":
            return ("error", self.failure)
        try:
            method = self._VERBS.get(verb)
            if method is None:
                raise ValueError(f"unknown shard verb {verb!r}")
            return ("ok", method(self, payload))
        except Exception as exc:
            return ("error", _WorkerTraceback.capture(exc))

    def _observe(self, payload):
        """``(hits, busy_seconds, kernel_seconds)`` for one sub-batch.

        ``hits`` are ``(position, detection)`` pairs indexed into the
        sub-batch, ``busy_seconds`` the CPU time unwire + observe
        consumed in the hosting process, and ``kernel_seconds`` the
        wall-clock slice of that spent inside the detector's vectorised
        decode kernel (0.0 for detectors without one).  A detector
        exposing the optional ``observe_batch_indexed`` extension (see
        :class:`repro.core.detector.Detector`) gets the whole sub-batch
        in one call -- the ``AttackTagger``'s stacked cross-entity
        kernel -- instead of the per-alert loop.
        """
        started = time.process_time()
        alerts = payload if self._unwire is None else self._unwire(payload)
        detector = self.detector
        kernel_before = getattr(detector, "kernel_seconds", 0.0)
        indexed = getattr(detector, "observe_batch_indexed", None)
        if indexed is not None:
            hits: List[Tuple[int, Detection]] = indexed(alerts)
        else:
            hits = []
            for position, alert in enumerate(alerts):
                detection = detector.observe(alert)
                if detection is not None:
                    hits.append((position, detection))
        kernel = getattr(detector, "kernel_seconds", 0.0) - kernel_before
        return hits, time.process_time() - started, kernel

    def _reset_entity(self, entity: str) -> None:
        self.detector.reset_entity(entity)

    def _reset(self, _payload) -> None:
        self.detector.reset()

    def _snapshot(self, _payload) -> bytes:
        return pickle.dumps(self.detector, pickle.HIGHEST_PROTOCOL)

    def _restore(self, blob: bytes) -> None:
        """Install a pickled replica, *in place* when the types match.

        The ``__dict__`` swap keeps the detector object's identity, so
        a :meth:`ShardedDetectorPool.wrap` facade keeps handing out the
        caller's own instance after a checkpoint restore.
        """
        restored = pickle.loads(blob)
        current = self.detector
        if current is not None and type(restored) is type(current):
            current.__dict__.clear()
            current.__dict__.update(restored.__dict__)
        else:
            self.detector = restored
        self.failure = None

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
    takes the ``Alert`` list as-is: nothing crosses a process boundary,
    so nothing is packed, encoded, or counted as shipped.
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
    :meth:`_ProcessShard.send`'s wire forms for ``observe`` -- a ring
    descriptor (``seq`` must be strictly increasing: a stale or
    reordered descriptor is an error, never a silently wrong batch),
    the encoded bytes on the pipe, or packed columns.
    """
    ring: Optional[ShardRing] = None
    ring_failure = ""
    last_seq = -1
    try:
        ring = ShardRing.attach(ring_name)
    except Exception:
        ring_failure = ":\n" + traceback.format_exc()

    def unwire(message) -> List[Alert]:
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
            body = ring.view(offset, length)
        if form != "columns":
            body = decode_alert_columns(body)
        return unpack_alert_columns(body)

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
    """What a process carrier heals with under ``restart_policy="restore"``.

    ``restarts_used`` (one counter per shard) and ``log`` belong to the
    pool and are shared by reference, so the consumed budget and the
    audit trail outlive the carriers a :meth:`~ShardedDetectorPool
    .reshard` replaces.
    """

    max_restarts: int
    backoff_base: float
    restarts_used: List[int]
    log: RecoveryLog


#: A supervised carrier folds its replay log into a fresh snapshot once
#: log + unanswered messages reach this many.  Folding first finishes
#: the replies the worker still owes, i.e. it blocks on the worker --
#: so the limit sits well above what a 120-alert chaos campaign submits
#: to one shard (13 batches and controls at most over the pinned
#: seeds), and the SIGSTOP row of ``fuzz/chaos.py`` can never freeze
#: inside that wait.
REPLAY_LOG_LIMIT = 128


class _ProcessShard:
    """Process carrier: one worker process, its pipe, its ring, its recovery.

    Owns everything the hop needs -- the shared-memory ring (created
    here, unlinked by :meth:`close`), the FIFO of unanswered messages
    and the descriptor sequence -- so "ring or pipe" is a private
    decision of :meth:`send`, tallied into ``counts`` (keys
    ``shm_batches``/``shm_fallbacks``; the pool passes its own).  Every
    ``send`` is answered by exactly one ``receive``, including a send a
    dead worker swallowed (its receive reports the death).

    With a ``recovery`` (the ``restore`` policy) the carrier also keeps
    the shard's recoverable image -- the last snapshot blob, the
    state-changing messages answered since it (``_log``) and the
    payloads of the unanswered ones -- and :meth:`receive` heals a dead
    worker from it instead of reporting the death.  Without one (the
    ``raise`` policy) no payload is retained and nothing below runs.
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
        #: message) and, under ``restore`` only, its ``(verb, payload)``.
        self._transit: Deque[tuple] = collections.deque()
        #: Recovery image: pickled replica (``None`` = pristine factory
        #: state) plus the state-changing messages answered since.
        self._snapshot: Optional[bytes] = None
        self._log: List[tuple] = []
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

    def _wire(self, alerts: Sequence[Alert]):
        """``(wire payload, ring region or None)`` for one sub-batch.

        The flat encoding goes into the ring when it fits; the same
        bytes go on the pipe when it does not, and packed columns go on
        the pipe for a batch outside the codec's type set.
        """
        packed = pack_alert_columns(alerts)
        try:
            encoded = encode_alert_columns(packed)
        except AlertColumnsCodecError:
            self._counts["shm_fallbacks"] += 1
            return ("columns", packed), None
        offset = self.ring.write(encoded)
        if offset is None:
            self._counts["shm_fallbacks"] += 1
            return ("bytes", encoded), None
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
        if self._log and len(self._log) + len(self._transit) >= REPLAY_LOG_LIMIT:
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
        death is handled: under ``raise`` it becomes a ``("dead",
        detail)`` reply, which callers map to the typed
        :class:`ShardWorkerError`; under ``restore`` the worker is
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
        reply = self._next_reply(timeout)
        if self._log and not self._transit and timeout is None:
            self._fold()  # the worker owes nothing: the cheapest moment
        return reply

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
        ``snapshot`` or ``restore`` blob *is* the new snapshot, any
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
                elif verb != "snapshot":
                    self._log.append(message)
        return reply

    def _release(self) -> Optional[tuple]:
        """Drop the oldest transit entry, freeing its ring region."""
        region, message = self._transit.popleft()
        if region is not None:
            self.ring.release(*region)
        return message

    def _fold(self) -> None:
        """Fold the replay log into a fresh snapshot of the replica.

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
            backoff = recovery.backoff_base * 2.0 ** (used[self.index] - 1)
            if backoff > 0:
                time.sleep(backoff)
            started = time.perf_counter()
            try:
                self.restart()
            except Exception:  # pragma: no cover - spawn failure
                pass
            else:
                reply = self._replay(owed)
            recovery.log.record(
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
    collect time.
    """

    __slots__ = ("positions", "active")

    def __init__(self, positions: List[List[int]], active: List[int]) -> None:
        self.positions = positions
        self.active = active


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
    """Entity-sharded detection layer satisfying the ``Detector`` protocol.

    Parameters
    ----------
    detector_factory:
        Zero-argument callable producing one pristine detector replica
        per shard.  Must be picklable for the process backend
        (:class:`DetectorTemplate` wraps an existing instance).  A
        factory that raises does not fail construction: the shard
        answers every command with the failure (see
        :class:`_ShardHandler`), on both backends.
    n_shards:
        Number of independent shards (>= 1).
    backend:
        ``"serial"`` or ``"process"``: which carrier runs the shards
        (see module docstring).
    restart_policy:
        What worker death does to the pool (process backend only).
        ``"raise"`` (default): the death surfaces as a typed
        :class:`ShardWorkerError` from whichever call reads the dead
        shard's reply.  ``"restore"``: each process carrier heals its
        own worker (see "One recovery" in the module docstring) -- it
        respawns it with bounded exponential backoff, restores the
        last snapshot and re-sends what the dead worker had been sent
        since, so the caller sees the same results an uninterrupted
        run produces, whichever operation met the corpse; every
        restart is recorded in :attr:`recovery_log`.
        Deterministically fatal inputs (a sub-batch that kills the
        worker on every replay) burn through ``max_restarts`` and then
        raise :class:`ShardRecoveryError`.
    max_restarts:
        Per-shard restart budget under ``restart_policy="restore"``,
        for the pool's lifetime: only :meth:`reopen` refreshes it.
    backoff_base:
        First restart waits ``backoff_base`` seconds, each further
        attempt doubles it (exponential backoff).
    max_inflight:
        Declared pipelining depth: how many submitted-but-uncollected
        batches the driving layer should keep in flight per shard
        (>= 1).  The pool does not enforce a cap -- callers may submit
        freely -- but overlapped drivers size their submission window
        from it, and ring capacity planning assumes it.
    ring_capacity:
        Per-shard shared-memory ring size in bytes (process backend).
        Size it to hold ``max_inflight`` encoded sub-batches; a batch
        that does not fit travels on the pipe instead (counted in
        ``shm_fallbacks``), so undersizing costs throughput, never
        correctness.  Rings are transient plumbing: excluded from
        snapshots/checkpoints, replaced with their carriers across
        :meth:`reshard`/:meth:`reopen`, and unlinked by :meth:`close`.

    The pool accumulates the merged detection stream itself, so
    ``pool.detections`` is equivalent to the unsharded detector's
    ``detections`` regardless of backend.
    """

    def __init__(
        self,
        detector_factory,
        *,
        n_shards: int = 1,
        backend: str = "serial",
        restart_policy: str = "raise",
        max_restarts: int = 3,
        backoff_base: float = 0.05,
        max_inflight: int = 1,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if restart_policy not in RESTART_POLICIES:
            raise ValueError(f"restart_policy must be one of {RESTART_POLICIES}")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")
        self.n_shards = int(n_shards)
        self.backend = backend
        self.restart_policy = restart_policy
        self.max_restarts = int(max_restarts)
        self.backoff_base = float(backoff_base)
        self.max_inflight = int(max_inflight)
        self.ring_capacity = int(ring_capacity)
        #: Every supervised worker recovery ever performed (survives
        #: reset/reopen: it is an operations log, not pool state).
        self.recovery_log = RecoveryLog()
        #: Restarts each shard has consumed; pool-owned (like
        #: ``_wire_counts``) so the budget outlives the carriers.
        self._restarts_used: List[int] = [0] * self.n_shards
        #: What the process carriers heal with (``None``: they don't).
        self._recovery: Optional[_Recovery] = None
        if restart_policy == "restore":
            self._recovery = _Recovery(
                self.max_restarts,
                self.backoff_base,
                self._restarts_used,
                self.recovery_log,
            )
        #: Every live N→M reshard ever performed (same ops-log status).
        self.reshard_log = ReshardLog()
        self.detector_factory = detector_factory
        self._detections: List[Detection] = []
        # entity -> shard memo; `shard_of()` stays the documented source
        # of truth (the cache is populated from it and never diverges:
        # routing is a pure function of the entity and the fixed shard
        # count), it just spares hot entities a crc32 per alert.
        self._shard_cache: Dict[str, int] = {}
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
    def wrap(cls, detector: Detector) -> "ShardedDetectorPool":
        """Single serial shard around an *existing* detector instance.

        This is the facade path: the pipeline's default configuration
        (``n_shards=1``) keeps driving the very detector object the
        caller constructed (no clone, no copy), so external references
        observe its state.
        """
        return cls(_IdentityFactory(detector), n_shards=1, backend="serial")

    @classmethod
    def from_template(cls, detector: Detector, **options) -> "ShardedDetectorPool":
        """Pool whose shards are clones of a pristine template detector.

        ``options`` are the constructor's keyword arguments.
        """
        return cls(DetectorTemplate(detector), **options)

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

    #: Entity->shard memo entries kept (LRU): bounds parent-process
    #: memory on the unbounded-cardinality entity streams a long-lived
    #: service sees.  Routing stays correct either way -- an evicted
    #: entity just pays one crc32 again.
    _SHARD_CACHE_LIMIT = 1 << 17

    # -- routing -----------------------------------------------------------
    def shard_of(self, entity: str) -> int:
        """The shard the entity's alerts are routed to (memoised, LRU).

        The memo exploits dict insertion order as recency order: a hit
        re-inserts the entry at the back, so eviction of the front
        entry (``next(iter(...))``) is least-recently-used.  That keeps
        the hot working set resident even when total entity cardinality
        far exceeds the cap -- the clear-everything alternative would
        periodically forget the hot entities too.
        """
        cache = self._shard_cache
        shard = cache.pop(entity, None)
        if shard is None:
            if len(cache) >= self._SHARD_CACHE_LIMIT:
                cache.pop(next(iter(cache)))
            shard = shard_of(entity, self.n_shards)
        cache[entity] = shard
        return shard

    def _partition(
        self, alerts: Sequence[Alert]
    ) -> Tuple[List[List[Alert]], List[List[int]]]:
        """Split one batch into per-shard sub-batches, remembering positions."""
        sub_batches: List[List[Alert]] = [[] for _ in range(self.n_shards)]
        positions: List[List[int]] = [[] for _ in range(self.n_shards)]
        memo = self.shard_of
        for position, alert in enumerate(alerts):
            shard = memo(alert.entity)
            sub_batches[shard].append(alert)
            positions[shard].append(position)
        return sub_batches, positions

    # -- Detector protocol -------------------------------------------------
    @property
    def detections(self) -> list[Detection]:
        """All detections emitted so far, merged into stream order."""
        return list(self._detections)

    def observe(self, alert: Alert) -> Optional[Detection]:
        """Route one alert to its shard; return a detection if one fires."""
        found = self.observe_batch([alert])
        return found[0] if found else None

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

    def submit_batch(self, alerts: Iterable[Alert]) -> _PendingBatch:
        """Ship one batch to the shards without waiting for the results.

        Returns a ticket for :meth:`collect`.  Process shards start
        computing as soon as their sub-batch lands, so the caller can
        overlap other work with them; the payload sits in a ring and
        only a tiny descriptor on the pipe, so pipelining
        ``max_inflight`` batches deep never blocks on worker progress
        (a full ring degrades to the pipe, which can).  In-process
        shards compute here, inside the send.  Either way a detector
        exception is a reply like any other and is raised at collect
        time.  Tickets must be collected in submission order.
        """
        if self._closed:
            raise RuntimeError("ShardedDetectorPool is closed")
        sub_batches, positions = self._partition(list(alerts))
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
                    self.busy_seconds[shard] += reply[1]
                    self.kernel_seconds[shard] += reply[2]
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
            shard_hits, busy, kernel = result
            self.busy_seconds[shard] += busy
            self.kernel_seconds[shard] += kernel
            shard_positions = ticket.positions[shard]
            hits.extend(
                (shard_positions[local], detection) for local, detection in shard_hits
            )
        if error is not None:
            raise error
        hits.sort(key=lambda item: item[0])
        merged = [detection for _, detection in hits]
        self._detections.extend(merged)
        return merged

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

    def _clear_pool_state(self) -> None:
        """Zero the pool-level records: detections and telemetry.

        The single definition of "pristine pool state" shared by
        :meth:`reset` and :meth:`reopen` (fresh construction produces
        the same values), so the two lifecycle paths cannot drift.
        """
        self._detections.clear()
        self.alerts_routed = [0] * self.n_shards
        self.busy_seconds = [0.0] * self.n_shards
        self.kernel_seconds = [0.0] * self.n_shards
        self.busy_seconds_retired = 0.0
        self.kernel_seconds_retired = 0.0
        self.alerts_routed_retired = 0

    def reset(self) -> None:
        """Forget all shard state and past detections."""
        self._require_idle("reset")
        self._clear_pool_state()
        self._round("reset")

    def reset_entity(self, entity: str) -> None:
        """Forget one entity on the shard that owns it."""
        self._require_idle("reset_entity")
        shard = self.shard_of(entity)
        worker = self._workers[shard]
        worker.send("reset_entity", entity)
        status, result = worker.receive()
        if status != "ok":
            raise self._shard_error(shard, status, result)

    # -- live resharding ---------------------------------------------------
    def _migration_factory(self) -> DetectorTemplate:
        """A per-shard replica factory usable at the *new* shard count.

        ``wrap()``'s :class:`_IdentityFactory` hands out the same
        object on every call -- correct for the single-shard facade,
        wrong for any fan-out -- so resharding converts it into a
        :class:`DetectorTemplate` over the wrapped detector (whose
        ``clone()`` produces pristine replicas).  The conversion is
        recorded on the pool, so heals and reopens after the reshard
        use the template too.
        """
        factory = self.detector_factory
        if isinstance(factory, _IdentityFactory):
            clone = getattr(factory.detector, "clone", None)
            if not callable(clone):
                raise TypeError(
                    "cannot reshard a wrap()-facade pool: the wrapped "
                    f"detector {type(factory.detector).__name__} has no "
                    "clone() to build additional replicas from"
                )
            factory = DetectorTemplate(factory.detector)
            self.detector_factory = factory
        return factory

    def reshard(self, n_shards: int) -> ReshardEvent:
        """Live N→M reshard: migrate per-entity detector state in place.

        Because all detector state is per-entity and routing is a pure
        function of the entity (``crc32(entity) % n_shards``), moving
        every entity's state wholesale to the shard that owns it under
        the new count -- and nothing else -- reproduces exactly the
        state a pool *constructed* with ``n_shards=M`` would have
        reached on the same stream.  Detections were already merged
        back into stream order at collect time, so subsequent output is
        bit-identical across the transition.

        Mechanics: every current replica is harvested into the parent
        (the same ``snapshot`` round a checkpoint uses, so under
        ``restore`` a SIGKILLed worker is healed by its carrier on the
        way), the per-entity tracks are exported via
        the detectors' optional migration extension
        (``export_entity_tracks`` / ``adopt_entity_track`` /
        ``replace_detections`` -- see
        :class:`repro.core.detector.Detector`) and re-routed into M
        fresh replicas, the old carriers are retired, and M new ones
        are built and ``restore``\\ d from the migrated replicas.
        Requires an idle pool: callers must collect in-flight tickets
        first (the pipeline's ``reshard`` control refuses to run with a
        batch in flight for exactly this reason).

        Telemetry arrays (``alerts_routed``/``busy_seconds``/
        ``kernel_seconds``) are re-zeroed at the new width; their
        totals accumulate on the ``*_retired`` counters and in the
        returned :class:`ReshardEvent` (also appended to
        :attr:`reshard_log`).

        The new carriers start from the migrated replicas as their
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
        factory = self._migration_factory()
        recoveries_before = len(self.recovery_log)
        replicas = [pickle.loads(blob) for blob in self._round("snapshot")]
        rebuilt = sorted(
            {
                event.shard
                for event in self.recovery_log.events[recoveries_before:]
                if event.healed
            }
        )
        fresh: List[Detector] = [factory() for _ in range(new_n)]
        moved = 0
        for replica in replicas:
            export = getattr(replica, "export_entity_tracks", None)
            if export is None:
                raise TypeError(
                    f"detector {type(replica).__name__} does not support "
                    "live resharding: it lacks the export_entity_tracks/"
                    "adopt_entity_track migration extension"
                )
            for entity, track in export().items():
                target = fresh[shard_of(entity, new_n)]
                adopt = getattr(target, "adopt_entity_track", None)
                if adopt is None:
                    raise TypeError(
                        f"detector {type(target).__name__} does not support "
                        "live resharding: it lacks adopt_entity_track"
                    )
                adopt(entity, track)
                moved += 1
        # Rebuild each replica's own detection log from the pool-level
        # merged log (complete and stream-ordered), filtered by the new
        # routing, so `replica.detections` introspection stays
        # consistent with a pool constructed at the new count.
        for index, replica in enumerate(fresh):
            replace = getattr(replica, "replace_detections", None)
            if replace is not None:
                replace(
                    [
                        detection
                        for detection in self._detections
                        if shard_of(detection.entity, new_n) == index
                    ]
                )
        blobs = [pickle.dumps(replica, pickle.HIGHEST_PROTOCOL) for replica in fresh]
        # Fresh workers, but not a fresh fault history: shards that
        # keep their index carry their consumed restart budget across
        # the transition (shards new at a wider count start at zero).
        # Otherwise a periodic reshard would refresh a crash-looping
        # worker's budget forever and ShardRecoveryError -- the budget
        # contract -- could never surface on a long-lived service.
        del self._restarts_used[new_n:]
        self._restarts_used.extend([0] * (new_n - old_n))
        # New carriers (and, for process shards, new rings: they are
        # per-shard-slot plumbing) at the new width, restored from the
        # migrated replicas.  A failure leaves the pool closed.
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
        # The memo maps entities to *old* shard indices: flush it.
        self._shard_cache.clear()
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
        self.reshard_log.record(event)
        return event

    # -- checkpointing -----------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """Capture the pool's full state for a pipeline checkpoint.

        Returns a picklable mapping: one pickled detector blob per
        shard (the ``snapshot`` verb) plus the pool-level records
        (recorded detections, routing memo, busy telemetry).  Requires
        an idle pool -- a snapshot with submitted batches in flight
        would be neither before nor after them.
        """
        self._require_idle("snapshot_state")
        return {
            "n_shards": self.n_shards,
            "backend": self.backend,
            "shards": self._round("snapshot"),
            "detections": list(self._detections),
            "alerts_routed": list(self.alerts_routed),
            "busy_seconds": list(self.busy_seconds),
            "kernel_seconds": list(self.kernel_seconds),
            "busy_seconds_retired": self.busy_seconds_retired,
            "kernel_seconds_retired": self.kernel_seconds_retired,
            "alerts_routed_retired": self.alerts_routed_retired,
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Load a :meth:`snapshot_state` mapping back into this pool.

        The pool must be idle and configured identically (same shard
        count and backend) to the snapshotted one, and the mapping must
        carry exactly one blob per shard; a mismatch is refused with
        ``ValueError`` before any shard is touched.  Every shard
        receives the ``restore`` verb, which swaps state in *in place*
        (see :meth:`_ShardHandler._restore`) so facade pools built with
        :meth:`wrap` keep handing out the caller's original detector
        object.
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
        self._detections[:] = list(state["detections"])
        self.alerts_routed = list(state["alerts_routed"])
        self.busy_seconds = list(state["busy_seconds"])
        # Absent in checkpoints taken before the stacked decode kernel.
        self.kernel_seconds = list(
            state.get("kernel_seconds", [0.0] * self.n_shards)
        )
        # Absent in checkpoints taken before live resharding landed.
        self.busy_seconds_retired = float(state.get("busy_seconds_retired", 0.0))
        self.kernel_seconds_retired = float(
            state.get("kernel_seconds_retired", 0.0)
        )
        self.alerts_routed_retired = int(state.get("alerts_routed_retired", 0))

    # -- lifecycle ---------------------------------------------------------
    def reopen(self) -> None:
        """Restart the detection tier: pristine state, fresh carriers.

        After ``reopen()`` the pool behaves like a freshly constructed
        one -- no per-entity detector state, no recorded detections,
        zeroed routing/busy telemetry, every carrier rebuilt from the
        factory (brand-new worker processes and rings on the process
        backend) and then ``reset``, so a :meth:`wrap` facade, whose
        factory hands the caller's own detector instance back, comes
        out pristine too -- which is exactly what "the detection tier
        restarted" means there.  Uncollected submitted batches are
        drained first (their results discarded), mirroring
        :meth:`close`; a dead worker is replaced, not healed, and the
        restart budget starts over with the new workers.

        Reopening a *closed* process pool is allowed -- this is the
        ``close()``/reopen lifecycle the campaign fuzzer exercises --
        and reopening an open pool recycles its workers.
        """
        self._drain_pending(timeout=5.0)
        self._restarts_used[:] = [0] * self.n_shards
        self._replace_workers(self.n_shards)
        self._clear_pool_state()
        self._round("reset")

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
    "RecoveryLog",
    "ReshardEvent",
    "ReshardLog",
    "RESTART_POLICIES",
    "ShardedDetectorPool",
    "ShardRecoveryError",
    "ShardWorkerError",
    "shard_of",
]
