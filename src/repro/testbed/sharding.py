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

Two execution backends share the same routing and merge logic:

* ``serial`` (default) -- ``n_shards`` detector replicas in the calling
  process, processed shard-by-shard.  Deterministic, dependency-free,
  and the reference the process backend is tested against.
* ``process`` -- one persistent worker process per shard.  Workers
  hold their detector replica for the lifetime of the pool (detector
  state must persist across batches), so the per-batch cost is moving
  the sub-batches, not detector state.  Two transports (see
  :data:`TRANSPORTS`): ``pickle`` sends the columnar representation of
  :func:`repro.core.alerts.pack_alert_columns` (parallel tuples of
  primitive fields instead of per-``Alert`` objects) over the worker
  pipe; ``shm`` writes its flat binary encoding
  (:func:`repro.core.alerts.encode_alert_columns`) into a per-shard
  shared-memory ring and sends only an ``(offset, length, seq)``
  descriptor, so the payload crosses zero pipe buffers and the worker
  decodes straight out of the mapped segment.  Either way the batch is
  rebuilt into ``Alert`` instances worker-side.

**Non-blocking fan-out.**  ``observe_batch`` is sugar over the
two-phase :meth:`ShardedDetectorPool.submit_batch` /
:meth:`ShardedDetectorPool.collect` API: ``submit_batch`` ships the
sub-batches to the workers and returns immediately with a ticket, so
the caller can do other work (normalise and filter the *next* batch --
see :meth:`repro.testbed.pipeline.TestbedPipeline.ingest_raw_stream`)
while the workers compute; ``collect`` blocks for the replies, merges,
and returns the detections.  Tickets collect in submission (FIFO)
order.

**Crash propagation.**  A detector exception inside a worker does not
kill the worker loop: the worker catches it and replies
``("error", formatted_traceback)``; the parent drains the remaining
shards' replies for that batch (so the pool is never left with unread
replies) and re-raises a typed :class:`ShardWorkerError` naming the
shard and carrying the worker-side traceback.  The serial backend
wraps detector exceptions the same way, so both backends surface the
same typed error.  Either way the pool stays drivable afterwards --
the failing sub-batch is applied up to the poisoned alert on that
shard -- and ``close()`` shuts down cleanly.

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

#: Supported execution backends.
BACKENDS = ("serial", "process")

#: Supported worker-death policies (process backend).
RESTART_POLICIES = ("raise", "restore")

#: Supported sub-batch transports (process backend; serial has no
#: transport).  ``pickle``: columnar sub-batches pickled onto the
#: worker pipes (the original path).  ``shm``: the flat binary encoding
#: of :func:`repro.core.alerts.encode_alert_columns` written into a
#: per-shard shared-memory ring, with only ``(offset, length, seq)``
#: descriptors crossing the pipe; batches the codec cannot express and
#: ring-full conditions fall back to the pipe transparently (counted in
#: ``shm_fallbacks``).
TRANSPORTS = ("pickle", "shm")


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
    #: Shards whose worker was dead at harvest time and whose replica
    #: was rebuilt parent-side from the recovery snapshot + replay log.
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


def _shard_worker_main(factory, connection, ring_name: Optional[str] = None) -> None:
    """Worker loop of one process shard: owns a detector replica.

    Commands arrive as ``(verb, payload)`` tuples; every command is
    answered with exactly one status-tagged reply -- ``("ok", result)``
    or ``("error", formatted_traceback)`` -- so the parent can run a
    simple send-all / receive-all round per batch and a detector
    exception can never wedge the parent or lose its traceback.
    ``observe`` receives a columnar sub-batch
    (:func:`repro.core.alerts.pack_alert_columns`), or its flat binary
    encoding as raw bytes (the shm transport's pipe fallback), and
    replies with ``(hits, busy_seconds, kernel_seconds)`` where
    ``hits`` are ``(position, detection)`` pairs indexed into the
    sub-batch, ``busy_seconds`` is the CPU time the unpack+observe
    loop consumed (used by the sharding benchmark's critical-path
    metric), and ``kernel_seconds`` is the wall-clock slice of that
    spent inside the detector's vectorised decode kernel (0.0 for
    detectors without one).  ``observe_shm`` is the zero-copy variant:
    its payload is a ``(ring_offset, length, seq)`` descriptor and the
    batch bytes are read straight out of the attached shared-memory
    ring (``seq`` must be strictly increasing -- a stale or reordered
    descriptor is an error, never a silently wrong batch).  A detector
    exposing the optional ``observe_batch_indexed`` extension (see
    :class:`repro.core.detector.Detector`) gets the whole sub-batch in
    one call — the ``AttackTagger``'s stacked cross-entity kernel —
    instead of the per-alert loop.  ``snapshot`` replies with the
    pickled detector replica; ``restore`` replaces the replica with an
    unpickled snapshot (clearing any recorded factory failure, so a
    supervisor can restore into a worker whose factory crashed at
    spawn).
    """
    ring: Optional[ShardRing] = None
    ring_failure: Optional[str] = None
    last_seq = -1
    if ring_name is not None:
        try:
            ring = ShardRing.attach(ring_name)
        except Exception:
            ring_failure = traceback.format_exc()
    try:
        failure: Optional[str] = None
        try:
            detector = factory()
        except Exception:  # factory crash: report it per-command, not EOF
            detector, failure = None, traceback.format_exc()
        while True:
            command, payload = connection.recv()
            if command == "close":
                connection.send(("ok", None))
                return
            if command == "restore":
                try:
                    detector = pickle.loads(payload)
                    failure = None
                    connection.send(("ok", None))
                except Exception:
                    connection.send(("error", traceback.format_exc()))
                continue
            if failure is not None:
                connection.send(("error", failure))
                continue
            try:
                if command in ("observe", "observe_shm"):
                    started = time.process_time()
                    if command == "observe_shm":
                        if ring is None:
                            raise RuntimeError(
                                "observe_shm without an attached ring"
                                + (f":\n{ring_failure}" if ring_failure else "")
                            )
                        offset, length, seq = payload
                        if seq <= last_seq:
                            raise RuntimeError(
                                f"shm descriptor seq {seq} not after {last_seq}"
                            )
                        last_seq = seq
                        columns = decode_alert_columns(ring.view(offset, length))
                    elif isinstance(payload, (bytes, bytearray, memoryview)):
                        columns = decode_alert_columns(payload)
                    else:
                        columns = payload
                    kernel_before = getattr(detector, "kernel_seconds", 0.0)
                    indexed = getattr(detector, "observe_batch_indexed", None)
                    if indexed is not None:
                        hits: List[Tuple[int, Detection]] = indexed(
                            unpack_alert_columns(columns)
                        )
                    else:
                        hits = []
                        for position, alert in enumerate(
                            unpack_alert_columns(columns)
                        ):
                            detection = detector.observe(alert)
                            if detection is not None:
                                hits.append((position, detection))
                    kernel = getattr(detector, "kernel_seconds", 0.0) - kernel_before
                    connection.send(
                        ("ok", (hits, time.process_time() - started, kernel))
                    )
                elif command == "reset_entity":
                    detector.reset_entity(payload)
                    connection.send(("ok", None))
                elif command == "reset":
                    detector.reset()
                    connection.send(("ok", None))
                elif command == "snapshot":
                    connection.send(("ok", pickle.dumps(detector)))
                else:  # defensive: unknown verbs must not wedge the parent
                    connection.send(("ok", None))
            except Exception:
                connection.send(("error", traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        if ring is not None:
            ring.close()  # unmap only; the parent owns the unlink


class _ProcessShard:
    """Parent-side handle of one worker process."""

    def __init__(
        self,
        index: int,
        factory: DetectorTemplate,
        ring_name: Optional[str] = None,
    ) -> None:
        self.index = index
        context = multiprocessing.get_context()
        self.connection, child_connection = context.Pipe()
        self.process = context.Process(
            target=_shard_worker_main,
            args=(factory, child_connection, ring_name),
            daemon=True,
        )
        self.process.start()
        child_connection.close()

    def send(self, command: str, payload=None) -> bool:
        """Queue one command; returns whether it was actually delivered.

        If the worker process is gone the pipe write fails -- the
        failure is swallowed (``False`` returned) so the caller's
        send-all loop completes, and the matching :meth:`receive`
        reports the death as an ``("error", ...)`` reply instead.
        """
        try:
            self.connection.send((command, payload))
            return True
        except OSError:
            # Only a *dead* worker may be swallowed -- its recv side
            # reports the death.  A failed send to a live worker would
            # otherwise hang the matching receive forever, so fail
            # fast instead.
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                raise
            return False

    def receive(self, timeout: Optional[float] = None) -> Tuple[str, object]:
        """One status-tagged reply; a dead worker becomes a ``dead`` reply.

        Translating ``EOFError`` (worker process gone without replying,
        e.g. killed or ``os._exit``) into a ``("dead", detail)`` reply
        here means every failure mode surfaces to callers through the
        same status-tagged channel instead of a bare pipe error with
        the root cause lost; callers map it to the typed
        :class:`ShardWorkerError` (or heal the shard, under a
        ``restore`` restart policy).  With ``timeout`` set the wait is
        bounded: a wedged (alive but unresponsive) worker produces a
        ``("timeout", detail)`` reply instead of blocking forever.
        """
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

    def reap(self) -> None:
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
        """
        outcome = "clean"
        try:
            if self.process.is_alive():
                delivered = self.send("close")
                if delivered and self.connection.poll(timeout):
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
        return outcome


class _PendingBatch:
    """Ticket for one submitted batch awaiting :meth:`~ShardedDetectorPool.collect`.

    For the process backend the ticket remembers which shards were sent
    a sub-batch (``active``) and each routed alert's position in the
    original batch; the hits arrive at collect time.  The serial
    backend computes eagerly at submit time, so the ticket already
    holds the hits (or the wrapped error) and collect just finishes the
    merge.
    """

    __slots__ = ("positions", "active", "hits", "error")

    def __init__(
        self,
        positions: List[List[int]],
        active: List[int],
    ) -> None:
        self.positions = positions
        self.active = active
        self.hits: List[Tuple[int, Detection]] = []
        self.error: Optional[ShardWorkerError] = None


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
        (:class:`DetectorTemplate` wraps an existing instance).
    n_shards:
        Number of independent shards (>= 1).
    backend:
        ``"serial"`` or ``"process"`` (see module docstring).
    restart_policy:
        What worker death does to the pool (process backend only).
        ``"raise"`` (default): the death surfaces as a typed
        :class:`ShardWorkerError` at collect time -- the pre-existing
        contract.  ``"restore"``: the pool *supervises* its workers --
        on death it respawns the worker with bounded exponential
        backoff, restores the last per-shard detector snapshot, and
        re-submits the lost in-flight sub-batches in FIFO order, so
        the caller sees the same detections an uninterrupted run
        produces; every restart is recorded in :attr:`recovery_log`.
        Deterministically fatal inputs (a sub-batch that kills the
        worker on every replay) burn through ``max_restarts`` and then
        raise :class:`ShardRecoveryError`.
    max_restarts:
        Per-shard restart budget under ``restart_policy="restore"``.
    backoff_base:
        First restart waits ``backoff_base`` seconds, each further
        attempt doubles it (exponential backoff).
    snapshot_every:
        Refresh a shard's recovery snapshot after this many observed
        sub-batches since the last snapshot (``1`` = after every
        collected batch; larger values trade snapshot cost for a
        longer FIFO replay after a death).
    transport:
        How sub-batches reach the workers (process backend only;
        ignored by ``serial``).  ``"pickle"`` (default): columnar
        tuples pickled onto the pipe.  ``"shm"``: the flat binary
        encoding written into a per-shard shared-memory ring with only
        ``(offset, length, seq)`` descriptors on the pipe; batches the
        codec cannot express, or that do not fit the ring, transparently
        fall back to the pipe (``shm_fallbacks`` counts them).  Rings
        are transient plumbing: excluded from snapshots/checkpoints,
        torn down and rebuilt across :meth:`reshard`/:meth:`reopen`,
        and unlinked by :meth:`close`.
    max_inflight:
        Declared pipelining depth: how many submitted-but-uncollected
        batches the driving layer should keep in flight per shard
        (>= 1).  The pool does not enforce a cap -- callers may submit
        freely -- but overlapped drivers size their submission window
        from it, and ring capacity planning assumes it.
    ring_capacity:
        Per-shard ring size in bytes for ``transport="shm"``.

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
        snapshot_every: int = 1,
        transport: str = "pickle",
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
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")
        self.n_shards = int(n_shards)
        self.backend = backend
        self.restart_policy = restart_policy
        self.max_restarts = int(max_restarts)
        self.backoff_base = float(backoff_base)
        self.snapshot_every = int(snapshot_every)
        self.transport = transport
        self.max_inflight = int(max_inflight)
        self.ring_capacity = int(ring_capacity)
        #: Every supervised worker recovery ever performed (survives
        #: reset/reopen: it is an operations log, not pool state).
        self.recovery_log = RecoveryLog()
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
        #: Cumulative seconds each shard spent observing (serial: wall
        #: time in the caller; process: worker CPU time).
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
        self.shards: List[Detector] = []
        self._workers: List[_ProcessShard] = []
        self._pending: Deque[_PendingBatch] = collections.deque()
        #: Most batches ever simultaneously in flight (submitted,
        #: uncollected) -- checkpointed as service telemetry.
        self.inflight_high_water = 0
        #: Sub-batches shipped zero-copy through the shared-memory
        #: rings / via the pipe fallback (codec miss or ring full).
        #: Runtime telemetry, not checkpointed (rings are transient).
        self.shm_batches = 0
        self.shm_fallbacks = 0
        #: Per-shard rings (shm transport), parent-owned; ``_transit``
        #: mirrors every outstanding observe message per shard in FIFO
        #: order -- the ring region it occupies, or ``None`` for a
        #: pipe-sent payload -- and ``_ring_seq`` stamps descriptors.
        self._rings: List[ShardRing] = []
        self._transit: List[Deque[Optional[Tuple[int, int]]]] = []
        self._ring_seq = 0
        self._closed = False
        self._reset_supervision()
        if backend == "serial":
            self.shards = [detector_factory() for _ in range(self.n_shards)]
        else:
            try:
                self._build_rings()
                self._workers = [
                    self._spawn_worker(shard) for shard in range(self.n_shards)
                ]
            except Exception:
                for worker in self._workers:
                    worker.close()
                self._workers = []
                self._teardown_rings()
                raise

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
    def from_template(
        cls,
        detector: Detector,
        *,
        n_shards: int = 1,
        backend: str = "serial",
        restart_policy: str = "raise",
        max_restarts: int = 3,
        backoff_base: float = 0.05,
        snapshot_every: int = 1,
        transport: str = "pickle",
        max_inflight: int = 1,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ) -> "ShardedDetectorPool":
        """Pool whose shards are clones of a pristine template detector."""
        return cls(
            DetectorTemplate(detector),
            n_shards=n_shards,
            backend=backend,
            restart_policy=restart_policy,
            max_restarts=max_restarts,
            backoff_base=backoff_base,
            snapshot_every=snapshot_every,
            transport=transport,
            max_inflight=max_inflight,
            ring_capacity=ring_capacity,
        )

    @property
    def _supervised(self) -> bool:
        """Whether worker deaths are healed instead of raised."""
        return self.backend == "process" and self.restart_policy == "restore"

    def _reset_supervision(self) -> None:
        """Pristine supervision bookkeeping (fresh pool / reset / reopen).

        ``_shard_snapshots[s]`` is the pickled detector state to
        restore a respawned worker from (``None`` = pristine factory
        state); ``_replay_log[s]`` holds the packed sub-batch payloads
        observed since that snapshot (acked and unacked), in FIFO
        order; ``_unacked[s]`` counts replies the worker still owes.
        """
        self._shard_snapshots: List[Optional[bytes]] = [None] * self.n_shards
        self._replay_log: List[Deque] = [
            collections.deque() for _ in range(self.n_shards)
        ]
        self._unacked: List[int] = [0] * self.n_shards
        self._restarts_used: List[int] = [0] * self.n_shards

    # -- shared-memory transport plumbing ----------------------------------
    @property
    def _shm(self) -> bool:
        """Whether sub-batches travel through shared-memory rings."""
        return self.backend == "process" and self.transport == "shm"

    def _build_rings(self, n_shards: Optional[int] = None) -> None:
        """Create one parent-owned ring per shard (shm transport only).

        ``n_shards`` overrides the pool's current width during a live
        reshard, where the rings for the *new* layout are built before
        ``self.n_shards`` is updated.
        """
        if not self._shm:
            return
        count = self.n_shards if n_shards is None else n_shards
        try:
            self._rings = [
                ShardRing.create(self.ring_capacity) for _ in range(count)
            ]
        except Exception:
            self._teardown_rings()
            raise
        self._transit = [collections.deque() for _ in range(count)]

    def _teardown_rings(self) -> None:
        """Unmap and unlink every ring segment (idempotent)."""
        rings, self._rings = self._rings, []
        for ring in rings:
            ring.close()
        self._transit = []

    def _spawn_worker(self, shard: int) -> _ProcessShard:
        """One worker process, attached to its shard's ring if any."""
        if self._rings:
            return _ProcessShard(
                shard, self.detector_factory, ring_name=self._rings[shard].name
            )
        return _ProcessShard(shard, self.detector_factory)

    def _finish_transit(self, shard: int, status: str) -> None:
        """Retire the oldest in-transit observe payload after its reply.

        Consuming a reply with status ``ok``/``error``/``dead`` means
        the worker has read (or will never read) the oldest outstanding
        message, so its ring region -- if it used one -- is released
        for reuse.  A ``timeout`` reply releases nothing: the worker is
        alive and may still read the region later.
        """
        if not self._transit or status == "timeout":
            return
        queue = self._transit[shard]
        if not queue:
            return
        region = queue.popleft()
        if region is not None:
            self._rings[shard].release(*region)

    def _send_observe(self, shard: int, sub_batch: List[Alert]):
        """Ship one sub-batch to a worker; returns ``(payload, delivered)``.

        ``payload`` is what a supervised heal must re-drive (the flat
        binary encoding when the codec succeeded, else the packed
        columns) and ``delivered`` whether the message reached a live
        worker.  With ``transport="shm"`` the encoded bytes are written
        into the shard's ring and only an ``(offset, length, seq)``
        descriptor crosses the pipe; a batch outside the codec's type
        set falls back to the legacy pickled-columns path and a full
        (or too-small) ring falls back to sending the already-encoded
        bytes over the pipe -- both transparent to the caller and
        counted in ``shm_fallbacks``.
        """
        packed = pack_alert_columns(sub_batch)
        if not self._shm:
            return packed, self._workers[shard].send("observe", packed)
        try:
            encoded = encode_alert_columns(packed)
        except AlertColumnsCodecError:
            self.shm_fallbacks += 1
            delivered = self._workers[shard].send("observe", packed)
            self._transit[shard].append(None)
            return packed, delivered
        offset = self._rings[shard].write(encoded)
        if offset is None:
            self.shm_fallbacks += 1
            delivered = self._workers[shard].send("observe", encoded)
            self._transit[shard].append(None)
            return encoded, delivered
        self._ring_seq += 1
        delivered = self._workers[shard].send(
            "observe_shm", (offset, len(encoded), self._ring_seq)
        )
        self._transit[shard].append((offset, len(encoded)))
        self.shm_batches += 1
        return encoded, delivered

    #: Entity->shard memo entries kept (LRU): bounds parent-process
    #: memory on the unbounded-cardinality entity streams a long-lived
    #: service sees.  Routing stays correct either way -- an evicted
    #: entity just pays one crc32 again.  Per-instance override:
    #: assign ``pool.shard_cache_limit``.
    _SHARD_CACHE_LIMIT = 1 << 17

    # -- routing -----------------------------------------------------------
    @property
    def shard_cache_limit(self) -> int:
        """Max entity->shard memo entries before LRU eviction."""
        return getattr(self, "_shard_cache_limit", self._SHARD_CACHE_LIMIT)

    @shard_cache_limit.setter
    def shard_cache_limit(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("shard_cache_limit must be >= 1")
        self._shard_cache_limit = int(limit)
        while len(self._shard_cache) > self._shard_cache_limit:
            self._shard_cache.pop(next(iter(self._shard_cache)))

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
            if len(cache) >= self.shard_cache_limit:
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

        Returns a ticket for :meth:`collect`.  With the process backend
        the sub-batches are shipped to the workers (see ``transport``)
        and the call returns immediately, so the caller can overlap
        other work with the workers' compute.  The serial backend has
        nobody to overlap with and computes eagerly here; a detector
        exception is captured in the ticket and raised at collect time,
        mirroring the process backend's semantics.  Tickets must be
        collected in submission order.

        .. note:: With the ``pickle`` transport, "non-blocking" is
           bounded by OS pipe capacity (typically ~64 KiB): a send
           larger than the worker can buffer blocks until the worker
           drains it, so keeping *many* large batches in flight can
           stall the submit.  The ``shm`` transport puts the payload in
           a shared-memory ring and only a tiny descriptor on the pipe,
           so pipelining ``max_inflight`` batches deep is always safe
           (a full ring degrades to the pipe path, it never blocks on
           worker progress).
        """
        if self._closed:
            raise RuntimeError("ShardedDetectorPool is closed")
        batch = list(alerts)
        sub_batches, positions = self._partition(batch)
        active = [shard for shard, sub_batch in enumerate(sub_batches) if sub_batch]
        ticket = _PendingBatch(positions, active)
        if self.backend == "process":
            # Send everything first so all workers compute concurrently.
            # `alerts_routed` counts a shard only once its sub-batch is
            # actually on the pipe, so the telemetry stays truthful if
            # the send loop fails part-way.
            sent: List[int] = []
            try:
                for shard in active:
                    payload, delivered = self._send_observe(
                        shard, sub_batches[shard]
                    )
                    sent.append(shard)
                    if self._supervised:
                        # Remember the payload whether or not the send
                        # reached a live worker: a swallowed send to a
                        # dead worker is exactly what the heal replays.
                        self._replay_log[shard].append(payload)
                        self._unacked[shard] += 1
                    if delivered:
                        self.alerts_routed[shard] += len(sub_batches[shard])
            except Exception:
                # A failure part-way through the send loop (e.g. an
                # unpicklable alert attribute) must not leave the
                # already-sent shards with unread replies for the next
                # collect() to mistake for its own batch: drain them
                # here (keeping the busy telemetry the workers report),
                # then surface the original error.
                for shard in sent:
                    status, reply = self._workers[shard].receive()
                    self._finish_transit(shard, status)
                    if self._supervised and self._unacked[shard] > 0:
                        self._unacked[shard] -= 1
                    if status == "ok":
                        self.busy_seconds[shard] += reply[1]
                        self.kernel_seconds[shard] += reply[2]
                raise
        else:
            for shard in active:
                self.alerts_routed[shard] += len(sub_batches[shard])
                started = time.perf_counter()
                detector = self.shards[shard]
                kernel_before = getattr(detector, "kernel_seconds", 0.0)
                try:
                    indexed = getattr(detector, "observe_batch_indexed", None)
                    if indexed is not None:
                        shard_positions = positions[shard]
                        ticket.hits.extend(
                            (shard_positions[local], detection)
                            for local, detection in indexed(sub_batches[shard])
                        )
                    else:
                        for local, alert in enumerate(sub_batches[shard]):
                            detection = detector.observe(alert)
                            if detection is not None:
                                ticket.hits.append(
                                    (positions[shard][local], detection)
                                )
                except Exception as exc:
                    if ticket.error is None:
                        ticket.error = ShardWorkerError(
                            shard, traceback.format_exc()
                        )
                        ticket.error.__cause__ = exc
                finally:
                    self.busy_seconds[shard] += time.perf_counter() - started
                    self.kernel_seconds[shard] += (
                        getattr(detector, "kernel_seconds", 0.0) - kernel_before
                    )
        self._pending.append(ticket)
        if len(self._pending) > self.inflight_high_water:
            self.inflight_high_water = len(self._pending)
        return ticket

    def collect(self, ticket: Optional[_PendingBatch] = None) -> list[Detection]:
        """Wait for one submitted batch and merge its detections.

        Collects the oldest uncollected ticket (replies come back in
        FIFO order per worker pipe, so collection must follow
        submission order; passing a newer ticket raises
        ``ValueError``).  If any shard reports an error, the remaining
        shards' replies for this batch are still drained -- the pool is
        never left with unread replies -- and a
        :class:`ShardWorkerError` for the first failing shard is
        raised; the batch's partial detections are discarded.
        """
        if self._closed:
            raise RuntimeError("ShardedDetectorPool is closed")
        if not self._pending:
            raise RuntimeError("no submitted batch to collect")
        if ticket is not None and ticket is not self._pending[0]:
            raise ValueError("batches must be collected in submission order")
        ticket = self._pending.popleft()
        if self.backend == "process":
            for shard in ticket.active:
                status, payload = self._receive_reply(shard)
                if status != "ok":
                    if ticket.error is None:
                        if status == "unrecovered":
                            ticket.error = ShardRecoveryError(
                                shard, str(payload), self._restarts_used[shard]
                            )
                        else:
                            ticket.error = ShardWorkerError(shard, str(payload))
                    continue
                shard_hits, busy, kernel = payload
                self.busy_seconds[shard] += busy
                self.kernel_seconds[shard] += kernel
                ticket.hits.extend(
                    (ticket.positions[shard][local], detection)
                    for local, detection in shard_hits
                )
            if self._supervised and ticket.error is None:
                for shard in ticket.active:
                    self._maybe_refresh_snapshot(shard)
        if ticket.error is not None:
            raise ticket.error
        ticket.hits.sort(key=lambda item: item[0])
        merged = [detection for _, detection in ticket.hits]
        self._detections.extend(merged)
        return merged

    # -- supervised recovery ----------------------------------------------
    def _receive_reply(self, shard: int) -> Tuple[str, object]:
        """One observe reply for a shard, healing dead workers if supervised.

        Returns the worker's status-tagged reply; under
        ``restart_policy="restore"`` a ``dead`` reply triggers the
        respawn/restore/replay loop and the returned reply is the
        healed worker's answer for the same sub-batch.  ``unrecovered``
        means the restart budget is exhausted.  Acknowledgement
        bookkeeping for the supervision replay log happens here, so
        every exit path stays consistent.
        """
        status, payload = self._workers[shard].receive()
        self._finish_transit(shard, status)
        if status == "dead" and self._supervised:
            status, payload = self._heal_shard(shard, str(payload))
        if self._supervised:
            if status in ("ok", "error"):
                # The worker replied: the oldest in-flight payload is
                # acknowledged (it stays in the replay log until the
                # next snapshot refresh).
                if self._unacked[shard] > 0:
                    self._unacked[shard] -= 1
            else:
                # Unrecovered death: nobody owes replies any more, and
                # replaying this log can never succeed -- drop it so a
                # caller that keeps driving the pool is not charged
                # for it again.
                self._replay_log[shard].clear()
                self._unacked[shard] = 0
        return status, payload

    def _heal_shard(self, shard: int, death_detail: str) -> Tuple[str, object]:
        """Respawn a dead worker and replay its lost in-flight sub-batches.

        Bounded by ``max_restarts`` with exponential backoff.  On
        success returns the healed worker's reply for the oldest
        *unacknowledged* sub-batch (the one the caller is collecting);
        already-acknowledged replayed batches only contribute busy
        telemetry (their detections were merged before the death --
        the worker genuinely redoes the work, so the busy seconds are
        truthfully accumulated twice).  Returns ``("unrecovered",
        detail)`` once the budget is exhausted.
        """
        while self._restarts_used[shard] < self.max_restarts:
            attempt = self._restarts_used[shard] + 1
            self._restarts_used[shard] = attempt
            backoff = self.backoff_base * (2.0 ** (attempt - 1))
            if backoff > 0:
                time.sleep(backoff)
            started = time.perf_counter()
            self._workers[shard].reap()
            healed = False
            reply: Optional[Tuple[str, object]] = None
            try:
                worker: Optional[_ProcessShard] = self._spawn_worker(shard)
            except Exception:  # pragma: no cover - spawn failure
                worker = None
            if worker is not None:
                self._workers[shard] = worker
                reply, healed = self._replay_into(worker, shard)
            self.recovery_log.record(
                RecoveryEvent(
                    shard=shard,
                    attempt=attempt,
                    backoff_seconds=backoff,
                    resubmitted_batches=len(self._replay_log[shard]),
                    death_detail=death_detail,
                    healed=healed,
                    recovery_seconds=time.perf_counter() - started,
                )
            )
            if healed:
                assert reply is not None
                return reply
        return ("unrecovered", death_detail)

    def _replay_into(
        self, worker: _ProcessShard, shard: int
    ) -> Tuple[Optional[Tuple[str, object]], bool]:
        """Restore a respawned worker and re-drive the shard's replay log.

        Restores the last snapshot (pristine factory state if none was
        taken yet), re-submits every logged payload in FIFO order, and
        consumes replies up to and including the oldest unacknowledged
        one -- replies for *newer* unacknowledged payloads are left on
        the pipe for the collects that own them.  With the shm
        transport the shard's ring is reset wholesale first (the dead
        worker consumed nothing that matters any more) and the logged
        encodings are re-written into it FIFO with fresh descriptor
        sequence numbers, so the healed worker replays the exact bytes
        the dead one was sent.  Returns ``(reply, True)`` on success,
        ``(None, False)`` if the fresh worker died too (the caller
        retries within the restart budget).
        """
        if self._rings:
            self._rings[shard].reset()
            self._transit[shard].clear()
        if self._shard_snapshots[shard] is not None:
            if not worker.send("restore", self._shard_snapshots[shard]):
                return None, False
            status, _ = worker.receive()
            if status != "ok":
                return None, False
        log = self._replay_log[shard]
        for payload in log:
            if not self._resend_payload(worker, shard, payload):
                return None, False
        acked_replays = len(log) - self._unacked[shard]
        reply: Optional[Tuple[str, object]] = None
        for position in range(acked_replays + 1):
            status, payload = worker.receive()
            if status in ("dead", "timeout"):
                return None, False
            self._finish_transit(shard, status)
            if position < acked_replays:
                if status == "ok":
                    self.busy_seconds[shard] += payload[1]
                    self.kernel_seconds[shard] += payload[2]
            else:
                reply = (status, payload)
        return reply, True

    def _resend_payload(self, worker: _ProcessShard, shard: int, payload) -> bool:
        """Re-drive one replay-log payload into a healed worker.

        Encoded-bytes payloads go back through the ring when they fit
        (fresh seq, same FIFO order) and over the pipe otherwise;
        packed-columns payloads (codec fallbacks) always take the pipe,
        exactly as the original submission did.
        """
        if isinstance(payload, (bytes, bytearray)) and self._rings:
            offset = self._rings[shard].write(payload)
            if offset is not None:
                self._ring_seq += 1
                delivered = worker.send(
                    "observe_shm", (offset, len(payload), self._ring_seq)
                )
                self._transit[shard].append((offset, len(payload)))
                return delivered
        delivered = worker.send("observe", payload)
        if self._transit:
            self._transit[shard].append(None)
        return delivered

    def _maybe_refresh_snapshot(self, shard: int) -> None:
        """Refresh a shard's recovery snapshot once it is safe and due.

        Safe: the worker owes no replies (a snapshot taken with
        observes still queued would not include them, yet the replay
        log holding them would be cleared).  Due: ``snapshot_every``
        sub-batches accumulated since the last snapshot.
        """
        if self._unacked[shard] != 0:
            return
        if len(self._replay_log[shard]) < self.snapshot_every:
            return
        self._refresh_snapshot_now(shard)

    def _refresh_snapshot_now(self, shard: int) -> None:
        """Snapshot one shard's detector and clear its replay log.

        Best-effort: on any failure (worker just died, snapshot
        unpicklable) the previous snapshot and replay log are kept --
        they still reconstruct the same state, just more slowly.
        """
        worker = self._workers[shard]
        if not worker.send("snapshot"):
            return
        status, payload = worker.receive()
        if status == "ok":
            self._shard_snapshots[shard] = payload
            self._replay_log[shard].clear()

    def _drain_pending(self, timeout: Optional[float] = None) -> int:
        """Read every outstanding reply, discarding results and errors.

        Returns the number of batches drained.  With ``timeout`` set,
        each reply wait is bounded -- a wedged worker costs at most
        ``timeout`` seconds per expected reply instead of hanging the
        shutdown forever (the caller escalates to terminate/kill right
        after).
        """
        drained = len(self._pending)
        while self._pending:
            ticket = self._pending.popleft()
            if self.backend == "process":
                for shard in ticket.active:
                    status, _ = self._workers[shard].receive(timeout=timeout)
                    self._finish_transit(shard, status)
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
        error: Optional[ShardWorkerError] = None
        if self.backend == "serial":
            # Drive every shard even if one fails, mirroring the
            # process backend (which always receives all replies), and
            # wrap the first failure in the same typed error.
            for shard, detector in enumerate(self.shards):
                try:
                    detector.reset()
                except Exception as exc:
                    if error is None:
                        error = ShardWorkerError(shard, traceback.format_exc())
                        error.__cause__ = exc
        else:
            for worker in self._workers:
                worker.send("reset")
            for worker in self._workers:
                status, payload = worker.receive()
                if status != "ok" and error is None:
                    error = ShardWorkerError(worker.index, str(payload))
        if error is not None:
            raise error
        if self._supervised:
            # Every shard is back to factory-pristine state: discard the
            # snapshots (None means "pristine factory" to the healer) so
            # a later heal cannot resurrect pre-reset entity state.
            self._reset_supervision()

    def reset_entity(self, entity: str) -> None:
        """Forget one entity on the shard that owns it."""
        self._require_idle("reset_entity")
        shard = self.shard_of(entity)
        if self.backend == "serial":
            try:
                self.shards[shard].reset_entity(entity)
            except Exception as exc:
                error = ShardWorkerError(shard, traceback.format_exc())
                error.__cause__ = exc
                raise error
        else:
            self._workers[shard].send("reset_entity", entity)
            status, payload = self._workers[shard].receive()
            if status != "ok":
                raise ShardWorkerError(shard, str(payload))
            if self._supervised:
                # The old snapshot still contains the entity; refresh it
                # so a later heal cannot resurrect the forgotten state.
                self._refresh_snapshot_now(shard)

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

    def _rebuild_replica(self, shard: int) -> Detector:
        """Reconstruct a dead shard's replica parent-side.

        The supervised bookkeeping already holds everything needed:
        the last recovery snapshot (pristine factory state if none was
        taken yet) plus the FIFO replay log of packed sub-batches
        observed since it.  Unlike :meth:`_heal_shard` no worker is
        respawned -- the caller (reshard) is about to tear the worker
        layout down anyway, so the replica is rebuilt in the parent.
        """
        snapshot = self._shard_snapshots[shard]
        if snapshot is not None:
            detector = pickle.loads(snapshot)
        else:
            detector = self.detector_factory()
        for payload in self._replay_log[shard]:
            if isinstance(payload, (bytes, bytearray)):
                payload = decode_alert_columns(payload)
            batch = unpack_alert_columns(payload)
            observe_batch = getattr(detector, "observe_batch", None)
            if observe_batch is not None:
                observe_batch(batch)
            else:
                for alert in batch:
                    detector.observe(alert)
        return detector

    def _harvest_replicas(self) -> Tuple[List[Detector], List[int]]:
        """Current per-shard replicas as parent-side detector objects.

        Serial shards are already in the parent.  Process shards answer
        the ``snapshot`` verb; a shard whose worker died (e.g.
        SIGKILLed mid-stream) is -- under ``restart_policy="restore"``
        and within the restart budget -- rebuilt parent-side from its
        recovery snapshot + replay log instead of failing the whole
        reshard.  Returns ``(replicas, rebuilt_shard_indices)``.
        """
        if self.backend == "serial":
            return list(self.shards), []
        replicas: List[Detector] = []
        rebuilt: List[int] = []
        for shard, worker in enumerate(self._workers):
            blob: Optional[bytes] = None
            detail = "shard worker pipe closed before reshard snapshot"
            if worker.send("snapshot"):
                status, payload = worker.receive()
                if status == "ok":
                    blob = payload
                elif status == "error":
                    # The worker is alive but its replica would not
                    # pickle -- rebuilding from the supervision log
                    # cannot help, surface it.
                    raise ShardWorkerError(shard, str(payload))
                else:  # dead / timeout
                    detail = str(payload)
            if blob is not None:
                replicas.append(pickle.loads(blob))
                continue
            if not self._supervised:
                raise ShardWorkerError(shard, detail)
            if self._restarts_used[shard] >= self.max_restarts:
                raise ShardRecoveryError(
                    shard, detail, self._restarts_used[shard]
                )
            started = time.perf_counter()
            self._restarts_used[shard] += 1
            replicas.append(self._rebuild_replica(shard))
            rebuilt.append(shard)
            self.recovery_log.record(
                RecoveryEvent(
                    shard=shard,
                    attempt=self._restarts_used[shard],
                    backoff_seconds=0.0,
                    resubmitted_batches=len(self._replay_log[shard]),
                    death_detail=detail,
                    healed=True,
                    recovery_seconds=time.perf_counter() - started,
                )
            )
        return replicas, rebuilt

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
        (serial: the live objects; process: the ``snapshot`` verb, with
        a supervised parent-side rebuild for SIGKILLed workers), the
        per-entity tracks are exported via the detectors' optional
        migration extension (``export_entity_tracks`` /
        ``adopt_entity_track`` / ``replace_detections`` -- see
        :class:`repro.core.detector.Detector`) and re-routed into M
        fresh replicas, and -- for the process backend -- the old
        workers are shut down and M new ones spawned and restored from
        the migrated replicas.  Requires an idle pool: callers must
        collect in-flight tickets first (the pipeline's ``reshard``
        control defers to a submission boundary for exactly this
        reason).

        Telemetry arrays (``alerts_routed``/``busy_seconds``/
        ``kernel_seconds``) are re-zeroed at the new width; their
        totals accumulate on the ``*_retired`` counters and in the
        returned :class:`ReshardEvent` (also appended to
        :attr:`reshard_log`).

        Supervision bookkeeping is rebuilt for the new width, but the
        per-shard restart budget is **not** refreshed: shards that
        keep their index carry their consumed ``max_restarts``
        attempts across the transition (only shards new at a wider
        count start from zero), so periodic resharding cannot mask a
        crash-looping worker from the recovery-budget contract.
        """
        self._require_idle("reshard")
        new_n = int(n_shards)
        if new_n < 1:
            raise ValueError("n_shards must be >= 1")
        started = time.perf_counter()
        old_n = self.n_shards
        factory = self._migration_factory()
        replicas, rebuilt = self._harvest_replicas()
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
        blobs: List[bytes] = []
        if self.backend == "process":
            blobs = [
                pickle.dumps(replica, pickle.HIGHEST_PROTOCOL)
                for replica in fresh
            ]
            # Mark closed before touching workers (mirrors reopen()):
            # if a respawn below fails the pool must reject batches as
            # closed, not pose as open with a half-built worker set.
            self._closed = True
            for worker in self._workers:
                worker.close()
            self._workers = []
            # Rings are per-shard-slot plumbing: tear the old layout's
            # segments down (unlink) and build fresh ones at the new
            # width before the workers that attach to them spawn.
            self._teardown_rings()
            spawned: List[_ProcessShard] = []
            try:
                self._build_rings(new_n)
                for shard in range(new_n):
                    spawned.append(self._spawn_worker(shard))
                delivered = [
                    worker.send("restore", blob)
                    for worker, blob in zip(spawned, blobs)
                ]
                error: Optional[ShardWorkerError] = None
                for worker, sent in zip(spawned, delivered):
                    if not sent:
                        if error is None:
                            error = ShardWorkerError(
                                worker.index,
                                "shard worker pipe closed before reshard restore",
                            )
                        continue
                    status, payload = worker.receive()
                    if status != "ok" and error is None:
                        error = ShardWorkerError(worker.index, str(payload))
                if error is not None:
                    raise error
            except Exception:
                for worker in spawned:
                    worker.close()
                self._teardown_rings()
                raise
            self._workers = spawned
            self._closed = False
        else:
            self.shards = fresh
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
        restarts_used = self._restarts_used
        self._reset_supervision()
        # Fresh workers, but not a fresh fault history: shards that
        # keep their index carry their consumed restart budget across
        # the transition (shards new at a wider count start at zero).
        # Otherwise a periodic reshard would refresh a crash-looping
        # worker's budget forever and ShardRecoveryError -- the budget
        # contract -- could never surface on a long-lived service.
        self._restarts_used = [
            restarts_used[shard] if shard < old_n else 0
            for shard in range(new_n)
        ]
        if self._supervised:
            # The migrated replicas are exact recovery snapshots.
            self._shard_snapshots = list(blobs)
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
        shard (serial shards are pickled in place; process shards
        answer the ``snapshot`` verb) plus the pool-level records
        (recorded detections, routing memo, busy telemetry).  Requires
        an idle pool -- a snapshot with submitted batches in flight
        would be neither before nor after them.
        """
        self._require_idle("snapshot_state")
        blobs: List[bytes] = []
        if self.backend == "serial":
            for shard, detector in enumerate(self.shards):
                try:
                    blobs.append(pickle.dumps(detector, pickle.HIGHEST_PROTOCOL))
                except Exception as exc:
                    error = ShardWorkerError(shard, traceback.format_exc())
                    error.__cause__ = exc
                    raise error
        else:
            delivered = [worker.send("snapshot") for worker in self._workers]
            error = None
            for worker, sent in zip(self._workers, delivered):
                if not sent:
                    if error is None:
                        error = ShardWorkerError(
                            worker.index, "shard worker pipe closed before snapshot"
                        )
                    continue
                status, payload = worker.receive()
                if status != "ok":
                    if error is None:
                        error = ShardWorkerError(worker.index, str(payload))
                    continue
                blobs.append(payload)
            if error is not None:
                raise error
        return {
            "n_shards": self.n_shards,
            "backend": self.backend,
            "shards": blobs,
            "detections": list(self._detections),
            "alerts_routed": list(self.alerts_routed),
            "busy_seconds": list(self.busy_seconds),
            "kernel_seconds": list(self.kernel_seconds),
            "busy_seconds_retired": self.busy_seconds_retired,
            "kernel_seconds_retired": self.kernel_seconds_retired,
            "alerts_routed_retired": self.alerts_routed_retired,
            "inflight_high_water": self.inflight_high_water,
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Load a :meth:`snapshot_state` mapping back into this pool.

        The pool must be idle and configured identically (same shard
        count and backend) to the snapshotted one.  Serial shards are
        restored *in place* (``__dict__`` swap) so facade pools built
        with :meth:`wrap` keep handing out the caller's original
        detector object; process shards receive the ``restore`` verb.
        Under supervision the restored blobs become the recovery
        snapshots.
        """
        self._require_idle("restore_state")
        if state["n_shards"] != self.n_shards or state["backend"] != self.backend:
            raise ValueError(
                "checkpoint was taken with n_shards="
                f"{state['n_shards']} backend={state['backend']!r}; this pool "
                f"has n_shards={self.n_shards} backend={self.backend!r}"
            )
        blobs = list(state["shards"])
        if self.backend == "serial":
            for shard, blob in enumerate(blobs):
                restored = pickle.loads(blob)
                current = self.shards[shard]
                if type(restored) is type(current):
                    current.__dict__.clear()
                    current.__dict__.update(restored.__dict__)
                else:  # pragma: no cover - heterogeneous replica swap
                    self.shards[shard] = restored
        else:
            delivered = [
                worker.send("restore", blob)
                for worker, blob in zip(self._workers, blobs)
            ]
            error = None
            for worker, sent in zip(self._workers, delivered):
                if not sent:
                    if error is None:
                        error = ShardWorkerError(
                            worker.index, "shard worker pipe closed before restore"
                        )
                    continue
                status, payload = worker.receive()
                if status != "ok" and error is None:
                    error = ShardWorkerError(worker.index, str(payload))
            if error is not None:
                raise error
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
        self.inflight_high_water = int(state["inflight_high_water"])
        if self._supervised:
            self._reset_supervision()
            self._shard_snapshots = [bytes(blob) for blob in blobs]

    # -- lifecycle ---------------------------------------------------------
    def reopen(self) -> None:
        """Restart the detection tier: pristine state, fresh workers.

        Backend-uniform semantics: after ``reopen()`` the pool behaves
        like a freshly constructed one -- no per-entity detector state,
        no recorded detections, zeroed routing/busy telemetry, and (for
        the process backend) brand-new worker processes spawned from
        the factory.  Uncollected submitted batches are drained first
        (their results discarded), mirroring :meth:`close`.

        Reopening a *closed* process pool is allowed -- this is the
        ``close()``/reopen lifecycle the campaign fuzzer exercises --
        and reopening an open pool recycles its workers.  The serial
        backend resets its replicas in place (for a :meth:`wrap` facade
        pool that resets the caller's own detector instance, which is
        exactly what "the detection tier restarted" means there).
        """
        self._drain_pending(timeout=5.0)
        if self.backend == "process":
            # Mark closed before touching the workers: if a respawn
            # below fails, the pool must reject batches as closed, not
            # pose as open with dead worker handles.
            if not self._closed:
                self._closed = True
                for worker in self._workers:
                    worker.close()
            self._workers = []
            self._teardown_rings()
            fresh: List[_ProcessShard] = []
            try:
                self._build_rings()
                for shard in range(self.n_shards):
                    fresh.append(self._spawn_worker(shard))
            except Exception:
                for worker in fresh:
                    worker.close()
                self._teardown_rings()
                raise
            self._workers = fresh
            self._closed = False
            self._clear_pool_state()
            self._reset_supervision()
        else:
            self.reset()

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
        shutdown.  The returned :class:`PoolCloseResult` records the
        per-shard escalation outcomes.
        """
        if self.backend != "process":
            return PoolCloseResult(backend=self.backend, escalations=())
        if self._closed:
            return PoolCloseResult(
                backend=self.backend, escalations=(), already_closed=True
            )
        drained = self._drain_pending(timeout=timeout)
        self._closed = True
        escalations = tuple(worker.close(timeout=timeout) for worker in self._workers)
        self._workers = []
        # Workers are gone (clean, terminated, or killed): the owner
        # unlinks every ring segment so nothing survives in /dev/shm.
        self._teardown_rings()
        return PoolCloseResult(
            backend=self.backend,
            escalations=escalations,
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
    "TRANSPORTS",
]
