"""The always-on asyncio detection service.

:class:`DetectionService` turns a :class:`~repro.testbed.pipeline
.TestbedPipeline` into a long-running network service: JSONL requests
over TCP (see :mod:`repro.service.protocol`), admission control and
tiered load shedding at the socket edge (:mod:`repro.service
.admission`), live N->M resharding (:mod:`repro.service.resharding`),
and a drain-then-checkpoint shutdown on SIGTERM/SIGINT.

Architecture -- one event loop, one consumer::

    conn 1 --\\
    conn 2 ---+--> admission --> bounded FIFO --> consumer --> pipeline
    conn N --/       (ack at enqueue)             (single)

* Every connection gets a reader coroutine that parses requests,
  asks the admission controller for a decision, and **acks at
  enqueue**: a success reply to ``batch``/``raw``/``control`` means
  "this work is in the global FIFO and will be applied in this
  order", not "it has been processed".  Barrier ops (``drain``,
  ``checkpoint``, ``reshard``) ride the same FIFO as markers and
  reply only once the consumer reaches them.
* A single consumer coroutine drains the FIFO and drives the
  pipeline through its two-phase API (``submit_alerts`` /
  ``submit_raw`` / ``collect_detections``), keeping at most one
  detection batch in flight: when more work is queued the next
  batch's normalise/filter prep overlaps the shard workers chewing
  the previous one (the overlapped drivers' schedule, so outputs are
  bit-identical to the batch-synchronous reference); when the queue
  is empty the batch is collected immediately, so a lockstep client
  observes true end-to-end latency.
* Because one consumer owns the pipeline, global FIFO order **is**
  stream order regardless of how many connections interleave -- the
  determinism of the offline drivers carries over to the socket.

Fault domains: a shard-worker failure surfacing at collect time
(``ShardWorkerError`` under ``restart_policy="raise"``; exhausted
budget ``ShardRecoveryError`` under ``"restore"``) is contained to the
batch that hit it -- the batch is dead-lettered with the error detail
and the service keeps serving.  With ``restart_policy="restore"`` the
pool heals worker deaths underneath the service and no batch is lost.

SIGTERM/SIGINT trigger graceful shutdown: stop accepting connections,
process everything already admitted (drain), take a final checkpoint
(when a store is configured), then exit -- so an orderly terminate
never loses acknowledged work.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import signal
import threading
import time
import traceback
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..fuzz.oracle import COMPARED_COUNTERS
from ..testbed.checkpoint import CheckpointStore
from ..testbed.pipeline import TestbedPipeline
from ..testbed.sharding import ShardRecoveryError, ShardWorkerError
from .admission import (
    AdmissionController,
    AdmissionLimits,
    DeadLetterJournal,
    ServiceClient,
)
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_line,
    detection_to_dict,
    encode_message,
    error_response,
    ok_response,
    parse_request,
    raw_record_to_dict,
    serialize_results,
)
from .resharding import ReshardCoordinator


@dataclasses.dataclass
class ServiceConfig:
    """Tunables for one :class:`DetectionService`."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (reported by :attr:`DetectionService.port`).
    port: int = 0
    limits: AdmissionLimits = dataclasses.field(default_factory=AdmissionLimits)
    #: Directory for the numbered checkpoint store; ``None`` disables
    #: both the periodic ticks and the final shutdown checkpoint.
    checkpoint_dir: Optional[Path] = None
    #: Seconds between periodic checkpoint ticks; ``0`` disables them.
    checkpoint_interval: float = 0.0
    keep_last: int = 3
    #: Dead-letter journal file; ``None`` keeps the journal in memory.
    dead_letter_path: Optional[Path] = None
    #: Ring-buffer size for the latency percentile windows.
    latency_window: int = 2048


@dataclasses.dataclass
class _WorkItem:
    """One FIFO entry: an ingest batch, a control, or a barrier marker."""

    kind: str  # alerts | raw | control | reshard | checkpoint | drain | detections | stop
    alerts: tuple = ()
    records: tuple = ()
    verb: str = ""
    entity: str = ""
    n_shards: int = 0
    since: int = 0
    conn_id: int = -1
    enqueued: float = 0.0
    stage_before: dict = dataclasses.field(default_factory=dict)
    future: Optional[asyncio.Future] = None


def percentile_summary(samples: Deque[float]) -> dict:
    """Nearest-rank percentiles over a latency window (seconds)."""
    if not samples:
        return {"count": 0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0, "mean": 0.0}
    ordered = sorted(samples)
    count = len(ordered)

    def rank(percent: int) -> float:
        # The ceil(percent * count / 100)-th smallest, in integers.
        return ordered[-(-percent * count // 100) - 1]

    return {
        "count": count,
        "p50": rank(50),
        "p90": rank(90),
        "p99": rank(99),
        "max": ordered[-1],
        "mean": sum(ordered) / count,
    }


class DetectionService:
    """Asyncio front-end owning one :class:`TestbedPipeline`."""

    def __init__(
        self, pipeline: TestbedPipeline, config: Optional[ServiceConfig] = None
    ) -> None:
        self.pipeline = pipeline
        self.config = config or ServiceConfig()
        self.dead_letter = DeadLetterJournal(self.config.dead_letter_path)
        self.admission = AdmissionController(
            self.config.limits,
            vocabulary=pipeline.vocabulary,
            mirror=pipeline.mirror,
            dead_letter=self.dead_letter,
        )
        self.reshards = ReshardCoordinator(pipeline)
        self.store: Optional[CheckpointStore] = None
        if self.config.checkpoint_dir is not None:
            self.store = CheckpointStore(
                self.config.checkpoint_dir, keep_last=self.config.keep_last
            )
        # Consumer state.
        self._queue: "asyncio.Queue[_WorkItem]" = asyncio.Queue()
        self._inflight: Optional[_WorkItem] = None
        # Telemetry.
        window = self.config.latency_window
        self._e2e_latency: Deque[float] = deque(maxlen=window)
        self._stage_latency: Dict[str, Deque[float]] = {}
        self.batches_processed = 0
        self.alerts_processed = 0
        self.records_processed = 0
        self.detections_emitted = 0
        self.failed_batches = 0
        self.control_failures = 0
        self.consumer_errors = 0
        self.connections_total = 0
        self.checkpoints_written = 0
        self.shutdown_reason = ""
        # Lifecycle.
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._consumer_task: Optional[asyncio.Task] = None
        self._ticker_task: Optional[asyncio.Task] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._conn_depth: Dict[int, int] = {}
        self._next_conn_id = 0
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the consumer."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        # StreamReader's default 64 KiB limit would reset any
        # in-contract request above it before decode_line ever saw the
        # line: size the buffer to the protocol bound (plus slack for
        # the newline) so MAX_LINE_BYTES is the one operative limit.
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES + 1024,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._consumer_task = asyncio.create_task(self._consume())
        self._consumer_task.add_done_callback(self._on_consumer_exit)
        if self.store is not None and self.config.checkpoint_interval > 0:
            self._ticker_task = asyncio.create_task(self._checkpoint_ticker())

    async def serve_forever(
        self,
        *,
        install_signal_handlers: bool = True,
        ready: Optional[Callable[["DetectionService"], None]] = None,
    ) -> None:
        """Start, announce readiness, and run until shut down."""
        await self.start()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(
                        signum, self.request_shutdown, signal.Signals(signum).name
                    )
                except (NotImplementedError, RuntimeError, ValueError):
                    # Not the main thread (tests) or unsupported platform.
                    break
        if ready is not None:
            ready(self)
        await self._stopped.wait()

    def request_shutdown(self, reason: str = "") -> None:
        """Trigger graceful shutdown; safe from signal handlers/threads.

        A no-op once the service has stopped and its loop is closed.
        """
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(
                lambda: self._loop.create_task(self.shutdown(reason))
            )
        except RuntimeError:
            # call_soon_threadsafe refuses a closed loop; checking
            # is_closed() first would race the service thread.
            if not self._loop.is_closed():
                raise

    async def shutdown(self, reason: str = "") -> None:
        """Drain everything admitted, final-checkpoint, stop serving."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self.shutdown_reason = reason or "shutdown"
        if self._server is not None:
            self._server.close()
        if self._ticker_task is not None:
            self._ticker_task.cancel()
        for task in list(self._conn_tasks):
            task.cancel()
        # The stop marker rides the FIFO behind everything already
        # acknowledged: reaching it is the drain guarantee.
        future = self._loop.create_future()
        item = _WorkItem(kind="stop", future=future)
        if self._consumer_task is not None and self._consumer_task.done():
            # Crashed consumer (see _on_consumer_exit): don't enqueue
            # a marker nothing will ever reach.
            self._resolve(item, ("error", "consumer not running"))
        else:
            self._queue.put_nowait(item)
        await future
        if self._consumer_task is not None:
            with contextlib.suppress(BaseException):
                await self._consumer_task
        if self._server is not None:
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        self._stopped.set()

    def _on_consumer_exit(self, task: asyncio.Task) -> None:
        """Fail-stop backstop for a consumer death outside _consume's
        catch-all (cancellation, a fatal BaseException).

        Once the consumer is gone nothing queued will ever be
        processed: stop pretending -- refuse new work, fail every
        queued waiter so barrier clients and shutdown() unblock
        instead of hanging, and release ``serve_forever``.
        """
        if task.cancelled():
            exc: Optional[BaseException] = asyncio.CancelledError(
                "consumer task cancelled"
            )
        else:
            exc = task.exception()
        if exc is None:
            return
        detail = f"consumer crashed: {type(exc).__name__}: {exc}"
        self._stopping = True
        self.shutdown_reason = self.shutdown_reason or detail
        with contextlib.suppress(Exception):
            self.dead_letter.record(
                "consumer-crashed", "consumer", {"error": detail}
            )
        if self._server is not None:
            self._server.close()
        if self._ticker_task is not None:
            self._ticker_task.cancel()
        while not self._queue.empty():
            self._resolve(self._queue.get_nowait(), ("error", detail))
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # Consumer: the only code that touches the pipeline
    # ------------------------------------------------------------------
    async def _consume(self) -> None:
        while True:
            item = await self._queue.get()
            try:
                stop = self._process(item)
            except Exception as exc:
                # _process contains the failures it expects; anything
                # escaping is a bug.  A dead consumer would silently
                # turn every later ack into a false durability promise
                # (and deadlock shutdown on the stop marker), so
                # contain it: journal, fail the item's waiter, and
                # keep the loop alive.
                stop = self._contain_consumer_error(item, exc)
            finally:
                self._queue.task_done()
            if stop:
                break

    def _contain_consumer_error(self, item: _WorkItem, exc: BaseException) -> bool:
        self.consumer_errors += 1
        self.dead_letter.record(
            "consumer-error",
            item.kind,
            {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            },
        )
        self._resolve(item, ("error", f"{type(exc).__name__}: {exc}"))
        self._inflight = None
        with contextlib.suppress(Exception):
            self.pipeline.drain_inflight()
        # A stop marker still stops, even when its processing failed:
        # shutdown() is awaiting it.
        return item.kind == "stop"

    def _process(self, item: _WorkItem) -> bool:
        if item.conn_id in self._conn_depth:
            self._conn_depth[item.conn_id] -= 1
        if item.kind in ("alerts", "raw"):
            self._finish_inflight()
            item.stage_before = dict(self.pipeline.stats.stage_seconds)
            try:
                if item.kind == "alerts":
                    self.pipeline.submit_alerts(list(item.alerts))
                else:
                    self.pipeline.submit_raw(item.records)
            except Exception as exc:
                self._dead_letter_batch(item, exc)
                self.pipeline.drain_inflight()
                return False
            self._inflight = item
            if self._queue.empty():
                self._finish_inflight()
            return False
        # Barrier ops quiesce the in-flight batch first.
        self._finish_inflight()
        if item.kind == "control":
            try:
                if item.verb == "reset_entity":
                    self.pipeline.reset_entity(item.entity)
                elif item.verb == "reset":
                    self.pipeline.reset_detectors()
                elif item.verb == "reopen":
                    self.pipeline.reopen_detectors()
            except Exception as exc:
                self.control_failures += 1
                self.dead_letter.record(
                    "control-failed",
                    "control",
                    {"verb": item.verb, "entity": item.entity, "error": str(exc)},
                )
            return False
        if item.kind == "reshard":
            try:
                result = self.reshards.reshard(item.n_shards)
                self._resolve(item, ("ok", {"reshard": result}))
            except Exception as exc:
                self._resolve(item, ("error", f"{type(exc).__name__}: {exc}"))
            return False
        if item.kind == "checkpoint":
            self._resolve(item, self._take_checkpoint())
            return False
        if item.kind == "detections":
            self._resolve(item, ("ok", self._detections_result(item.since)))
            return False
        if item.kind == "drain":
            self._resolve(item, ("ok", self._drain_result()))
            return False
        if item.kind == "stop":
            final: Optional[Tuple[str, object]] = None
            if self.store is not None:
                final = self._take_checkpoint()
            self._resolve(
                item,
                (
                    "ok",
                    {
                        "reason": self.shutdown_reason,
                        "drained": self._drain_result(),
                        "final_checkpoint": final[1] if final and final[0] == "ok" else None,
                    },
                ),
            )
            return True
        return False

    def _finish_inflight(self) -> None:
        """Collect the in-flight detection batch, if any, and account it."""
        item = self._inflight
        if item is None:
            return
        self._inflight = None
        try:
            detections = self.pipeline.collect_detections()
        except (ShardWorkerError, ShardRecoveryError) as exc:
            self._dead_letter_batch(item, exc)
            self.pipeline.drain_inflight()
            return
        self._e2e_latency.append(time.perf_counter() - item.enqueued)
        for stage, total in self.pipeline.stats.stage_seconds.items():
            delta = total - item.stage_before.get(stage, 0.0)
            if delta > 0.0:
                self._stage_latency.setdefault(
                    stage, deque(maxlen=self.config.latency_window)
                ).append(delta)
        self.batches_processed += 1
        self.alerts_processed += len(item.alerts)
        self.records_processed += len(item.records)
        self.detections_emitted += len(detections)

    def _dead_letter_batch(self, item: _WorkItem, exc: BaseException) -> None:
        """Contain a batch-level failure: journal it, keep serving."""
        self.failed_batches += 1
        payload = {
            "kind": item.kind,
            "alerts": [a.to_dict() for a in item.alerts],
            "records": [raw_record_to_dict(r) for r in item.records],
            "error": f"{type(exc).__name__}: {exc}",
        }
        self.dead_letter.record("detection-failure", "batch", payload)

    def _take_checkpoint(self) -> Tuple[str, object]:
        if self.store is None:
            return ("error", "no checkpoint store configured")
        try:
            path = self.store.save(self.pipeline)
        except Exception as exc:
            return ("error", f"{type(exc).__name__}: {exc}")
        self.checkpoints_written += 1
        return ("ok", {"path": str(path), "checkpoints_written": self.checkpoints_written})

    def _detections_result(self, since: int) -> dict:
        detections = self.pipeline.detections_by(self.pipeline.primary_detector)
        return {
            "total": len(detections),
            "detections": [detection_to_dict(d) for d in detections[since:]],
        }

    def _drain_result(self) -> dict:
        return {
            "batches_processed": self.batches_processed,
            "failed_batches": self.failed_batches,
            "detections": self.pipeline.stats.detections,
            "queue_depth": self._queue.qsize(),
            "inflight": 0,
        }

    def _resolve(self, item: _WorkItem, result: Tuple[str, object]) -> None:
        if item.future is not None and not item.future.done():
            item.future.set_result(result)

    async def _checkpoint_ticker(self) -> None:
        """Periodic durable checkpoints, riding the FIFO like any barrier."""
        while True:
            await asyncio.sleep(self.config.checkpoint_interval)
            self._queue.put_nowait(_WorkItem(kind="checkpoint"))

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        self.connections_total += 1
        self._conn_depth[conn_id] = 0
        seq = 0
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The request line outgrew the protocol bound
                    # (StreamReader raises before decode_line could
                    # see it): reply in-protocol, then close -- the
                    # framing is lost mid-line, so the stream cannot
                    # be resynchronised.
                    seq += 1
                    writer.write(
                        encode_message(
                            error_response(
                                "protocol",
                                f"request line exceeds {MAX_LINE_BYTES} bytes",
                                seq,
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line or not line.endswith(b"\n"):
                    # EOF, or a partial line cut off by a mid-write
                    # disconnect: either way the client is gone.  Work
                    # already acked stays in the FIFO and completes.
                    break
                seq += 1
                try:
                    request = parse_request(decode_line(line))
                except ProtocolError as exc:
                    writer.write(
                        encode_message(error_response("protocol", str(exc), seq))
                    )
                    await writer.drain()
                    continue
                response = await self._dispatch(request, conn_id, seq)
                writer.write(encode_message(response))
                await writer.drain()
        except asyncio.CancelledError:
            pass
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception:
            self.dead_letter.record(
                "connection-error", "connection", traceback.format_exc()
            )
        finally:
            # Acked-but-unprocessed items from this connection stay
            # queued; stop charging them to a departed connection.
            self._conn_depth.pop(conn_id, None)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: Request, conn_id: int, seq: int) -> dict:
        op = request.op
        if op == "ping":
            return ok_response({"pong": True}, seq)
        if op == "hello":
            return ok_response(
                {
                    "server": "repro-detection-service",
                    "version": PROTOCOL_VERSION,
                    "n_shards": self.pipeline.n_shards,
                    "backend": self.pipeline.shard_backend,
                    "primary_detector": self.pipeline.primary_detector,
                },
                seq,
            )
        if op == "stats":
            return ok_response(self.stats_snapshot(), seq)
        if op == "results":
            return ok_response(self.results_snapshot(), seq)
        if op == "throttle":
            self.admission.forced_mode = (
                None if request.mode == "open" else request.mode
            )
            return ok_response({"mode": request.mode}, seq)
        if self._stopping:
            return error_response("shutting-down", "service is draining", seq)
        if op in ("batch", "raw"):
            depth = self._queue.qsize()
            conn_depth = self._conn_depth.get(conn_id, 0)
            if op == "batch":
                outcome = self.admission.admit_alerts(
                    request.alerts, depth, conn_depth
                )
            else:
                outcome = self.admission.admit_raw(request.records, depth, conn_depth)
            if not outcome.accepted:
                return error_response(
                    "overloaded",
                    f"queue at {depth}/{self.config.limits.global_capacity}",
                    seq,
                    retry_after=outcome.retry_after,
                )
            if not outcome.admitted:
                # Whole batch shed (or empty): the admission controller
                # already accounted every record, so don't spend a
                # queue slot and a connection-depth charge on a no-op
                # work item.
                return ok_response(
                    {
                        "tier": outcome.tier,
                        "admitted": 0,
                        "shed": outcome.shed,
                        "queued": self._queue.qsize(),
                    },
                    seq,
                )
            item = _WorkItem(
                kind="alerts" if op == "batch" else "raw",
                alerts=outcome.admitted if op == "batch" else (),
                records=outcome.admitted if op == "raw" else (),
                conn_id=conn_id,
                enqueued=time.perf_counter(),
            )
            self._enqueue(item, conn_id)
            return ok_response(
                {
                    "tier": outcome.tier,
                    "admitted": len(outcome.admitted),
                    "shed": outcome.shed,
                    "queued": self._queue.qsize(),
                },
                seq,
            )
        if op == "control":
            self._enqueue(
                _WorkItem(
                    kind="control",
                    verb=request.verb,
                    entity=request.entity,
                    conn_id=conn_id,
                ),
                conn_id,
            )
            return ok_response({"queued": self._queue.qsize()}, seq)
        if op in ("reshard", "checkpoint", "drain", "detections"):
            # Barrier ops (detections included: only the consumer may
            # touch the pipeline, and the barrier quiesces the in-flight
            # batch, so the reply reflects every admitted batch).
            future = self._loop.create_future()
            self._queue.put_nowait(
                _WorkItem(
                    kind=op,
                    n_shards=request.n_shards,
                    since=request.since,
                    future=future,
                )
            )
            status, payload = await future
            if status != "ok":
                return error_response(f"{op}-failed", str(payload), seq)
            if isinstance(payload, dict):
                return ok_response(payload, seq)
            return ok_response({"result": payload}, seq)
        return error_response("protocol", f"unhandled op {op!r}", seq)

    def _enqueue(self, item: _WorkItem, conn_id: int) -> None:
        if conn_id in self._conn_depth:
            self._conn_depth[conn_id] += 1
        self._queue.put_nowait(item)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """The ``stats`` op payload: service, pipeline, and latency."""
        summary = self.pipeline.summary()
        return {
            "batches_processed": self.batches_processed,
            "alerts_processed": self.alerts_processed,
            "records_processed": self.records_processed,
            "detections_emitted": self.detections_emitted,
            "failed_batches": self.failed_batches,
            "control_failures": self.control_failures,
            "consumer_errors": self.consumer_errors,
            "connections_total": self.connections_total,
            "queue_depth": self._queue.qsize(),
            "inflight": 0 if self._inflight is None else 1,
            "n_shards": self.pipeline.n_shards,
            "backend": self.pipeline.shard_backend,
            "checkpoints_written": self.checkpoints_written,
            "dead_letter_records": self.dead_letter.count,
            "admission": self.admission.snapshot(),
            "reshards": list(self.reshards.history),
            "pipeline": {
                key: value
                for key, value in summary.items()
                if key != "stage_seconds"
            },
            "stage_seconds": summary["stage_seconds"],
            "normalizer": {
                "dropped": self.pipeline.normalizer.dropped,
                "malformed": self.pipeline.normalizer.malformed,
            },
            # This process's collector: ``python -m repro.service`` sets
            # a policy, an embedded service reports the interpreter's.
            "gc": {
                "threshold": list(gc.get_threshold()),
                "frozen": gc.get_freeze_count(),
                "collections": [gen["collections"] for gen in gc.get_stats()],
            },
            "latency": {
                "e2e": percentile_summary(self._e2e_latency),
                "stages": {
                    stage: percentile_summary(samples)
                    for stage, samples in sorted(self._stage_latency.items())
                },
            },
        }

    def results_snapshot(self) -> dict:
        """The ``results`` op payload: the full bit-identity surface.

        Callers should ``drain`` first; this reads whatever has been
        processed so far.
        """
        summary = self.pipeline.summary()
        return serialize_results(
            self.pipeline.detections_by(self.pipeline.primary_detector),
            self.pipeline.detections,
            self.pipeline.responder.notifications,
            self.pipeline.responder.actions,
            {key: summary[key] for key in COMPARED_COUNTERS},
        )


# ----------------------------------------------------------------------
# In-process harness (tests, chaos legs, benchmarks)
# ----------------------------------------------------------------------
class ServiceHandle:
    """A service running its own event loop on a daemon thread."""

    def __init__(self) -> None:
        self.service: Optional[DetectionService] = None
        self.pipeline: Optional[TestbedPipeline] = None
        self.port: Optional[int] = None
        self.thread: Optional[threading.Thread] = None
        self.error: Optional[BaseException] = None

    def client(self, **kwargs) -> ServiceClient:
        """A connected :class:`ServiceClient` for this service."""
        return ServiceClient("127.0.0.1", self.port, **kwargs)

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful drain-then-checkpoint shutdown; joins the thread."""
        if self.service is not None:
            self.service.request_shutdown("handle.stop")
        if self.thread is not None:
            self.thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_service_in_thread(
    pipeline_factory: Callable[[], TestbedPipeline],
    config: Optional[ServiceConfig] = None,
    *,
    startup_timeout: float = 120.0,
) -> ServiceHandle:
    """Run a :class:`DetectionService` on a background thread.

    The pipeline is constructed *inside* the service thread (process
    pools and all) and closed when the service shuts down.  Returns
    once the listener is bound, with ``handle.port`` set.
    """
    handle = ServiceHandle()
    ready = threading.Event()

    def announce(service: DetectionService) -> None:
        handle.port = service.port
        ready.set()

    def runner() -> None:
        async def main() -> None:
            pipeline = pipeline_factory()
            handle.pipeline = pipeline
            service = DetectionService(pipeline, config)
            handle.service = service
            await service.serve_forever(
                install_signal_handlers=False, ready=announce
            )

        # The pipeline is closed *outside* the event loop: close() joins
        # worker processes, which must not block a coroutine
        # (staticcheck: asyncio-blocking).  Still the service thread,
        # so process pools are joined by the thread that spawned them.
        try:
            asyncio.run(main())
            if handle.pipeline is not None:
                handle.pipeline.close()
        except BaseException as exc:  # surface startup/crash to the caller
            if handle.pipeline is not None:
                with contextlib.suppress(Exception):
                    handle.pipeline.close()
            handle.error = exc
            ready.set()

    handle.thread = threading.Thread(
        target=runner, name="repro-service", daemon=True
    )
    handle.thread.start()
    if not ready.wait(timeout=startup_timeout):
        raise RuntimeError("service did not start in time")
    if handle.error is not None:
        raise RuntimeError("service failed to start") from handle.error
    return handle


__all__ = [
    "ServiceConfig",
    "DetectionService",
    "ServiceHandle",
    "start_service_in_thread",
    "percentile_summary",
]
