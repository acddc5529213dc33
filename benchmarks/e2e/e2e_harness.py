"""Load generator, calibration, SUT lifecycle, correctness and hygiene.

One process, one connection: the harness sends pre-encoded request
lines, times fixed-count segments against ``time.perf_counter``, and
between segments -- while the system under test is drained and idle --
times a fixed reference kernel, :meth:`Calibrator.sample`.  A
segment's *reference-core* time is its wall time scaled by
``CAL_REF_S`` over the mean of the two calibrations around it, which
takes out most of the host's speed drift (see README.md for the
measured spreads).

Socket workloads drive a ``python -m repro.service`` subprocess
(:class:`ServiceUnderTest`); the library workload drives
``TestbedPipeline`` in this process (:func:`run_library`).  Both return
a :class:`Measured`.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import glob
import hashlib
import itertools
import json
import mmap
import multiprocessing
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.attack_tagger import AttackTagger
from repro.fuzz.oracle import COMPARED_COUNTERS
from repro.incidents import DEFAULT_CATALOGUE
from repro.service.protocol import encode_message, parse_request, serialize_results
from repro.testbed.pipeline import TestbedPipeline
from repro.testbed.shm_ring import SEGMENT_PREFIX

import e2e_spans
from e2e_workloads import (
    MAX_WINDOW,
    PACED_RATE,
    REPLAY_SHARDS,
    Step,
    Workload,
    replay_record_batches,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: Scratch files (span dumps, end-of-run checkpoints) live here, inside
#: the checkout; the directory is git-ignored.
WORK_DIR = HERE / ".work"

#: Reference-core calibration: nominal wall seconds of one
#: :meth:`Calibrator.sample` on the host the baseline was recorded on.
CAL_REF_S = 0.020
#: Iterations of the kernel's two parts; together ~20 ms, ~1:4.
CAL_LOOP_ITERATIONS = 60_000
CAL_TRACK_STEPS = 1_170
#: Passes over the kernel per sample.  One 20 ms pass spreads 10-50% on
#: the recording host; the mean of three halved the run-to-run spread of
#: ``entity_churn`` (IQR 4.5% -> 2.2% of the median over ten runs).
CAL_PASSES = 3

#: Flags every socket workload runs the service with (default
#: admission limits: the window of 8 stays under per_connection=16).
SERVICE_FLAGS = (
    "--shards", "1",
    "--backend", "serial",
    "--engine", "streaming",
    "--max-window", str(MAX_WINDOW),
)  # fmt: skip
#: ``python -m repro.service``'s default detection threshold, which the
#: library workload and the naive reference must share.
THRESHOLD = 0.7

#: Closed-loop window used for every socket warm-up.
WARMUP_WINDOW = 8
#: A reply later than this fails the run's remaining inputs.
REPLY_TIMEOUT_S = 60.0
REPLAY_RING_CAPACITY = 8 * 1024 * 1024

_DRAIN = encode_message({"op": "drain"})


class Calibrator:
    """The fixed reference kernel segment walls are divided by.

    Two parts, timed as one: a pure-Python integer loop, and a loop
    that walks 256 per-entity records doing what a detector does per
    alert -- a deque append, a dict counter, and a log-sum-exp step on
    a ``K x K`` numpy matrix.  The integer loop alone tracks the
    interpreter's speed but not the cache and allocator pressure that
    slows the numpy-and-dict-heavy service more than it slows a tight
    loop; the mix follows the service about twice as closely (README.md
    has the measured spreads).  The kernel lives here, not in ``src/``,
    so no change to the system under test can move it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._tracks = [
            {
                "entity": f"user:{index:04d}",
                "window": collections.deque(maxlen=MAX_WINDOW),
                "forward": rng.random(4),
                "transition": rng.random((4, 4)),
                "seen": {},
            }
            for index in range(256)
        ]
        self._names = [f"alert_{index}" for index in range(7)]
        self._cursor = 0

    def sample(self) -> float:
        """Mean wall seconds of one pass over the kernel."""
        tracks, names, cursor = self._tracks, self._names, self._cursor
        log, exp = np.log, np.exp
        started = time.perf_counter()
        for _ in range(CAL_PASSES):
            x = 0
            for i in range(CAL_LOOP_ITERATIONS):
                x += i * i
            for i in range(CAL_TRACK_STEPS):
                track = tracks[(cursor + i) % 256]
                name = names[i % 7]
                track["window"].append((float(i), name, track["entity"]))
                scores = track["transition"] + track["forward"][:, None]
                top = scores.max(axis=0)
                forward = top + log(exp(scores - top).sum(axis=0))
                track["forward"] = forward - forward.max()
                track["seen"][name] = track["seen"].get(name, 0) + 1
            cursor += CAL_TRACK_STEPS
        elapsed = time.perf_counter() - started
        self._cursor = cursor
        return elapsed / CAL_PASSES


def prefault(megabytes: int) -> None:
    """Touch and release ``megabytes`` of fresh memory.

    The recording host is a micro-VM that hands free memory back to its
    hypervisor: a page the guest has not touched lately costs 15-40 us
    to fault in instead of 2 us, which showed as a 40% slower
    ``raw_scan_flood`` (its service grows by 1 KB a record) whenever the
    run came first after a quiet spell.  Pages freed by a process stay
    cheap for a while, so the harness faults in, off the clock, about
    what the system under test will grow into.  This process's own peak
    resident set is reset afterwards (the library workload reports it).
    """
    with mmap.mmap(-1, megabytes << 20) as region:
        for offset in range(0, megabytes << 20, mmap.PAGESIZE):
            region[offset] = 1
    with contextlib.suppress(OSError):
        Path("/proc/self/clear_refs").write_text("5")


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, median, high = statistics.quantiles(values, n=4)
    return (high - low) / median if median else 0.0


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Segment:
    """One timed fixed-count segment, bracketed by two calibrations."""

    start: float
    end: float
    inputs: int
    cal_before: float
    cal_after: float
    #: Raw seconds per completion unit: the whole segment for closed
    #: loops, one value per batch (due time to drain reply) when paced.
    latencies: List[float]
    #: How late the generator sent each batch (open loop only).
    late: List[float] = dataclasses.field(default_factory=list)

    @property
    def scale(self) -> float:
        """Raw seconds -> reference-core seconds for this segment."""
        return CAL_REF_S / ((self.cal_before + self.cal_after) / 2.0)


@dataclasses.dataclass
class Measured:
    """Everything one run of the system under test produced."""

    workload: str
    #: ``closed`` or ``open``, as :attr:`Workload.loop`.
    loop: str
    traced: bool
    #: Raw wall seconds from spawn to warmed up, and the calibration
    #: samples taken just before and just after.
    setup_wall_s: float
    setup_cals: List[float]
    segments: List[Segment]
    attempted: int
    #: Failed inputs by cause (rejected, shed, errored, dead_lettered)
    #: plus hygiene problems; all zero on a clean run.  A reply that
    #: never arrives raises instead: the run has no result at all.
    failures: Dict[str, int]
    digest: str
    prefix_digest: str
    detections: int
    peak_rss_mb: float
    #: Layer counters the harness reads off the SUT's public surface.
    counters: Dict[str, float]
    #: Recorded spans (traced runs only).
    spans: List[list] = dataclasses.field(default_factory=list)
    #: Filtered batches a process pool received (traced library runs).
    captured_batches: List[list] = dataclasses.field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def digest_of(results: dict) -> str:
    """SHA-256 of the results surface in canonical JSON."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def results_of(pipeline: TestbedPipeline) -> dict:
    """The ``results`` op surface, read off a library pipeline."""
    summary = pipeline.summary()
    return serialize_results(
        pipeline.detections_by(pipeline.primary_detector),
        pipeline.detections,
        pipeline.responder.notifications,
        pipeline.responder.actions,
        {key: summary[key] for key in COMPARED_COUNTERS},
    )


def _tagger(engine: str) -> AttackTagger:
    return AttackTagger(
        patterns=list(DEFAULT_CATALOGUE),
        engine=engine,
        max_window=MAX_WINDOW,
        detection_threshold=THRESHOLD,
    )


def reference_prefix_digest(prefix: Sequence) -> str:
    """Replay the prefix through a serial ``engine="naive"`` pipeline.

    ``prefix`` holds request payload dicts (socket workloads) or raw
    record batches (library workload); each is ingested as one
    batch-synchronous call, the reference every driver must match bit
    for bit.
    """
    with TestbedPipeline(detectors={"factor_graph": _tagger("naive")}) as pipeline:
        for batch in prefix:
            if isinstance(batch, dict):
                request = parse_request(batch)
                if request.op == "batch":
                    pipeline.ingest_alerts(request.alerts)
                else:
                    pipeline.ingest_raw(request.records)
            else:
                pipeline.ingest_raw(batch)
        return digest_of(results_of(pipeline))


# ----------------------------------------------------------------------
# /proc and /dev/shm
# ----------------------------------------------------------------------
def process_tree(pid: int) -> List[int]:
    """``pid`` and every live descendant, from ``/proc``."""
    pids = [pid]
    for parent in pids:
        for path in glob.glob(f"/proc/{parent}/task/*/children"):
            with contextlib.suppress(OSError):
                pids.extend(int(child) for child in Path(path).read_text().split())
    return pids


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the processes' peak resident sets (``VmHWM``), in MB."""
    total_kb = 0
    for pid in pids:
        with contextlib.suppress(OSError):
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def ring_segments() -> set:
    """Shared-memory ring segments currently in ``/dev/shm``."""
    return set(glob.glob(f"/dev/shm/*{SEGMENT_PREFIX}*"))


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker and reap it.

    Creating a shared-memory ring starts a tracker process that only
    ends when this process's end of its pipe closes -- by default at
    interpreter exit, so it outlives the benchmark by a moment and is
    found running by whoever looks right after.  Closing the pipe here
    and waiting makes the exit clean; the tracker restarts on demand.
    Call it only once every process forked since (each holds a copy of
    the pipe) has been reaped.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not ended, not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def wait_gone(pids: Sequence[int], timeout: float) -> List[int]:
    """Watch ``/proc`` until ``pids`` have ended; return those that have not."""
    deadline = time.monotonic() + timeout
    while (left := [pid for pid in pids if _alive(pid)]) and (
        time.monotonic() < deadline
    ):
        time.sleep(0.01)
    return left


# ----------------------------------------------------------------------
# The socket system under test
# ----------------------------------------------------------------------
class ServiceUnderTest:
    """A ``python -m repro.service`` subprocess and one connection to it.

    Used as a context manager: leaving the block always terminates and
    reaps the process (graceful SIGTERM first, SIGKILL after 30 s).
    """

    def __init__(self, *, traced: bool) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.trace_path = WORK_DIR / f"spans-{os.getpid()}.jsonl"
        self.checkpoint_path = WORK_DIR / f"end-{os.getpid()}.ckpt"
        if traced:
            command = [
                sys.executable,
                str(HERE / "serve.py"),
                "--trace-out", str(self.trace_path),
                "--checkpoint-out", str(self.checkpoint_path),
            ]  # fmt: skip
        else:
            command = [sys.executable, "-m", "repro.service"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            command + list(SERVICE_FLAGS), stdout=subprocess.PIPE, env=env
        )
        self.sock: Optional[socket.socket] = None
        #: Descendants that outlived the service (set by :meth:`stop`).
        self.orphans: List[int] = []
        try:
            announce = self.process.stdout.readline().split()
            if len(announce) != 2 or announce[0] != b"LISTENING":
                raise RuntimeError(f"service did not start: {announce!r}")
            self.sock = socket.create_connection(
                ("127.0.0.1", int(announce[1])), timeout=REPLY_TIMEOUT_S
            )
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._file = self.sock.makefile("rb")
        except BaseException:
            self.stop()
            raise

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    def request(self, payload: dict) -> dict:
        self.send(encode_message(payload))
        reply = self.reply()
        if not reply.get("ok"):
            raise RuntimeError(f"{payload['op']} failed: {reply}")
        return reply

    def stop(self) -> None:
        if self.sock is not None:
            with contextlib.suppress(OSError):
                self._file.close()
                self.sock.close()
            self.sock = None
        descendants = process_tree(self.process.pid)[1:]
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        # Anything the service started and did not reap is not ours to
        # wait() on.  Give it half a second to end by itself (a resource
        # tracker does, once its parent is gone); what is left then is
        # an orphan: count it, kill it, and watch /proc until it is gone.
        self.orphans = wait_gone(descendants, 0.5)
        for pid in self.orphans:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
        wait_gone(self.orphans, 10.0)

    def __enter__(self) -> "ServiceUnderTest":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _group(steps: Sequence[Step], size: int) -> List[List[Step]]:
    """Consecutive groups of ``size`` ingest steps (controls ride along)."""
    groups: List[List[Step]] = [[]]
    ingests = 0
    for step in steps:
        if step.inputs and ingests == size:
            groups.append([])
            ingests = 0
        groups[-1].append(step)
        ingests += 1 if step.inputs else 0
    return groups


def _chunks(items: Sequence, size: int) -> List[Sequence]:
    return [items[start : start + size] for start in range(0, len(items), size)]


class _SocketRun:
    """The load generator's state for one service run."""

    def __init__(self, sut: ServiceUnderTest, calibrator: Calibrator) -> None:
        self.sut = sut
        self.cal = calibrator.sample
        self.failures = dict.fromkeys(
            ("rejected", "shed", "errored", "dead_lettered"), 0
        )
        self.attempted = 0
        self.queue_depth_max = 0

    def round(self, group: Sequence[Step]) -> float:
        """Send a group and a drain; return when the drain replied."""
        self.sut.send(b"".join(step.line for step in group) + _DRAIN)
        for step in group:
            self._account(step, self.sut.reply())
        drained = self.sut.reply()
        finished = time.perf_counter()
        if not drained.get("ok"):
            self.failures["errored"] += sum(step.inputs for step in group)
        return finished

    def _account(self, step: Step, ack: dict) -> None:
        self.attempted += step.inputs
        if ack.get("ok"):
            self.failures["shed"] += int(ack.get("shed", 0))
            self.queue_depth_max = max(self.queue_depth_max, int(ack.get("queued", 0)))
        elif ack.get("error") == "overloaded":
            self.failures["rejected"] += step.inputs
        else:
            self.failures["errored"] += max(1, step.inputs)

    def closed_loop(self, segments: Sequence[Sequence[Sequence[Step]]]) -> List[Segment]:
        """Each round waits for the previous round's drain reply."""
        measured = []
        before = self.cal()
        for rounds in segments:
            started = time.perf_counter()
            latencies, begun = [], started
            for group in rounds:
                finished = self.round(group)
                latencies.append(finished - begun)
                begun = finished
            after = self.cal()
            inputs = sum(step.inputs for group in rounds for step in group)
            measured.append(Segment(started, begun, inputs, before, after, latencies))
            before = after
        return measured

    def open_loop(self, segments: Sequence[Sequence[Sequence[Step]]]) -> List[Segment]:
        """One caller on a fixed schedule, each batch followed by a drain.

        Latency runs from the batch's *due* time to its drain reply, so
        a stall is charged to every batch it delays.  The schedule
        pauses for one calibration between segments.
        """
        measured = []
        before = self.cal()
        for rounds in segments:
            origin = time.perf_counter()
            latencies, late = [], []
            for index, group in enumerate(rounds):
                due = origin + index / PACED_RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late.append(max(0.0, time.perf_counter() - due))
                latencies.append(self.round(group) - due)
            finished = time.perf_counter()
            after = self.cal()
            inputs = sum(step.inputs for group in rounds for step in group)
            measured.append(
                Segment(origin, finished, inputs, before, after, latencies, late)
            )
            before = after
        return measured


def run_socket(
    workload: Workload, steps: Sequence[Step], *, traced: bool, setup_only: bool = False
) -> Measured:
    """Spawn the service, warm it up, time the segments, check, reap."""
    ingests = itertools.accumulate(1 if step.inputs else 0 for step in steps)
    warm_count = sum(1 for seen in ingests if seen <= workload.warmup_batches)
    warm_groups = _group(steps[:warm_count], WARMUP_WINDOW)
    prefix_groups, ragged = divmod(workload.prefix_batches, WARMUP_WINDOW)
    if ragged or not 0 < workload.prefix_batches <= workload.warmup_batches:
        raise ValueError("the reference prefix must be whole warm-up rounds")
    shm_before = ring_segments()
    calibrator = Calibrator()
    cal_before = calibrator.sample()
    started = time.perf_counter()
    with ServiceUnderTest(traced=traced) as sut:
        run = _SocketRun(sut, calibrator)
        sut.request({"op": "hello"})
        unsetup = 0.0
        prefix_digest = ""
        for index, group in enumerate(warm_groups):
            run.round(group)
            if index + 1 == prefix_groups and not setup_only:
                paused = time.perf_counter()
                prefix_digest = _results_digest(sut)
                unsetup = time.perf_counter() - paused
        setup_wall_s = time.perf_counter() - started - unsetup
        setup_cals = [cal_before, calibrator.sample()]
        segments: List[Segment] = []
        if not setup_only:
            timed = _chunks(
                _group(steps[warm_count:], workload.window), workload.rounds_per_segment
            )
            if workload.loop == "open":
                segments = run.open_loop(timed)
            else:
                segments = run.closed_loop(timed)
        stats = sut.request({"op": "stats"})
        digest = "" if setup_only else _results_digest(sut)
        rss = peak_rss_mb(process_tree(sut.process.pid))
    run.failures["dead_lettered"] += int(stats["dead_letter_records"])
    run.failures["leaked_ring_segments"] = len(ring_segments() - shm_before)
    run.failures["orphaned_children"] = len(sut.orphans)
    spans: List[list] = []
    if traced:
        spans = e2e_spans.load(sut.trace_path)
        sut.trace_path.unlink()
        sut.checkpoint_path.unlink(missing_ok=True)
    admission = stats["admission"]
    return Measured(
        workload=workload.name,
        loop=workload.loop,
        traced=traced,
        setup_wall_s=setup_wall_s,
        setup_cals=setup_cals,
        segments=segments,
        attempted=run.attempted,
        failures=run.failures,
        digest=digest,
        prefix_digest=prefix_digest,
        detections=int(stats["detections_emitted"]),
        peak_rss_mb=rss,
        counters={
            "service.admission.admitted": admission["admitted_batches"],
            "service.admission.shed": admission["shed_raw_records"]
            + admission["shed_low_priority_alerts"],
            "service.admission.rejected": admission["rejected_batches"],
            "service.server.queue_depth_max": run.queue_depth_max,
        },
        spans=spans,
    )


def _results_digest(sut: ServiceUnderTest) -> str:
    reply = sut.request({"op": "results"})
    del reply["ok"], reply["seq"]
    return digest_of(reply)


# ----------------------------------------------------------------------
# The library system under test
# ----------------------------------------------------------------------
def _replay_pipeline() -> TestbedPipeline:
    return TestbedPipeline(
        detectors={"factor_graph": _tagger("streaming")},
        n_shards=REPLAY_SHARDS,
        shard_backend="process",
        transport="shm",
        max_inflight=2,
        ring_capacity=REPLAY_RING_CAPACITY,
    )


def run_library(
    workload: Workload, seed: int, n_batches: int, *, traced: bool, setup_only: bool = False
) -> Measured:
    """Build the sharded pipeline, warm it up, time the replay segments.

    The timed corpus is generated *after* the pipeline forked its shard
    workers, so the workers never map it and the tree's peak RSS counts
    it once.
    """
    batches = replay_record_batches(seed, n_batches, workload.batch_size)
    warm = list(itertools.islice(batches, workload.warmup_batches))
    prefix = warm[: workload.prefix_batches]
    shm_before = ring_segments()
    recorder = e2e_spans.SpanRecorder()
    WORK_DIR.mkdir(exist_ok=True)
    checkpoint_path = WORK_DIR / f"end-{os.getpid()}.ckpt"
    tracing = (
        e2e_spans.installed(recorder, checkpoint_path)
        if traced
        else contextlib.nullcontext()
    )
    calibrator = Calibrator()
    cal = calibrator.sample
    with tracing:
        cal_before = cal()
        started = time.perf_counter()
        pipeline = _replay_pipeline()
        try:
            pool = pipeline.detector_pools[pipeline.primary_detector]
            pipeline.ingest_raw_stream(prefix)
            paused = time.perf_counter()
            prefix_digest = digest_of(results_of(pipeline))
            unsetup = time.perf_counter() - paused
            pipeline.ingest_raw_stream(warm[workload.prefix_batches :])
            setup_wall_s = time.perf_counter() - started - unsetup
            setup_cals = [cal_before, cal()]
            segments: List[Segment] = []
            attempted = sum(len(batch) for batch in warm)
            busy_before = list(pool.busy_seconds)
            kernel_before = sum(pool.kernel_seconds)
            shm_batches_before = pool.shm_batches
            if not setup_only:
                timed = _chunks(
                    _chunks(list(batches), workload.window), workload.rounds_per_segment
                )
                before = cal()
                for rounds in timed:
                    opened = begun = time.perf_counter()
                    latencies = []
                    for group in rounds:
                        pipeline.ingest_raw_stream(group)
                        finished = time.perf_counter()
                        latencies.append(finished - begun)
                        begun = finished
                    after = cal()
                    inputs = sum(len(batch) for group in rounds for batch in group)
                    attempted += inputs
                    segments.append(
                        Segment(opened, begun, inputs, before, after, latencies)
                    )
                    before = after
            busy = [
                after - before
                for before, after in zip(busy_before, pool.busy_seconds)
            ]
            counters = {
                "testbed.sharding.worker_busy_s": sum(busy),
                "testbed.sharding.worker_kernel_s": sum(pool.kernel_seconds)
                - kernel_before,
                "testbed.sharding.shard_skew": max(busy) / (sum(busy) / len(busy))
                if sum(busy)
                else 0.0,
                "testbed.sharding.shm_batches": pool.shm_batches - shm_batches_before,
                "testbed.sharding.shm_fallbacks": pool.shm_fallbacks,
            }
            digest = digest_of(results_of(pipeline))
            detections = pipeline.stats.detections
            rss = peak_rss_mb(process_tree(os.getpid()))
        finally:
            try:
                pipeline.close()
            finally:
                # close() escalates to SIGKILL itself; whatever is still
                # here counts as orphaned and must not outlive the run.
                orphans = multiprocessing.active_children()
                for child in orphans:
                    child.kill()
                    child.join()
                stop_resource_tracker()
    with contextlib.suppress(OSError):
        checkpoint_path.unlink()
    failures = {
        "leaked_ring_segments": len(ring_segments() - shm_before),
        "orphaned_children": len(orphans),
    }
    return Measured(
        workload=workload.name,
        loop=workload.loop,
        traced=traced,
        setup_wall_s=setup_wall_s,
        setup_cals=setup_cals,
        segments=segments,
        attempted=attempted,
        failures=failures,
        digest=digest,
        prefix_digest=prefix_digest,
        detections=detections,
        peak_rss_mb=rss,
        counters=counters,
        spans=recorder.spans,
        captured_batches=recorder.captured_batches[workload.warmup_batches :],
    )


__all__ = [
    "CAL_REF_S",
    "Calibrator",
    "Measured",
    "Segment",
    "ServiceUnderTest",
    "digest_of",
    "iqr_share",
    "percentile",
    "prefault",
    "reference_prefix_digest",
    "run_library",
    "run_socket",
]
