"""The five named workloads: seeded input generators and sizing.

Every generator is a pure function of ``(seed, n_batches)``: the same
seed gives byte-identical request lines, another seed gives other
bytes.  The system under test only ever receives the generated inputs;
the seed never crosses the socket.

Socket workloads yield :class:`Step` objects -- one pre-encoded JSONL
request line each, built with the protocol's own ``encode_message`` so
the bytes are what ``ServiceClient`` would send -- and keep the first
``prefix_batches`` payloads in dict form so the correctness check can
replay them through the ``naive`` reference off the clock.  The
library workload yields lists of ``RawLogRecord``.

Sizes are *counts*, not durations: ``Workload.segments_for(seconds)``
turns the driver's ``--seconds`` into a fixed number of segments with
a per-workload nominal rate recorded on the reference host at the seed
commit, so two commits given the same ``--seconds`` do identical work.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, List, Optional

import numpy as np

from repro.core.alerts import AttackStage, DEFAULT_VOCABULARY
from repro.incidents import DEFAULT_CATALOGUE
from repro.service.protocol import encode_message, raw_record_to_dict
from repro.telemetry import AuditdMonitor, SyslogMonitor
from repro.testbed.sharding import shard_of

#: The vocabulary's benign operational noise (logins, cron, builds).
BENIGN_NAMES = tuple(DEFAULT_VOCABULARY.names_for_stage(AttackStage.BACKGROUND))

#: Every socket workload runs the service with this detector window so
#: steady traffic slides it (256 round-robin entities fill 32 slots in
#: 32 batches, inside the warm-up).
MAX_WINDOW = 32


@dataclasses.dataclass(frozen=True)
class Step:
    """One request line of a socket workload."""

    line: bytes
    #: Alerts or records carried (0 for a control line).
    inputs: int
    #: The decoded payload, kept only for the reference-replay prefix.
    payload: Optional[dict] = None


@dataclasses.dataclass(frozen=True)
class Workload:
    """Static description of one workload (see README.md for the why)."""

    name: str
    why: str
    #: ``socket`` drives a ``python -m repro.service`` subprocess,
    #: ``library`` drives ``TestbedPipeline`` in the harness process.
    kind: str
    #: ``closed``: next window only after the previous drain reply;
    #: ``open``: batches sent on a fixed schedule regardless.
    loop: str
    batch_size: int
    #: Batches per round: the closed-loop window (send ``window``
    #: batches, then ``drain``), one ``ingest_raw_stream`` call of the
    #: library workload, or 1 for the paced workload.
    window: int
    #: Rounds per timed segment.  A segment is what two calibrations
    #: bracket; it is sized to ~0.3 s so that one garbage collection or
    #: one stolen time slice does not decide its rate.
    rounds_per_segment: int
    #: Segments per second of ``--seconds`` on the reference host.
    segments_per_second: float
    #: Untimed batches sent before the clock starts; the first
    #: ``prefix_inputs`` inputs among them are the reference prefix.
    warmup_batches: int
    #: Peak resident memory of the system under test's process tree at
    #: ``run_seconds``, rounded up: what the harness pre-faults.
    resident_mb: int
    #: Inputs whose results are replayed through the naive reference.
    prefix_inputs: int = 4096

    @property
    def prefix_batches(self) -> int:
        return self.prefix_inputs // self.batch_size

    def segments_for(self, seconds: float) -> int:
        """Timed segments for a run of nominally ``seconds`` seconds."""
        return max(4, int(round(self.segments_per_second * seconds)))

    def batches_for(self, seconds: float) -> int:
        """Total batches (warm-up + timed) the generator must produce."""
        return (
            self.warmup_batches
            + self.segments_for(seconds) * self.rounds_per_segment * self.window
        )


#: Paced workload schedule: batches per second offered by the caller.
PACED_RATE = 50.0

#: Entities between ``control reset`` lines on ``entity_churn``.
CHURN_RESET_ENTITIES = 8192

WORKLOADS = (
    Workload(
        name="steady_alerts",
        why="256-alert batches over 256 round-robin benign-heavy entities: "
        "steady sliding-window decode dominates, telemetry/ is bypassed",
        kind="socket",
        loop="closed",
        batch_size=256,
        window=8,
        rounds_per_segment=1,
        segments_per_second=4.0,
        warmup_batches=48,
        resident_mb=128,
    ),
    Workload(
        name="raw_scan_flood",
        why="512-record raw batches, 85% S0 probes from 8 mass scanners: JSON "
        "parse, admission, normalise and filter dominate, the kernel idles",
        kind="socket",
        loop="closed",
        batch_size=512,
        window=8,
        rounds_per_segment=4,
        segments_per_second=2.4,
        warmup_batches=16,
        resident_mb=512,
    ),
    Workload(
        name="paced_latency",
        why="steady traffic in 32-alert batches on a 50 batch/s open-loop "
        "schedule (~25% load): per-batch fixed costs set the latency",
        kind="socket",
        loop="open",
        batch_size=32,
        window=1,
        rounds_per_segment=25,
        segments_per_second=PACED_RATE / 25,
        warmup_batches=384,
        resident_mb=96,
    ),
    Workload(
        name="sharded_replay",
        why="offline replay of bursty shard-aligned syslog through 2 process "
        "shards over shm rings: partition, codec, rings and merge, no socket",
        kind="library",
        loop="closed",
        batch_size=2048,
        window=8,
        rounds_per_segment=1,
        segments_per_second=1.2,
        warmup_batches=4,
        resident_mb=384,
    ),
    Workload(
        name="entity_churn",
        why="every entity sends 2 alerts and never returns, control reset "
        "every 8192 entities: per-entity decoder setup instead of decode",
        kind="socket",
        loop="closed",
        batch_size=256,
        window=8,
        rounds_per_segment=1,
        segments_per_second=3.2,
        warmup_batches=16,
        resident_mb=256,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


# ----------------------------------------------------------------------
# Alert streams (steady_alerts, paced_latency, entity_churn)
# ----------------------------------------------------------------------
def _alert(timestamp: float, name: str, entity: str) -> dict:
    """The wire form ``Alert.to_dict`` gives a bare replayed alert."""
    return {
        "timestamp": timestamp,
        "name": name,
        "entity": entity,
        "source_ip": "",
        "host": "",
        "monitor": "",
        "attributes": {},
    }


def _steady_slots(n_slots: int) -> Iterator[int]:
    """Slot visiting order: a staggering pre-roll, then round-robin.

    With strict round-robin every entity's window fills -- and its
    two-stack sliding aggregate flips -- in the same batch, so one
    batch in ``MAX_WINDOW`` costs double and segments turn bimodal.
    The pre-roll visits slot ``s`` an extra ``s % MAX_WINDOW`` times,
    which spreads the flips evenly over all later batches.
    """
    for extra in range(MAX_WINDOW - 1):
        for slot in range(n_slots):
            if slot % MAX_WINDOW > extra:
                yield slot
    yield from itertools.cycle(range(n_slots))


def steady_alert_batches(
    seed: int, n_batches: int, batch_size: int
) -> Iterator[List[dict]]:
    """Round-robin benign-heavy stream with ~2% chain-walking entities.

    256 entity slots are visited in :func:`_steady_slots` order,
    ``batch_size`` per batch.  Five slots (2%) are attackers: each
    walks a catalogue pattern one alert per visit under a fresh entity
    name, then starts another, so detections keep firing for the whole
    run instead of only until the first five entities are flagged (a
    detected entity short-circuits all later inference).
    """
    rng = np.random.default_rng([seed, 1])
    patterns = list(DEFAULT_CATALOGUE)
    n_slots = 256
    attackers = {
        int(slot): {"stem": f"user:a{seed % 1000:03d}-{index}", "walked": 0, "todo": []}
        for index, slot in enumerate(
            rng.choice(n_slots, size=n_slots // 50, replace=False)
        )
    }
    slots = _steady_slots(n_slots)
    step = 0
    for _ in range(n_batches):
        names = rng.integers(0, len(BENIGN_NAMES), size=batch_size)
        batch: List[dict] = []
        for position in range(batch_size):
            slot = next(slots)
            attacker = attackers.get(slot)
            if attacker is None:
                name = BENIGN_NAMES[names[position]]
                entity = f"user:u{seed % 1000:03d}-{slot:03d}"
            else:
                if not attacker["todo"]:
                    attacker["walked"] += 1
                    pattern = patterns[int(rng.integers(0, len(patterns)))]
                    attacker["todo"] = list(pattern.names)
                name = attacker["todo"].pop(0)
                entity = f"{attacker['stem']}-{attacker['walked']}"
            batch.append(_alert(float(step), name, entity))
            step += 1
        yield batch


def churn_alert_batches(
    seed: int, n_batches: int, batch_size: int
) -> Iterator[List[dict]]:
    """Every entity appears in exactly one batch, with exactly 2 alerts.

    About 2% of entities download a sensitive file and then escalate
    privilege, the shortest chain the tagger flags, so the workload
    detects; the rest send two benign alerts.
    """
    rng = np.random.default_rng([seed, 5])
    chain = ("alert_download_sensitive", "alert_privilege_escalation")
    per_batch = batch_size // 2
    step = 0
    for batch_index in range(n_batches):
        names = rng.integers(0, len(BENIGN_NAMES), size=(2, per_batch))
        attackers = rng.random(per_batch) < 0.02
        batch: List[dict] = []
        for visit in range(2):
            for position in range(per_batch):
                entity = f"user:c{seed % 1000:03d}-{batch_index * per_batch + position}"
                if attackers[position]:
                    name = chain[visit]
                else:
                    name = BENIGN_NAMES[names[visit, position]]
                batch.append(_alert(float(step), name, entity))
                step += 1
        yield batch


# ----------------------------------------------------------------------
# Raw record streams (raw_scan_flood, sharded_replay)
# ----------------------------------------------------------------------
def _conn_record(
    ts: float, uid: str, orig_h: str, orig_p: int, resp_h: str, resp_p: int, host: str,
    service: str = "-", duration: float = 0.0, orig_bytes: int = 0, resp_bytes: int = 0,
    conn_state: str = "S0",
) -> dict:  # fmt: skip
    """The wire form of ``ConnRecord(...).to_raw(host)``, built directly.

    Most of a flood is connection records; going through the frozen
    dataclass, its TSV renderer and ``raw_record_to_dict`` for each
    costs more generator time than the service spends ingesting it.
    ``test_smoke.py`` holds this equal to the long way round.
    """
    return {
        "timestamp": ts,
        "monitor": "zeek",
        "host": host,
        "message": f"{ts:.6f}\t{uid}\t{orig_h}\t{orig_p}\t{resp_h}\t{resp_p}\ttcp\t"
        f"{service}\t{duration:.6f}\t{orig_bytes}\t{resp_bytes}\t{conn_state}",
        "fields": {
            "stream": "conn",
            "orig_h": orig_h,
            "resp_h": resp_h,
            "resp_p": resp_p,
            "service": service,
            "conn_state": conn_state,
            "orig_bytes": orig_bytes,
            "resp_bytes": resp_bytes,
        },
    }


def scan_flood_batches(
    seed: int, n_batches: int, batch_size: int
) -> Iterator[List[dict]]:
    """Mixed Zeek/syslog/auditd batches dominated by mass-scanner probes.

    Per batch: 85% unanswered S0 probes from 8 scanners, each sweeping
    more than ``scanner_min_targets`` distinct nodes so the scan filter
    suppresses the source; 5% completed flows no rule matches; 10% host
    events (logins, downloads, compiles, setuid) over 64 users, of
    which a handful walk login -> download -> compile -> setuid chains
    under fresh user names.
    """
    rng = np.random.default_rng([seed, 2])
    scanners = [f"203.0.{seed % 200}.{10 + k}" for k in range(8)]
    n_probe = batch_size * 85 // 100
    n_flow = batch_size * 5 // 100
    n_host = batch_size - n_probe - n_flow
    chain_user = 0
    chain_todo: List[str] = []
    step = 0
    for _ in range(n_batches):
        syslog = SyslogMonitor("login1")
        auditd = AuditdMonitor("login1")
        records = []
        ports = rng.integers(1, 1024, size=n_probe).tolist()
        first_node = int(rng.integers(0, 64))
        for position in range(n_probe):
            # Scanner k's j-th probe goes to node (first + j) % 64:
            # 54 distinct targets per scanner and batch by construction.
            scanner, sweep = position % 8, position // 8
            node = (first_node + sweep) % 64
            records.append(
                _conn_record(
                    float(step), f"C{step:08d}", scanners[scanner], 40000 + sweep,
                    f"10.1.0.{node}", ports[position], f"node{node:02d}",
                )  # fmt: skip
            )
            step += 1
        for _ in range(n_flow):
            records.append(
                _conn_record(
                    float(step), f"C{step:08d}", f"10.2.{step % 250}.{step % 199}", 50000,
                    "10.1.0.200", 443, "zeek-manager", service="ssl", duration=1.5,
                    orig_bytes=1200, resp_bytes=48000, conn_state="SF",
                )  # fmt: skip
            )
            step += 1
        users = rng.integers(0, 64, size=n_host)
        kinds = rng.integers(0, 4, size=n_host)
        for position in range(n_host):
            timestamp = float(step)
            if position % 16 == 0:
                # One chain step per 16 host events.
                if not chain_todo:
                    chain_user += 1
                    chain_todo = ["login", "download", "compile", "setuid"]
                user, kind = f"mallory{seed % 1000}x{chain_user}", chain_todo.pop(0)
            else:
                user = f"user{int(users[position]):02d}"
                kind = ("login", "login", "download", "job")[int(kinds[position])]
            if kind == "login":
                syslog.sshd_accepted(
                    timestamp, user, f"10.{step % 251}.{step % 241}.{step % 239}"
                )
                record = syslog.records[-1]
            elif kind == "download":
                syslog.wget_download(
                    timestamp, user, f"http://64.215.{step % 200}.18/abs.c"
                )
                record = syslog.records[-1]
            elif kind == "compile":
                syslog.command_executed(timestamp, user, f"gcc -o p{step} p.c")
                record = syslog.records[-1]
            elif kind == "setuid":
                auditd.setuid_transition(timestamp, user)
                record = auditd.records[-1]
            else:
                auditd.execve(timestamp, user, "/usr/bin/sbatch", "job.sh")
                record = auditd.records[-1]
            records.append(raw_record_to_dict(record))
            step += 1
        yield [records[index] for index in rng.permutation(len(records)).tolist()]


#: sharded_replay block pattern (after bench_pipeline_overlap): even
#: blocks rotate segments round-robin over the shards, odd blocks run
#: each segment as a 2-deep same-shard burst.  Blocks are 4 batches, so
#: every 8-batch ``ingest_raw_stream`` call holds one block of each kind
#: and the calls cost alike; with the original 8-batch blocks, calls
#: alternated between two costs 25% apart and their median sat in the gap.
REPLAY_SHARDS = 2
REPLAY_BLOCK = 4
REPLAY_CLUSTER = 2


def _shard_users(seed: int, per_shard: int) -> List[List[str]]:
    """Usernames bucketed by the shard their alert entity routes to."""
    buckets: List[List[str]] = [[] for _ in range(REPLAY_SHARDS)]
    user_id = 0
    while min(len(bucket) for bucket in buckets) < per_shard:
        name = f"r{seed % 1000:03d}user{user_id:04d}"
        buckets[shard_of(f"user:{name}", REPLAY_SHARDS)].append(name)
        user_id += 1
    return buckets


def replay_record_batches(seed: int, n_batches: int, batch_size: int) -> Iterator[list]:
    """Bursty time-ordered syslog batches with shard-aligned segments.

    Each batch draws its records from one six-user segment whose users
    all route to one of the two shards, so a batch's detection work
    lands on a single worker; blocks alternate between round-robin and
    same-shard bursts and the long-run load is balanced.  Three in four
    records are logins from distinct source IPs (dedup keeps them),
    one in four a sensitive download; each shard's dedicated attacker
    adds a download + compile pair per batch, which completes a
    detectable chain.
    """
    rng = np.random.default_rng([seed, 4])
    users_per_segment = 6
    buckets = _shard_users(seed, users_per_segment * 2 + 1)
    monitor = SyslogMonitor("internal-host")
    step = 0
    for batch_index in range(n_batches):
        block, pos = divmod(batch_index, REPLAY_BLOCK)
        if block % 2 == 0:
            shard = pos % REPLAY_SHARDS
        else:
            shard = (block // 2 + pos // REPLAY_CLUSTER) % REPLAY_SHARDS
        rotation = batch_index // (REPLAY_SHARDS * REPLAY_CLUSTER)
        bucket = buckets[shard]
        users = [
            bucket[(rotation * users_per_segment + k) % (users_per_segment * 2)]
            for k in range(users_per_segment)
        ]
        attacker = bucket[users_per_segment * 2]
        start = len(monitor.records)
        octets = rng.integers(1, 250, size=batch_size)
        for position in range(batch_size):
            timestamp = float(step)
            user = users[step % users_per_segment]
            if position == batch_size - 2:
                monitor.wget_download(
                    timestamp, attacker, f"http://64.215.{step % 200}.18/abs.c"
                )
            elif position == batch_size - 1:
                monitor.command_executed(
                    timestamp, attacker, f"gcc -o payload{step} payload.c"
                )
            elif step % 4 == 0:
                monitor.wget_download(
                    timestamp, user, f"http://64.215.{step % 200}.18/abs.c"
                )
            else:
                monitor.sshd_accepted(
                    timestamp,
                    user,
                    f"10.{int(octets[position])}.{step % 241}.{step % 239}",
                )
            step += 1
        yield monitor.records[start:]


# ----------------------------------------------------------------------
# Step streams for the socket workloads
# ----------------------------------------------------------------------
_RESET_LINE = encode_message({"op": "control", "verb": "reset"})


def socket_steps(workload: Workload, seed: int, n_batches: int) -> List[Step]:
    """Pre-encoded request lines for one socket workload, in send order."""
    if workload.name == "raw_scan_flood":
        op, key = "raw", "records"
        batches = scan_flood_batches(seed, n_batches, workload.batch_size)
    else:
        op, key = "batch", "alerts"
        generator = (
            churn_alert_batches
            if workload.name == "entity_churn"
            else steady_alert_batches
        )
        batches = generator(seed, n_batches, workload.batch_size)
    churn_batches = CHURN_RESET_ENTITIES // max(1, workload.batch_size // 2)
    steps: List[Step] = []
    for index, batch in enumerate(batches):
        payload = {"op": op, key: batch}
        steps.append(
            Step(
                encode_message(payload),
                len(batch),
                payload if index < workload.prefix_batches else None,
            )
        )
        if workload.name == "entity_churn" and (index + 1) % churn_batches == 0:
            steps.append(Step(_RESET_LINE, 0))
    return steps


__all__ = [
    "BENIGN_NAMES",
    "BY_NAME",
    "CHURN_RESET_ENTITIES",
    "MAX_WINDOW",
    "PACED_RATE",
    "REPLAY_SHARDS",
    "Step",
    "WORKLOADS",
    "Workload",
    "replay_record_batches",
    "socket_steps",
]
