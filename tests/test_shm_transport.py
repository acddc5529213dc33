"""Property tests for the flat shm codec and the per-shard ring buffer.

The process carrier's wire has two halves with independently checkable
contracts:

* :func:`repro.core.alerts.encode_alert_columns` /
  :func:`~repro.core.alerts.decode_alert_columns` must round-trip any
  batch whose attributes the service's JSON wire could carry
  bit-exactly -- the decoded columns must rebuild (via
  :meth:`~repro.core.alerts.NormalizedBatch.of_columns`) exactly the alerts
  an in-process shard would have been handed, for arbitrary unicode
  field values and nested JSON attribute payloads -- must refuse
  everything else with :class:`~repro.core.alerts.AlertColumnsCodecError`
  (the pool then ships pickled columns), and must answer any malformed
  buffer with that error and nothing else.
* :class:`repro.testbed.shm_ring.ShardRing` must honour its SPSC
  allocation contract at exact-capacity boundaries: wraparound reuses
  offset 0 only when no in-flight region overlaps, releases are
  FIFO-strict, and anything that cannot be placed signals fallback by
  returning ``None`` instead of corrupting in-flight payloads.
"""

from __future__ import annotations

import json
import math
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alerts import (
    ALERT_COLUMNS_MAGIC,
    Alert,
    AlertColumnsCodecError,
    NormalizedBatch,
    decode_alert_columns,
    encode_alert_columns,
    pack_alert_columns,
)
from repro.core.detector import Detector
from repro.testbed.shm_ring import DEFAULT_RING_CAPACITY, SEGMENT_PREFIX, ShardRing

from ring_leaks import leaked_segments

# hypothesis' default text alphabet already excludes surrogates (the
# one codepoint class UTF-8 cannot carry); everything else -- astral
# plane, combining marks, NULs, bidi controls -- is fair game, and the
# sampled edge strings make NUL and astral text common.
_field_text = st.text(max_size=40) | st.sampled_from(
    ["", "\x00", "a\x00b", "\U0001f512", "user:\U0001f4a5\x00"]
)

# Attribute values: the JSON-exact set, recursively, with +-0.0 and
# +-inf made common.  NaN is excluded here only because ``x == x``
# fails for it (its bits are pinned by dedicated tests below).
_attr_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf])
    | _field_text,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_field_text, children, max_size=3),
    max_leaves=12,
)

_alerts = st.builds(
    Alert,
    timestamp=st.floats(allow_nan=False),
    name=_field_text,
    entity=_field_text,
    source_ip=_field_text,
    host=_field_text,
    monitor=_field_text,
    attributes=st.dictionaries(_field_text, _attr_values, max_size=4),
)


def _as_comparable(alerts):
    """Alert tuples including attributes (``Alert.__eq__`` skips them).

    ``repr`` tells ``-0.0`` from ``0.0`` and ``True`` from ``1``, which
    ``==`` does not.
    """
    return [
        (
            a.timestamp,
            a.name,
            a.entity,
            a.source_ip,
            a.host,
            a.monitor,
            repr(dict(a.attributes)),
        )
        for a in alerts
    ]


def _round_trip(alerts):
    columns = pack_alert_columns(alerts)
    decoded = decode_alert_columns(encode_alert_columns(columns))
    assert repr(tuple(decoded)) == repr(tuple(columns))
    return decoded


def _with_document(document: bytes) -> bytes:
    """A one-alert payload whose attribute column is ``document``.

    The attribute column is the payload's tail: a u32 size and the
    JSON text.
    """
    payload = encode_alert_columns(
        pack_alert_columns([Alert(1.0, "alert_a", "user:alice", attributes={"k": 0})])
    )
    tail = b'[{"k":0}]'
    assert payload.endswith(struct.pack("<I", len(tail)) + tail)
    head = payload[: -len(tail) - 4]
    return head + struct.pack("<I", len(document)) + document


class TestCodecRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_alerts, max_size=8))
    def test_round_trip_rebuilds_the_exact_batch(self, alerts):
        decoded = _round_trip(alerts)
        assert _as_comparable(NormalizedBatch.of_columns(decoded).alerts()) == _as_comparable(alerts)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_alerts, max_size=8))
    def test_encoding_is_deterministic(self, alerts):
        columns = pack_alert_columns(alerts)
        assert encode_alert_columns(columns) == encode_alert_columns(columns)

    def test_empty_batch(self):
        columns = pack_alert_columns([])
        payload = encode_alert_columns(columns)
        decoded = decode_alert_columns(payload)
        assert tuple(decoded) == tuple(columns)
        assert NormalizedBatch.of_columns(decoded).alerts() == []

    def test_attributes_elision_is_preserved(self):
        alerts = [Alert(1.0, "alert_a", "user:alice"), Alert(2.0, "alert_b", "host:h")]
        columns = pack_alert_columns(alerts)
        assert columns[-1] is None  # no attributes anywhere -> column elided
        payload = encode_alert_columns(columns)
        magic, flags, count = struct.unpack_from("<4sBI", payload)
        assert magic == ALERT_COLUMNS_MAGIC
        assert flags & 1 == 0  # has-attributes bit clear
        assert count == 2
        assert decode_alert_columns(payload)[-1] is None

    def test_attributes_presence_sets_the_flag(self):
        alerts = [Alert(1.0, "alert_a", "user:alice", attributes={"k": 1})]
        payload = encode_alert_columns(pack_alert_columns(alerts))
        _, flags, _ = struct.unpack_from("<4sBI", payload)
        assert flags & 1 == 1

    def test_nan_timestamp_round_trips_bit_exact(self):
        nan = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0]
        columns = pack_alert_columns([Alert(nan, "alert_a", "user:alice")])
        decoded = decode_alert_columns(encode_alert_columns(columns))
        (timestamp,) = decoded[0]
        assert math.isnan(timestamp)
        assert struct.pack("<d", timestamp) == struct.pack("<d", nan)

    def test_json_nan_attribute_round_trips_bit_exact(self):
        """The NaN ``json.loads`` builds is the one NaN the column carries."""
        nan = json.loads("NaN")
        decoded = _round_trip([Alert(1.0, "alert_a", "user:alice", attributes={"x": [nan]})])
        (value,) = decoded[-1][0]["x"]
        assert struct.pack("<d", value) == struct.pack("<d", nan)

    def test_unicode_fields_survive(self):
        alerts = [
            Alert(
                0.0,
                "alert_\U0001f512",
                "user:élève\x00",
                source_ip="☃",
                host="büro-7",
                monitor="zéek",
                attributes={"ключ\x00": ["\U0001f4a5", "\x00"], "\U0001f512": {"": None}},
            )
        ]
        decoded = _round_trip(alerts)
        assert _as_comparable(NormalizedBatch.of_columns(decoded).alerts()) == _as_comparable(alerts)

    @pytest.mark.parametrize(
        "names",
        [("ab", "ab", "ab"), ("ab", "ba", "ab"), ("aa", "a", "aaa"), ("a", "aa", "a")],
    )
    def test_repeated_and_look_alike_string_columns(self, names):
        """``"aa" + "a" + "aaa"`` is ``"aa" * 3`` but not one repeated value."""
        decoded = _round_trip([Alert(float(i), n, "user:x") for i, n in enumerate(names)])
        assert decoded[1] == names

    def test_long_first_value_decodes_without_a_large_allocation(self):
        """Decoding allocates about the blob, never count x longest value."""
        count, longest = 4096, 32 * 1024
        names = ["n" * longest] + [""] * (count - 1)
        payload = encode_alert_columns(
            pack_alert_columns([Alert(float(i), n, "user:x") for i, n in enumerate(names)])
        )
        tracemalloc.start()
        try:
            decoded = decode_alert_columns(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(decoded[1]) == names
        # count x longest is 128 MiB; the payload itself is ~130 KiB.
        assert peak < 4 * 1024 * 1024

    def test_json_edge_values_keep_their_type_and_sign(self):
        attributes = {
            "zeros": [0.0, -0.0],
            "infinities": {"up": math.inf, "down": -math.inf},
            "flags": [True, False, 1, 0, None],
            "big": -(10**4000),
            "lone": "\ud800",  # a surrogate the wire's \\ud800 escape carries
        }
        decoded = _round_trip([Alert(1.0, "alert_a", "user:alice", attributes=attributes)])
        (mapping,) = decoded[-1]
        assert math.copysign(1.0, mapping["zeros"][1]) == -1.0
        assert [type(v) for v in mapping["flags"]] == [bool, bool, int, int, type(None)]


class _Odd(int):
    """An ``int`` subclass: JSON would bring it back as a plain ``int``."""


#: Values the JSON wire cannot carry exactly, each wrapped at three depths.
_REJECTED = {
    "bytes": b"\x00\xff",
    "tuple": ("a", 1),
    "set": {1, 2},
    "complex": complex(1, 2),
    "non-str-key": {1: "v"},
    "int-subclass": _Odd(3),
    "int-past-str-limit": 10**5000,
    "foreign-nan": -math.nan,
}


class TestCodecRejections:
    """Unsupported payloads must raise the codec error (-> pickle path)."""

    def test_non_float_timestamp(self):
        columns = pack_alert_columns([Alert(1.0, "alert_a", "user:alice")])
        bad = ((1,),) + tuple(columns[1:])  # int timestamp
        with pytest.raises(AlertColumnsCodecError):
            encode_alert_columns(bad)

    @pytest.mark.parametrize("name", sorted(_REJECTED))
    @pytest.mark.parametrize(
        "wrap",
        [lambda v: v, lambda v: ["ok", v], lambda v: {"a": [{"b": v}]}],
        ids=["flat", "in-list", "nested"],
    )
    def test_values_outside_the_json_wire_are_refused(self, name, wrap):
        alerts = [
            Alert(1.0, "alert_a", "user:alice", attributes={"plain": "x"}),
            Alert(2.0, "alert_a", "user:bob", attributes={"k": wrap(_REJECTED[name])}),
        ]
        with pytest.raises(AlertColumnsCodecError):
            encode_alert_columns(pack_alert_columns(alerts))

    def test_non_string_top_level_key(self):
        alerts = [Alert(1.0, "alert_a", "user:alice", attributes={("k",): "v"})]
        with pytest.raises(AlertColumnsCodecError):
            encode_alert_columns(pack_alert_columns(alerts))

    @pytest.mark.parametrize("lists", [99, 100, 5000])
    def test_deep_nesting_is_refused_not_a_recursion_error(self, lists):
        """The attribute dict plus 99 lists is the deepest batch admitted."""
        nested: list = []
        for _ in range(lists - 1):
            nested = [nested]
        alerts = [Alert(1.0, "alert_a", "user:alice", attributes={"k": nested})]
        if lists == 99:
            _round_trip(alerts)
            return
        with pytest.raises(AlertColumnsCodecError):
            encode_alert_columns(pack_alert_columns(alerts))

    def test_surrogate_in_string_field(self):
        columns = pack_alert_columns([Alert(1.0, "alert_a", "user:alice")])
        bad = (columns[0], ("alert_\ud800",)) + tuple(columns[2:])
        with pytest.raises(AlertColumnsCodecError):
            encode_alert_columns(bad)

    def test_bad_magic_rejected_on_decode(self):
        payload = encode_alert_columns(pack_alert_columns([]))
        with pytest.raises(AlertColumnsCodecError):
            decode_alert_columns(b"XXXX" + payload[4:])

    def test_trailing_bytes_rejected_on_decode(self):
        payload = encode_alert_columns(pack_alert_columns([]))
        with pytest.raises(AlertColumnsCodecError):
            decode_alert_columns(payload + b"\x00")


_CORRUPTIBLE = encode_alert_columns(
    pack_alert_columns(
        [
            Alert(
                float(i),
                f"alert_{i}",
                f"user:u{i}\U0001f512",
                source_ip=f"10.0.0.{i}",
                host="login1",
                monitor="syslog",
                attributes={"pid": 4000 + i, "args": ["-x", i, 0.5], "ok": i % 2 == 0},
            )
            for i in range(6)
        ]
    )
)


class TestCorruptBuffers:
    """A malformed buffer is an :class:`AlertColumnsCodecError`, nothing else."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(["truncate", "flip", "insert"]),
        st.integers(0, len(_CORRUPTIBLE) - 1),
        st.integers(1, 255),
    )
    def test_corrupted_payloads_raise_only_the_codec_error(self, how, at, byte):
        if how == "truncate":
            corrupted = _CORRUPTIBLE[:at]
        elif how == "flip":
            corrupted = (
                _CORRUPTIBLE[:at] + bytes((_CORRUPTIBLE[at] ^ byte,)) + _CORRUPTIBLE[at + 1 :]
            )
        else:
            corrupted = _CORRUPTIBLE[:at] + bytes((byte,)) + _CORRUPTIBLE[at:]
        try:
            decode_alert_columns(memoryview(corrupted))
        except AlertColumnsCodecError:
            pass

    @pytest.mark.parametrize(
        "document",
        [
            b'[{"k":' + b"[" * 5000 + b"]" * 5000 + b"}]",
            b'[{"k":1' + b"0" * 5000 + b"}]",
            b'[{"k":1}, 2]',
            b'{"k":1}',
            b"[]",
            b"\xff",
        ],
        ids=["deep", "long-int", "non-dict", "not-a-list", "short", "not-ascii"],
    )
    def test_hostile_attribute_documents(self, document):
        with pytest.raises(AlertColumnsCodecError):
            decode_alert_columns(_with_document(document))


# Any JSON value, surrogate escapes and NaN included: what a ``batch``
# line's attributes can hold once the service has parsed it.
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(st.characters(blacklist_categories=()), max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=12,
)

_wire_alerts = st.fixed_dictionaries(
    {
        "timestamp": st.floats(allow_nan=False, allow_infinity=False),
        "name": st.text(max_size=20),
        "entity": st.text(max_size=20),
        "source_ip": st.text(max_size=20),
        "attributes": st.dictionaries(st.text(max_size=8), _json_values, max_size=4),
    }
)


class TestRealTrafficStaysOnTheRing:
    """What the service and the normaliser build never needs the pipe."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_wire_alerts, max_size=6))
    def test_what_a_batch_line_parses_to_encodes(self, alerts):
        from repro.service.protocol import decode_line, parse_request

        line = json.dumps({"op": "batch", "alerts": alerts}).encode("utf-8") + b"\n"
        columns = pack_alert_columns(parse_request(decode_line(line)).alerts)
        decoded = decode_alert_columns(encode_alert_columns(columns))
        assert repr(tuple(decoded)) == repr(tuple(columns))

    def test_what_the_normaliser_emits_encodes(self):
        import ingest_corpus
        from repro.telemetry import AlertNormalizer

        alerts = AlertNormalizer().normalize_stream(ingest_corpus.build_corpus())
        columns = pack_alert_columns(alerts)
        assert columns[-1] is not None
        _round_trip(alerts)


class TestShardRing:
    def test_exact_capacity_write_fills_the_ring(self):
        ring = ShardRing.create(capacity=64)
        try:
            offset = ring.write(b"a" * 64)
            assert offset == 0
            assert ring.view(0, 64) == b"a" * 64
            assert ring.write(b"b") is None  # full: every byte in flight
            ring.release(0, 64)
            assert ring.write(b"b" * 64) == 0  # reusable after release
        finally:
            ring.close()

    def test_wraparound_at_the_boundary(self):
        ring = ShardRing.create(capacity=64)
        try:
            assert ring.write(b"a" * 40) == 0
            assert ring.write(b"b" * 24) == 40  # exact fit at the end
            ring.release(0, 40)
            # Head sits at 64 == capacity; the next write must wrap to
            # offset 0, which region (40, 24) does not overlap.
            assert ring.write(b"c" * 40) == 0
            assert ring.view(40, 24) == b"b" * 24  # in-flight survived
            assert ring.view(0, 40) == b"c" * 40
            # 25 bytes would land on [40, 65) head-side and overlap
            # (0, 40) after wrapping: unplaceable -> fallback.
            assert ring.write(b"d" * 25) is None
        finally:
            ring.close()

    def test_oversized_payload_forces_fallback(self):
        ring = ShardRing.create(capacity=64)
        try:
            assert ring.write(b"x" * 65) is None
            assert ring.inflight_regions == 0
        finally:
            ring.close()

    def test_release_is_fifo_strict(self):
        ring = ShardRing.create(capacity=64)
        try:
            ring.write(b"a" * 8)
            ring.write(b"b" * 8)
            with pytest.raises(ValueError):
                ring.release(8, 8)  # second region first: rejected
            ring.release(0, 8)
            ring.release(8, 8)
            assert ring.inflight_regions == 0
        finally:
            ring.close()

    def test_attach_sees_owner_writes(self):
        ring = ShardRing.create(capacity=64)
        try:
            ring.write(b"payload!")
            reader = ShardRing.attach(ring.name)
            try:
                assert reader.view(0, 8) == b"payload!"
                with pytest.raises(ValueError):
                    reader.write(b"nope")  # reader side must not write
            finally:
                reader.close()
        finally:
            ring.close()

    def test_segment_name_carries_the_leak_hunting_prefix(self):
        ring = ShardRing.create(capacity=64)
        try:
            assert ring.name.startswith(SEGMENT_PREFIX)
        finally:
            ring.close()

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=48), max_size=24))
    def test_write_release_never_corrupts_inflight_payloads(self, lengths):
        """Under arbitrary write/release interleaving (bounded depth 3),
        every in-flight payload reads back exactly as written."""
        ring = ShardRing.create(capacity=64)
        inflight: list[tuple[int, int, bytes]] = []
        try:
            for index, length in enumerate(lengths):
                while len(inflight) >= 3:
                    offset, size, _ = inflight.pop(0)
                    ring.release(offset, size)
                payload = bytes([index % 251 + 1]) * length
                offset = ring.write(payload)
                if offset is None:
                    continue  # fallback signalled; ring state unchanged
                inflight.append((offset, length, payload))
                for o, s, expected in inflight:
                    assert ring.view(o, s) == expected
            assert ring.inflight_regions == len(inflight)
        finally:
            ring.close()


class _LeakPoisonDetector(Detector):
    """Picklable detector that raises on a chosen alert name."""

    def __init__(self, poison_name: str = "alert_outbound_c2") -> None:
        self.poison_name = poison_name

    def observe(self, alert):
        if alert.name == self.poison_name:
            raise ValueError(f"poisoned alert: {alert.name}")
        return None

    def reset(self) -> None:
        pass

    def reset_entity(self, entity: str) -> None:
        pass

    def clone(self) -> "_LeakPoisonDetector":
        return _LeakPoisonDetector(self.poison_name)


class _LeakSleepingDetector(_LeakPoisonDetector):
    """Wedges instead of raising -- forces close() escalation."""

    def observe(self, alert):
        if alert.name == self.poison_name:
            import time

            time.sleep(60.0)
        return None

    def clone(self) -> "_LeakSleepingDetector":
        return _LeakSleepingDetector(self.poison_name)


def _ring_segments_on_disk() -> set:
    import os

    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        }
    except OSError:  # pragma: no cover - non-POSIX /dev/shm layout
        return set()


def _benign(count: int) -> list[Alert]:
    return [
        Alert(float(i), "alert_login_normal", f"user:u{i % 4}") for i in range(count)
    ]


class TestLeakHunterCountsOnlyItsOwnSegments:
    """``ring_leaks.leaked_segments``, the autouse fixture's verdict, as a
    pure function: a segment leaks only if it appeared on disk during
    the test *and* this process registered it meanwhile."""

    BEFORE = {SEGMENT_PREFIX + "old"}
    AFTER = BEFORE | {SEGMENT_PREFIX + "ours", SEGMENT_PREFIX + "theirs"}

    def test_a_segment_this_process_registered_and_left_on_disk_leaks(self):
        assert leaked_segments(self.BEFORE, self.AFTER, {"/" + SEGMENT_PREFIX + "ours"}) == {
            SEGMENT_PREFIX + "ours"
        }

    def test_another_process_s_segment_is_not_this_test_s_leak(self):
        assert leaked_segments(self.BEFORE, self.AFTER, set()) == set()

    def test_an_unlinked_or_older_segment_is_no_leak(self):
        registered = {"/" + SEGMENT_PREFIX + "ours", "/" + SEGMENT_PREFIX + "old"}
        assert leaked_segments(self.BEFORE, self.BEFORE, registered) == set()
        assert leaked_segments(self.BEFORE, self.AFTER, {"/" + SEGMENT_PREFIX + "old"}) == set()


class TestLifecycleLeakHunting:
    """Every pool lifecycle path must unlink its rings.

    The autouse ``no_leaked_ring_segments`` fixture (tests/conftest.py)
    double-checks every test in the suite; these tests drive each
    lifecycle path explicitly and assert the segments created by *this*
    pool are gone from ``/dev/shm`` the moment the path completes.
    """

    def _shm_pool(self, factory=None, **kwargs):
        from repro.testbed import ShardedDetectorPool

        kwargs.setdefault("n_shards", 2)
        kwargs.setdefault("backend", "process")
        return ShardedDetectorPool(factory or _LeakPoisonDetector, **kwargs)

    def _ring_names(self, pool) -> set:
        return {worker.ring.name for worker in pool._workers}

    def test_close_unlinks_every_ring(self):
        pool = self._shm_pool()
        names = self._ring_names(pool)
        assert len(names) == 2
        assert names <= _ring_segments_on_disk()
        pool.observe_batch(_benign(8))
        pool.close()
        assert not names & _ring_segments_on_disk()

    def test_escalated_close_still_unlinks(self):
        pool = self._shm_pool(lambda: _LeakSleepingDetector("alert_outbound_c2"))
        names = self._ring_names(pool)
        pool.submit_batch(
            _benign(4) + [Alert(99.0, "alert_outbound_c2", "host:h0")]
        )
        result = pool.close(timeout=0.3)
        assert not result.clean  # the wedged worker was escalated ...
        assert not names & _ring_segments_on_disk()  # ... rings still unlinked

    def test_reshard_unlinks_old_rings_and_builds_new(self):
        from repro.core import AttackTagger
        from repro.testbed import ShardedDetectorPool

        pool = ShardedDetectorPool.from_template(
            AttackTagger(),
            n_shards=2,
            backend="process",
            max_restarts=3,
        )
        pool.observe_batch(_benign(8))
        old_names = self._ring_names(pool)
        pool.reshard(3)
        new_names = self._ring_names(pool)
        assert len(new_names) == 3
        assert not old_names & new_names
        assert not old_names & _ring_segments_on_disk()
        pool.observe_batch(_benign(8))
        pool.close()
        assert not new_names & _ring_segments_on_disk()

    def test_crash_and_heal_does_not_leak(self):
        pool = self._shm_pool(max_restarts=3)
        pool.observe_batch(_benign(8))
        names = self._ring_names(pool)
        pool._workers[0].process.kill()
        pool._workers[0].process.join(timeout=5.0)
        pool.observe_batch(_benign(8))  # heals through the dead shard
        assert [e for e in pool.recovery_log if e.shard == 0 and e.healed]
        assert self._ring_names(pool) == names  # heal re-attaches, no churn
        pool.close()
        assert not names & _ring_segments_on_disk()

    def test_pipeline_exit_on_error_unlinks(self):
        from repro.testbed import ShardWorkerError, TestbedPipeline

        poisoned = _benign(4) + [Alert(99.0, "alert_outbound_c2", "host:h0")]
        names: set = set()
        with pytest.raises(ShardWorkerError):
            with TestbedPipeline(
                detectors={"poison": _LeakPoisonDetector()},
                n_shards=2,
                shard_backend="process",
                max_inflight=2,
            ) as pipeline:
                names = self._ring_names(pipeline.detector_pools["poison"])
                assert len(names) == 2
                pipeline.ingest_alerts(poisoned)
        assert not names & _ring_segments_on_disk()


class TestPoolFallback:
    """Both counted fallbacks are the only path for some input."""

    def _serial_reference(self, tagger, *batches):
        from repro.testbed import ShardedDetectorPool

        pool = ShardedDetectorPool.from_template(tagger, n_shards=2)
        detections = [d for batch in batches for d in pool.observe_batch(batch)]
        assert pool.shm_batches == pool.shm_fallbacks == 0  # nothing is shipped
        return detections

    @pytest.mark.parametrize(
        "odd",
        [lambda i: complex(i, 1), lambda i: bytes((i, 255)), lambda i: (i, "x")],
        ids=["complex", "bytes", "tuple"],
    )
    def test_codec_miss_travels_as_pickled_columns_bit_identically(self, odd):
        """An attribute the JSON wire cannot carry takes the pipe."""
        from repro.core import AttackTagger
        from repro.incidents import DEFAULT_CATALOGUE
        from repro.testbed import ShardedDetectorPool

        names = list(DEFAULT_CATALOGUE)[0].names
        alerts = [
            Alert(float(i) * 300.0, name, "user:eve", attributes={"odd": odd(i)})
            for i, name in enumerate(names)
        ]
        with pytest.raises(AlertColumnsCodecError):
            encode_alert_columns(pack_alert_columns(alerts))
        expected = self._serial_reference(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)), alerts
        )
        assert expected, "the chain must fire"
        pool = ShardedDetectorPool.from_template(
            AttackTagger(patterns=list(DEFAULT_CATALOGUE)), n_shards=2, backend="process"
        )
        try:
            found = pool.observe_batch(alerts)
            assert (pool.shm_batches, pool.shm_fallbacks) == (0, 1)
        finally:
            pool.close()
        assert found == expected
        assert [repr(dict(d.trigger.attributes)) for d in found] == [
            repr(dict(d.trigger.attributes)) for d in expected
        ]

    def test_tiny_ring_forces_pickle_fallback_bit_identically(self):
        """A ring too small for any batch must not change results."""
        from repro.core import AttackTagger
        from repro.testbed import ShardedDetectorPool

        alerts = [
            Alert(float(i), "alert_port_scan", f"user:u{i % 5}", source_ip="10.0.0.9")
            for i in range(20)
        ]
        results = {}
        for capacity in (DEFAULT_RING_CAPACITY, 64):
            pool = ShardedDetectorPool.from_template(
                AttackTagger(),
                n_shards=2,
                backend="process",
                ring_capacity=capacity,
            )
            try:
                detections = list(pool.observe_batch(alerts[:10]))
                detections.extend(pool.observe_batch(alerts[10:]))
                results[capacity] = (detections, pool.shm_batches, pool.shm_fallbacks)
            finally:
                pool.close()
        full_detections, full_shm, full_fallbacks = results[DEFAULT_RING_CAPACITY]
        tiny_detections, tiny_shm, tiny_fallbacks = results[64]
        assert full_shm > 0 and full_fallbacks == 0
        assert tiny_shm == 0 and tiny_fallbacks > 0
        assert tiny_detections == full_detections
        assert full_detections == self._serial_reference(
            AttackTagger(), alerts[:10], alerts[10:]
        )
