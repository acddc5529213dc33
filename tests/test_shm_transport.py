"""Property tests for the flat shm codec and the per-shard ring buffer.

The process carrier's wire has two halves with independently checkable
contracts:

* :func:`repro.core.alerts.encode_alert_columns` /
  :func:`~repro.core.alerts.decode_alert_columns` must round-trip any
  packable batch byte-exactly -- the decoded columns must rebuild (via
  :func:`~repro.core.alerts.unpack_alert_columns`) exactly the alerts
  an in-process shard would have been handed, for arbitrary unicode field
  values and arbitrarily nested attribute payloads.
* :class:`repro.testbed.shm_ring.ShardRing` must honour its SPSC
  allocation contract at exact-capacity boundaries: wraparound reuses
  offset 0 only when no in-flight region overlaps, releases are
  FIFO-strict, and anything that cannot be placed signals fallback by
  returning ``None`` instead of corrupting in-flight payloads.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alerts import (
    ALERT_COLUMNS_MAGIC,
    Alert,
    AlertColumnsCodecError,
    decode_alert_columns,
    encode_alert_columns,
    pack_alert_columns,
    unpack_alert_columns,
)
from repro.testbed.shm_ring import DEFAULT_RING_CAPACITY, SEGMENT_PREFIX, ShardRing

# hypothesis' default text alphabet already excludes surrogates (the
# one codepoint class UTF-8 cannot carry); everything else -- astral
# plane, combining marks, NULs, bidi controls -- is fair game.
_field_text = st.text(max_size=40)

# Attribute values: everything the tagged binary encoding supports,
# recursively.  NaN is excluded here only because ``x == x`` fails for
# it; the bit-pattern round-trip is pinned by a dedicated test below.
_attr_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | _field_text
    | st.binary(max_size=32),
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
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
    """Alert tuples including attributes (``Alert.__eq__`` skips them)."""
    return [
        (
            a.timestamp,
            a.name,
            a.entity,
            a.source_ip,
            a.host,
            a.monitor,
            dict(a.attributes),
        )
        for a in alerts
    ]


class TestCodecRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_alerts, max_size=8))
    def test_round_trip_rebuilds_the_exact_batch(self, alerts):
        columns = pack_alert_columns(alerts)
        decoded = decode_alert_columns(encode_alert_columns(columns))
        assert tuple(decoded) == tuple(columns)
        assert _as_comparable(unpack_alert_columns(decoded)) == _as_comparable(
            unpack_alert_columns(columns)
        )
        assert _as_comparable(unpack_alert_columns(decoded)) == _as_comparable(alerts)

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
        assert unpack_alert_columns(decoded) == []

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

    def test_unicode_fields_survive(self):
        alerts = [
            Alert(
                0.0,
                "alert_\U0001f512",
                "user:élève",
                source_ip="☃",
                host="büro-7",
                monitor="zéek",
                attributes={"ключ": ["\U0001f4a5", b"\x00\xff"]},
            )
        ]
        columns = pack_alert_columns(alerts)
        decoded = decode_alert_columns(encode_alert_columns(columns))
        assert _as_comparable(unpack_alert_columns(decoded)) == _as_comparable(alerts)


class TestCodecRejections:
    """Unsupported payloads must raise the codec error (-> pickle path)."""

    def test_non_float_timestamp(self):
        columns = pack_alert_columns([Alert(1.0, "alert_a", "user:alice")])
        bad = ((1,),) + tuple(columns[1:])  # int timestamp
        with pytest.raises(AlertColumnsCodecError):
            encode_alert_columns(bad)

    def test_unsupported_attribute_type(self):
        alerts = [Alert(1.0, "alert_a", "user:alice", attributes={"k": {1, 2}})]
        with pytest.raises(AlertColumnsCodecError):
            encode_alert_columns(pack_alert_columns(alerts))

    def test_non_string_attribute_key(self):
        alerts = [Alert(1.0, "alert_a", "user:alice", attributes={"k": {1: "v"}})]
        with pytest.raises(AlertColumnsCodecError):
            encode_alert_columns(pack_alert_columns(alerts))

    def test_surrogate_in_string_field(self):
        columns = pack_alert_columns([Alert(1.0, "alert_a", "user:alice")])
        bad = (columns[0], ("alert_\ud800",)) + tuple(columns[2:])
        with pytest.raises(AlertColumnsCodecError):
            encode_alert_columns(bad)

    def test_bad_magic_rejected_on_decode(self):
        payload = encode_alert_columns(pack_alert_columns([]))
        with pytest.raises(ValueError):
            decode_alert_columns(b"XXXX" + payload[4:])

    def test_trailing_bytes_rejected_on_decode(self):
        payload = encode_alert_columns(pack_alert_columns([]))
        with pytest.raises(ValueError):
            decode_alert_columns(payload + b"\x00")


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


class _LeakPoisonDetector:
    """Picklable detector that raises on a chosen alert name."""

    def __init__(self, poison_name: str = "alert_outbound_c2") -> None:
        self.poison_name = poison_name
        self._detections: list = []

    @property
    def detections(self) -> list:
        return list(self._detections)

    def observe(self, alert):
        if alert.name == self.poison_name:
            raise ValueError(f"poisoned alert: {alert.name}")
        return None

    def observe_batch(self, alerts):
        found = []
        for alert in alerts:
            detection = self.observe(alert)
            if detection is not None:
                found.append(detection)
        return found

    def reset(self) -> None:
        self._detections.clear()

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
        kwargs.setdefault("max_inflight", 2)
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
            max_inflight=2,
            restart_policy="restore",
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
        pool = self._shm_pool(restart_policy="restore")
        pool.observe_batch(_benign(8))
        names = self._ring_names(pool)
        pool._workers[0].process.kill()
        pool._workers[0].process.join(timeout=5.0)
        pool.observe_batch(_benign(8))  # heals through the dead shard
        assert [e for e in pool.recovery_log.for_shard(0) if e.healed]
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

    def test_codec_miss_travels_as_pickled_columns_bit_identically(self):
        """An attribute outside the codec's type set takes the pipe."""
        from repro.core import AttackTagger
        from repro.incidents import DEFAULT_CATALOGUE
        from repro.testbed import ShardedDetectorPool

        names = list(DEFAULT_CATALOGUE)[0].names
        alerts = [
            Alert(
                float(i) * 300.0,
                name,
                "user:eve",
                # complex pickles, but the flat codec has no tag for it
                attributes={"odd": complex(i, 1)} if i == 1 else {},
            )
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
        assert [dict(d.trigger.attributes) for d in found] == [
            dict(d.trigger.attributes) for d in expected
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
                max_inflight=2,
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
