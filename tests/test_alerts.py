"""Tests for the symbolic alert vocabulary and Alert records."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alerts import (
    Alert,
    AlertCategory,
    AlertTypeSpec,
    AlertVocabulary,
    DEFAULT_VOCABULARY,
    NormalizedBatch,
    Severity,
    build_default_vocabulary,
    pack_alert_columns,
    sort_alerts,
)
from repro.core.states import AttackStage


class TestAlertTypeSpec:
    def test_requires_alert_prefix(self):
        with pytest.raises(ValueError):
            AlertTypeSpec("bad_name", AlertCategory.BENIGN, Severity.INFO, AttackStage.BACKGROUND)

    def test_critical_requires_critical_severity(self):
        with pytest.raises(ValueError):
            AlertTypeSpec(
                "alert_x", AlertCategory.MALWARE, Severity.HIGH, AttackStage.ACTIONS, critical=True
            )


class TestVocabulary:
    def test_default_vocabulary_has_19_critical_alerts(self):
        assert len(DEFAULT_VOCABULARY.critical_names()) == 19

    def test_all_critical_alerts_have_critical_severity(self):
        for name in DEFAULT_VOCABULARY.critical_names():
            assert DEFAULT_VOCABULARY.get(name).severity is Severity.CRITICAL

    def test_duplicate_registration_rejected(self):
        vocab = AlertVocabulary()
        vocab.define("alert_a", AlertCategory.BENIGN, Severity.INFO, AttackStage.BACKGROUND)
        with pytest.raises(ValueError):
            vocab.define("alert_a", AlertCategory.BENIGN, Severity.INFO, AttackStage.BACKGROUND)

    def test_index_of_is_stable_and_dense(self):
        names = DEFAULT_VOCABULARY.names()
        indices = [DEFAULT_VOCABULARY.index_of(n) for n in names]
        assert indices == list(range(len(names)))

    def test_build_default_vocabulary_is_reconstructible(self):
        vocab = build_default_vocabulary()
        assert vocab.names() == DEFAULT_VOCABULARY.names()

    def test_names_for_stage_partition(self):
        total = sum(
            len(DEFAULT_VOCABULARY.names_for_stage(stage)) for stage in AttackStage
        )
        assert total == len(DEFAULT_VOCABULARY)

    def test_contains_known_paper_alerts(self):
        for name in (
            "alert_download_sensitive",
            "alert_compile_kernel_module",
            "alert_erase_forensic_trace",
            "alert_db_largeobject_payload",
            "alert_outbound_c2",
            "alert_lateral_ssh_batch",
            "alert_pii_in_http",
            "alert_privilege_escalation",
        ):
            assert name in DEFAULT_VOCABULARY

    def test_critical_alerts_are_damage_indicators(self):
        for name in DEFAULT_VOCABULARY.critical_names():
            spec = DEFAULT_VOCABULARY.get(name)
            assert spec.severity is Severity.CRITICAL


class TestAlert:
    def test_round_trip_dict(self):
        alert = Alert(
            timestamp=123.5,
            name="alert_download_sensitive",
            entity="user:alice",
            source_ip="64.215.1.2",
            host="login00",
            monitor="syslog",
            attributes={"url": "http://64.215.1.2/abs.c"},
        )
        assert Alert.from_dict(alert.to_dict()) == alert

    def test_spec_lookup_and_criticality(self):
        alert = Alert(0.0, "alert_privilege_escalation", "user:x")
        assert alert.is_critical()
        assert alert.stage() is AttackStage.ESCALATION
        benign = Alert(0.0, "alert_login_normal", "user:x")
        assert not benign.is_critical()

    def test_with_entity_returns_copy(self):
        alert = Alert(0.0, "alert_login_normal", "user:a")
        other = alert.with_entity("user:b")
        assert other.entity == "user:b"
        assert alert.entity == "user:a"

    def test_sort_alerts(self):
        alerts = [
            Alert(5.0, "alert_login_normal", "user:a"),
            Alert(1.0, "alert_login_normal", "user:a"),
            Alert(3.0, "alert_login_normal", "user:a"),
        ]
        assert [a.timestamp for a in sort_alerts(alerts)] == [1.0, 3.0, 5.0]

    def test_unknown_alert_name_raises_on_spec(self):
        alert = Alert(0.0, "alert_not_registered", "user:a")
        with pytest.raises(KeyError):
            alert.spec()


#: Arbitrary-unicode alert batches for the columnar wire round-trip.
#: ``pack_alert_columns`` never consults the vocabulary, so names are
#: unconstrained text (surrogates excluded: they are unencodable and
#: cannot cross a process boundary anyway).
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=24
)
_timestamps = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
_attribute_values = st.one_of(
    _text, st.integers(min_value=-(2**40), max_value=2**40), st.booleans()
)
_alert_strategy = st.builds(
    Alert,
    timestamp=_timestamps,
    name=_text,
    entity=_text,
    source_ip=_text,
    host=_text,
    monitor=_text,
    attributes=st.dictionaries(_text, _attribute_values, max_size=4),
)
_batch_strategy = st.lists(_alert_strategy, min_size=0, max_size=12)


class TestAlertColumnsRoundTrip:
    """Property: the columnar wire representation is lossless."""

    @given(_batch_strategy)
    @settings(max_examples=120, deadline=None)
    def test_pack_unpack_reconstructs_alerts_exactly(self, batch):
        rebuilt = NormalizedBatch.of_columns(pack_alert_columns(batch)).alerts()
        assert rebuilt == batch
        # Alert equality excludes ``attributes`` (compare=False), so
        # exact reconstruction of the metadata is asserted separately.
        for original, copy in zip(batch, rebuilt):
            assert dict(copy.attributes) == dict(original.attributes)

    @given(_batch_strategy)
    @settings(max_examples=60, deadline=None)
    def test_attributes_column_elided_exactly_when_all_empty(self, batch):
        columns = pack_alert_columns(batch)
        if any(alert.attributes for alert in batch):
            assert columns[-1] is not None
        else:
            assert columns[-1] is None
        assert NormalizedBatch.of_columns(columns).alerts() == batch

    def test_empty_batch_round_trips(self):
        columns = pack_alert_columns([])
        assert columns[-1] is None
        assert NormalizedBatch.of_columns(columns).alerts() == []


class TestAlertInitContract:
    """``Alert`` is a frozen dataclass with the generated ``__init__``:
    signature, defaults, equality, ordering, hash, repr, frozenness and
    pickle bytes are pinned, so a hand-written replacement must keep
    every one of them."""

    FIXED = Alert(
        1234.5,
        "alert_download_sensitive",
        "user:alice",
        "64.215.1.2",
        "login00",
        "syslog",
        {"url": "http://64.215.1.2/abs.c"},
    )
    #: ``pickle.dumps(FIXED, protocol)`` sha256, recorded on the tree of
    #: commit 391d185 (whose ``Alert.__init__`` was dataclass-generated,
    #: as it is again).
    PICKLE_SHA256 = {
        2: "c3a4143c191818c3c982ca67a418d812bdaa2548e92dd98c53da2f6f73f149c4",
        4: "224ce4da5cc602e59abdb347be5b244147739a9cadb22a8bc789aff57fd691c0",
        5: "3072fa5d00cdccbf82380c6bd1a687aae507e46350547c750f60f6d309e41578",
    }

    @pytest.mark.parametrize("protocol", sorted(PICKLE_SHA256))
    def test_pickle_bytes_match_the_generated_init(self, protocol):
        blob = pickle.dumps(self.FIXED, protocol=protocol)
        assert hashlib.sha256(blob).hexdigest() == self.PICKLE_SHA256[protocol]
        restored = pickle.loads(blob)
        assert restored == self.FIXED and restored.attributes == self.FIXED.attributes

    def test_assignment_and_deletion_are_refused(self):
        alert = Alert(1.0, "alert_login_normal", "user:a")
        with pytest.raises(dataclasses.FrozenInstanceError):
            alert.name = "alert_port_scan"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del alert.entity
        with pytest.raises(dataclasses.FrozenInstanceError):
            alert.extra = 1
        assert (alert.name, alert.entity) == ("alert_login_normal", "user:a")

    def test_replace_and_with_entity_build_through_init(self):
        moved = dataclasses.replace(self.FIXED, entity="user:bob", host="login01")
        assert (moved.entity, moved.host) == ("user:bob", "login01")
        assert moved.attributes is self.FIXED.attributes  # replace shares fields
        other = self.FIXED.with_entity("user:carol")
        assert other.to_dict() == {**self.FIXED.to_dict(), "entity": "user:carol"}
        assert self.FIXED.entity == "user:alice"

    def test_equality_order_and_hash_ignore_attributes(self):
        plain = Alert(1.0, "alert_login_normal", "user:a")
        tagged = Alert(1.0, "alert_login_normal", "user:a", attributes={"k": 1})
        assert plain == tagged and hash(plain) == hash(tagged)
        assert not plain < tagged and not tagged < plain
        later = Alert(2.0, "alert_login_normal", "user:a", attributes={"k": 0})
        assert plain < later and sorted([later, tagged]) == [tagged, later]
        assert Alert(1.0, "a", "e", "s") != Alert(1.0, "a", "e", "t")

    def test_omitted_attributes_are_a_fresh_dict_and_given_ones_are_kept(self):
        first = Alert(1.0, "alert_login_normal", "user:a")
        second = Alert(1.0, "alert_login_normal", "user:a")
        assert first.attributes == {} and second.attributes == {}
        assert first.attributes is not second.attributes
        given_attributes = {"k": 1}
        assert Alert(1.0, "n", "e", attributes=given_attributes).attributes is given_attributes
        assert Alert(1.0, "n", "e", "", "", "", given_attributes).attributes is given_attributes

    def test_signature_fields_asdict_and_repr_are_the_dataclass_ones(self):
        parameters = inspect.signature(Alert).parameters
        assert list(parameters) == [
            "timestamp", "name", "entity", "source_ip", "host", "monitor", "attributes"
        ]
        assert [parameters[name].default for name in ("source_ip", "host", "monitor")] == [
            "", "", ""
        ]
        fields = dataclasses.fields(Alert)
        assert [(f.name, f.compare) for f in fields] == [
            ("timestamp", True),
            ("name", True),
            ("entity", True),
            ("source_ip", True),
            ("host", True),
            ("monitor", True),
            ("attributes", False),
        ]
        assert fields[-1].default_factory is dict
        assert list(parameters) == [f.name for f in fields]
        assert all(
            parameters[f.name].default == f.default
            for f in fields
            if f.default is not dataclasses.MISSING
        )
        assert list(vars(self.FIXED)) == [f.name for f in fields]
        assert dataclasses.asdict(self.FIXED) == self.FIXED.to_dict()
        assert repr(Alert(1.0, "n", "e")) == (
            "Alert(timestamp=1.0, name='n', entity='e', source_ip='', host='', "
            "monitor='', attributes={})"
        )
