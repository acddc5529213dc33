"""Seeded adversarial campaign composition.

A *campaign* is one reproducible multi-entity adversarial workload: an
ordered list of events, where each event is either a batch of symbolic
alerts or a detector control operation (entity reset, full reset,
detection-tier reopen) injected between batches.  Campaigns are the
unit the differential oracle (:mod:`repro.fuzz.oracle`) replays through
the full engine x shards x backend x driver configuration matrix, so
everything about them is deterministic: a campaign is a pure function
of its ``numpy.random.Generator`` seed.

:class:`CampaignComposer` assembles campaigns from the ingredients the
ROADMAP's "as many scenarios as you can imagine" north star calls for:

* concurrent attackers interleaved on shared hosts, drawn from the
  scripted :mod:`repro.attacks` scenarios and the S1..S43 pattern
  catalogue (full backbones, near-miss proper prefixes, single-step
  mutations),
* entity churn with hash-adjacent names -- several entities whose
  ``crc32`` values collide modulo the shard count, plus unicode entity
  names -- to stress shard routing,
* per-entity bursts that saturate ``max_window`` and straddle the
  two-stack eviction boundary of the amortised sliding-window decoder,
* out-of-order and duplicate-timestamp alerts,
* mid-stream ``reset_entity()`` / ``reset()`` and detection-tier
  ``close()``/reopen events.

``compose(raw_capable=True)`` restricts the alert vocabulary to names
expressible as Zeek notices so the same campaign can also be driven
through the raw-record ingestion path (``ingest_raw_stream``) and still
produce bit-identical filtered alerts -- see
:func:`repro.fuzz.oracle.alerts_to_zeek_records`.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence

import numpy as np

from ..attacks import GhostAccountScenario, StolenCredentialScenario
from ..core.alerts import Alert, AlertVocabulary, DEFAULT_VOCABULARY
from ..core.states import AttackStage
from ..incidents import DEFAULT_CATALOGUE, PatternCatalogue
from ..telemetry.normalizer import ZEEK_NOTICE_MAP

#: Event kinds a campaign may contain.
EVENT_KINDS = ("batch", "reset_entity", "reset", "reopen")

#: Alert names expressible as Zeek notices (raw-capable campaigns).
RAW_CAPABLE_NAMES: tuple[str, ...] = tuple(sorted(set(ZEEK_NOTICE_MAP.values())))


@dataclasses.dataclass(frozen=True)
class CampaignEvent:
    """One campaign event: an alert batch or a detector control."""

    kind: str
    alerts: tuple[Alert, ...] = ()
    entity: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown campaign event kind: {self.kind!r}")
        if self.kind != "batch" and self.alerts:
            raise ValueError(f"{self.kind} events carry no alerts")
        if self.kind == "reset_entity" and not self.entity:
            raise ValueError("reset_entity events need an entity")

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        data: dict[str, Any] = {"kind": self.kind}
        if self.kind == "batch":
            data["alerts"] = [alert.to_dict() for alert in self.alerts]
        elif self.kind == "reset_entity":
            data["entity"] = self.entity
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignEvent":
        """Inverse of :meth:`to_dict`."""
        kind = str(data["kind"])
        if kind == "batch":
            return cls(
                kind="batch",
                alerts=tuple(Alert.from_dict(a) for a in data.get("alerts", [])),
            )
        return cls(kind=kind, entity=str(data.get("entity", "")))


@dataclasses.dataclass(frozen=True)
class Campaign:
    """One reproducible adversarial workload.

    ``max_window`` and ``detection_threshold`` are campaign properties
    (not oracle configuration): every replayed configuration uses the
    same detector hyper-parameters, so small windows make the eviction
    boundary cheap to cross without thousand-alert bursts.
    """

    seed: int
    events: tuple[CampaignEvent, ...]
    max_window: int = 64
    detection_threshold: float = 0.5
    raw_capable: bool = False
    label: str = ""

    def alerts(self) -> list[Alert]:
        """Every alert in the campaign, in stream (event) order."""
        out: list[Alert] = []
        for event in self.events:
            out.extend(event.alerts)
        return out

    @property
    def num_alerts(self) -> int:
        """Total number of alerts across all batch events."""
        return sum(len(event.alerts) for event in self.events)

    @property
    def num_batches(self) -> int:
        """Number of batch events."""
        return sum(1 for event in self.events if event.kind == "batch")

    def entities(self) -> list[str]:
        """Distinct entities appearing in the campaign, in first-seen order."""
        seen: dict[str, None] = {}
        for alert in self.alerts():
            seen.setdefault(alert.entity, None)
        return list(seen)

    # -- persistence -----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (the regression-repro format)."""
        return {
            "kind": "repro-fuzz-campaign",
            "seed": self.seed,
            "label": self.label,
            "max_window": self.max_window,
            "detection_threshold": self.detection_threshold,
            "raw_capable": self.raw_capable,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Campaign":
        """Inverse of :meth:`to_dict`."""
        if data.get("kind") != "repro-fuzz-campaign":
            raise ValueError("not a fuzz-campaign document")
        return cls(
            seed=int(data["seed"]),
            events=tuple(CampaignEvent.from_dict(e) for e in data["events"]),
            max_window=int(data.get("max_window", 64)),
            detection_threshold=float(data.get("detection_threshold", 0.5)),
            raw_capable=bool(data.get("raw_capable", False)),
            label=str(data.get("label", "")),
        )

    def save(self, path: str | Path) -> Path:
        """Write the campaign as a JSON repro file."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Campaign":
        """Inverse of :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _collision_entities(
    prefix: str, n_shards: int, target_shard: int, count: int
) -> list[str]:
    """``count`` entity names whose crc32 collides modulo ``n_shards``.

    Deterministic (counter scan, no RNG): the names are "hash-adjacent"
    in the routing sense -- they all land on ``target_shard`` -- so a
    campaign built from them funnels its whole stream through one shard
    of an ``n_shards``-way pool while still spreading across shards at
    other pool widths.
    """
    found: list[str] = []
    counter = 0
    while len(found) < count:
        name = f"{prefix}{counter}"
        if zlib.crc32(name.encode("utf-8")) % n_shards == target_shard:
            found.append(name)
        counter += 1
    return found


#: Entity-name prefixes mixed into the pool (unicode names included:
#: shard routing hashes UTF-8 bytes, worker pipes pickle str fields,
#: and JSON repros round-trip them -- all worth stressing).
_ENTITY_PREFIXES = (
    "user:fz-",
    "user:фузз-",
    "host:节点-",
    "user:ふず-",
    "host:fz_",
)

_SCENARIO_BUILDERS = (
    lambda seed: StolenCredentialScenario(seed=seed),
    lambda seed: GhostAccountScenario(seed=seed),
)


class CampaignComposer:
    """Assembles adversarial campaigns, bit-for-bit reproducible by seed.

    Parameters
    ----------
    seed:
        Base seed; campaign ``k`` is composed from
        ``numpy.random.default_rng((seed, k, int(raw_capable)))`` so
        campaigns are independent yet individually reproducible.  The
        ``raw_capable`` flag is part of the seed material: the raw
        variant of an index is a *different* campaign (drawn from the
        restricted Zeek-expressible vocabulary), not a re-encoding of
        the alert-form one.
    vocabulary:
        Alert vocabulary to draw names from (default vocabulary).
    catalogue:
        Pattern catalogue supplying attack backbones (S1..S43).
    target_alerts:
        Approximate number of alerts per campaign (the composer stops
        interleaving when every per-entity script is exhausted, so the
        actual count varies around this).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        vocabulary: Optional[AlertVocabulary] = None,
        catalogue: Optional[PatternCatalogue] = None,
        target_alerts: int = 300,
    ) -> None:
        self.seed = int(seed)
        self.vocabulary = vocabulary or DEFAULT_VOCABULARY
        self.catalogue = catalogue or DEFAULT_CATALOGUE
        self.target_alerts = int(target_alerts)
        self._all_names = self.vocabulary.names()
        self._benign_names = self.vocabulary.names_for_stage(AttackStage.BACKGROUND)
        #: Catalogue patterns fully expressible as Zeek notices.
        self._raw_patterns = [
            pattern
            for pattern in self.catalogue
            if set(pattern.names) <= set(RAW_CAPABLE_NAMES)
        ]

    # -- public API ------------------------------------------------------
    def compose(self, index: int = 0, *, raw_capable: bool = False) -> Campaign:
        """Compose campaign ``index`` (deterministic in ``(seed, index)``)."""
        rng = np.random.default_rng((self.seed, int(index), int(raw_capable)))
        max_window = int(rng.choice([4, 6, 8, 12, 16]))
        threshold = float(rng.choice([0.4, 0.5, 0.6]))
        entities = self._entity_pool(rng, raw_capable=raw_capable)
        hosts = [f"node{i:02d}" for i in range(int(rng.integers(2, 6)))]
        scripts = {
            entity: self._entity_script(
                rng, entity, hosts, max_window, raw_capable=raw_capable
            )
            for entity in entities
        }
        stream = self._interleave(rng, scripts, raw_capable=raw_capable)
        events = self._eventise(rng, stream, entities)
        return Campaign(
            seed=self.seed,
            events=tuple(events),
            max_window=max_window,
            detection_threshold=threshold,
            raw_capable=raw_capable,
            label=f"seed{self.seed}-c{index}" + ("-raw" if raw_capable else ""),
        )

    def campaigns(
        self, count: int, *, raw_every: int = 3
    ) -> Iterator[Campaign]:
        """Yield ``count`` campaigns; every ``raw_every``-th is raw-capable."""
        for index in range(count):
            raw = raw_every > 0 and index % raw_every == raw_every - 1
            yield self.compose(index, raw_capable=raw)

    # -- entity pool -----------------------------------------------------
    def _entity_pool(
        self, rng: np.random.Generator, *, raw_capable: bool
    ) -> list[str]:
        n_plain = int(rng.integers(4, 10))
        entities = [
            f"{_ENTITY_PREFIXES[int(rng.integers(0, len(_ENTITY_PREFIXES)))]}{i:03d}"
            for i in range(n_plain)
        ]
        if raw_capable:
            # Zeek notices are attributed to ``host:<record.host>``, so
            # a raw-expressible campaign only contains host entities
            # (the part after the colon -- unicode included -- becomes
            # the record's host verbatim).
            entities = [f"host:{e.split(':', 1)[1]}" for e in entities]
        # Hash-adjacent churn: a cluster of names all routed to one
        # shard of a 4-way pool (and scattered at other widths).  The
        # colliding prefix matches the campaign's entity namespace so
        # the property survives the raw host rewrite above.
        target = int(rng.integers(0, 4))
        prefix = "host:collide-" if raw_capable else "user:collide-"
        entities.extend(
            _collision_entities(prefix, 4, target, int(rng.integers(2, 5)))
        )
        return entities

    # -- per-entity scripts ----------------------------------------------
    def _entity_script(
        self,
        rng: np.random.Generator,
        entity: str,
        hosts: Sequence[str],
        max_window: int,
        *,
        raw_capable: bool,
    ) -> list[Alert]:
        """The (un-timestamped) alert script one entity will emit.

        A script is one to three concatenated segments (an entity may
        probe benignly, then run a near-miss, then complete a backbone
        -- exactly the kind of life real incidents have).
        """
        script: list[Alert] = []
        for _ in range(int(rng.integers(1, 4))):
            script.extend(
                self._script_segment(
                    rng, entity, hosts, max_window, raw_capable=raw_capable
                )
            )
        return script

    def _script_segment(
        self,
        rng: np.random.Generator,
        entity: str,
        hosts: Sequence[str],
        max_window: int,
        *,
        raw_capable: bool,
    ) -> list[Alert]:
        kinds = ["backbone", "near_prefix", "mutation", "benign", "burst"]
        weights = [0.22, 0.18, 0.15, 0.25, 0.2]
        if not raw_capable:
            kinds.append("scenario")
            weights = [0.2, 0.16, 0.14, 0.2, 0.15, 0.15]
        kind = str(rng.choice(kinds, p=np.asarray(weights) / np.sum(weights)))
        if kind == "scenario":
            builder = _SCENARIO_BUILDERS[int(rng.integers(0, len(_SCENARIO_BUILDERS)))]
            result = builder(int(rng.integers(0, 2**31))).run(
                start_time=0.0, attacker_ip=self._attacker_ip(rng)
            )
            return result.alerts_for_entity(entity)
        names = self._script_names(rng, kind, max_window, raw_capable=raw_capable)
        source_ip = self._attacker_ip(rng)
        alerts = []
        for position, name in enumerate(names):
            # Bursts must survive the dedup filter (key: source, name,
            # host) or they cannot saturate the window: give each burst
            # alert a distinct host -- or, for raw campaigns, where the
            # host is pinned to the entity, a distinct source IP (which
            # the Zeek inverse preserves as ``orig_h``).
            host = (
                f"burst{position:03d}"
                if kind == "burst"
                else hosts[int(rng.integers(0, len(hosts)))]
            )
            alert_source = source_ip
            if raw_capable:
                # Raw-expressible alerts: the entity *is* the host
                # (Zeek notices carry no user), monitor is zeek.
                host = entity.split(":", 1)[1]
                if kind == "burst":
                    alert_source = f"203.0.113.{position % 250}"
            alerts.append(
                Alert(
                    timestamp=0.0,
                    name=name,
                    entity=entity,
                    source_ip=alert_source,
                    host=host,
                    monitor="zeek" if raw_capable else "fuzz",
                )
            )
        return alerts

    def _script_names(
        self,
        rng: np.random.Generator,
        kind: str,
        max_window: int,
        *,
        raw_capable: bool,
    ) -> list[str]:
        names_pool = list(RAW_CAPABLE_NAMES) if raw_capable else self._all_names
        benign_pool = (
            [n for n in RAW_CAPABLE_NAMES if "scan" in n or "probe" in n]
            if raw_capable
            else self._benign_names
        )
        patterns = self._raw_patterns if raw_capable else list(self.catalogue)
        if kind in ("backbone", "near_prefix", "mutation") and not patterns:
            kind = "burst"  # raw catalogue may be sparse; keep composing
        if kind == "backbone":
            pattern = patterns[int(rng.integers(0, len(patterns)))]
            return list(pattern.names)
        if kind == "near_prefix":
            pattern = patterns[int(rng.integers(0, len(patterns)))]
            prefixes = pattern.proper_prefixes()
            return list(prefixes[int(rng.integers(0, len(prefixes)))])
        if kind == "mutation":
            pattern = patterns[int(rng.integers(0, len(patterns)))]
            position = int(rng.integers(0, pattern.length))
            replacement = names_pool[int(rng.integers(0, len(names_pool)))]
            return list(pattern.mutated(position, replacement))
        if kind == "burst":
            # Saturate the window and straddle the two-stack eviction
            # boundary: strictly more alerts than max_window.
            length = max_window + int(rng.integers(2, 12))
            return [
                names_pool[int(rng.integers(0, len(names_pool)))]
                for _ in range(length)
            ]
        return [
            benign_pool[int(rng.integers(0, len(benign_pool)))]
            for _ in range(int(rng.integers(3, 11)))
        ]

    @staticmethod
    def _attacker_ip(rng: np.random.Generator) -> str:
        return f"198.51.{int(rng.integers(0, 255))}.{int(rng.integers(1, 255))}"

    # -- interleaving ----------------------------------------------------
    def _interleave(
        self,
        rng: np.random.Generator,
        scripts: dict[str, list[Alert]],
        *,
        raw_capable: bool,
    ) -> list[Alert]:
        """Merge per-entity scripts into one adversarial stream.

        Entities are drawn at random per step (concurrent attackers on
        shared hosts), the clock mostly advances but occasionally jumps
        past the dedup window, and ~15% of alerts get an out-of-order
        or duplicate timestamp.
        """
        remaining = {entity: list(script) for entity, script in scripts.items() if script}
        stream: list[Alert] = []
        clock = float(rng.integers(1_600_000_000, 1_700_000_000))
        while remaining and len(stream) < max(self.target_alerts, 1) * 4:
            entity = list(remaining)[int(rng.integers(0, len(remaining)))]
            alert = remaining[entity].pop(0)
            if not remaining[entity]:
                del remaining[entity]
            clock += float(rng.exponential(40.0))
            if rng.random() < 0.05:
                clock += 4_000.0  # escape the dedup window
            timestamp = clock
            roll = rng.random()
            if roll < 0.07 and stream:
                timestamp = stream[-1].timestamp  # duplicate timestamp
            elif roll < 0.15:
                timestamp = max(0.0, clock - float(rng.uniform(1.0, 500.0)))
            stream.append(dataclasses.replace(alert, timestamp=timestamp))
        return stream

    # -- eventising ------------------------------------------------------
    def _eventise(
        self,
        rng: np.random.Generator,
        stream: list[Alert],
        entities: Sequence[str],
    ) -> list[CampaignEvent]:
        """Split the stream into batches and inject control events."""
        events: list[CampaignEvent] = []
        position = 0
        reopens = 0
        while position < len(stream):
            if rng.random() < 0.06:
                events.append(CampaignEvent(kind="batch"))  # empty batch
            size = int(rng.integers(1, 61))
            events.append(
                CampaignEvent(
                    kind="batch",
                    alerts=tuple(stream[position : position + size]),
                )
            )
            position += size
            roll = rng.random()
            if roll < 0.30:
                entity = entities[int(rng.integers(0, len(entities)))]
                events.append(CampaignEvent(kind="reset_entity", entity=entity))
            elif roll < 0.38:
                events.append(CampaignEvent(kind="reset"))
            elif roll < 0.46 and reopens < 2:
                reopens += 1
                events.append(CampaignEvent(kind="reopen"))
        return events


__all__ = [
    "EVENT_KINDS",
    "RAW_CAPABLE_NAMES",
    "CampaignEvent",
    "Campaign",
    "CampaignComposer",
]
