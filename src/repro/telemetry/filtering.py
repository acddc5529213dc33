"""Scan filtering: the 25 M -> 191 K alert reduction of Table I.

Most of the alert volume at a supercomputing centre is repeated port
and vulnerability scanning from the public Internet (roughly 80 K of
the 94 K daily alerts, per Insight 3).  Those alerts are not evidence
that any particular entity is compromised; the paper filters them out
before building and evaluating detection models.  This module
implements that filter as two stages over one time-ordered batch:

* **Scanner suppression** -- sources that only ever produce
  reconnaissance-stage alerts across many distinct targets are mass
  scanners; their alerts are dropped entirely (they remain visible to
  the black-hole router, which is the component that handles them).
* **Deduplication** of identical (source, alert type, target) tuples
  inside a sliding window -- repeated probes collapse to one alert.

The filter decides on columns, not objects: its one core,
:meth:`ScanFilter.filter_batch`, reads a
:class:`~repro.core.alerts.NormalizedBatch` and returns the rows it
keeps as a batch of the same kind, so it builds no
:class:`~repro.core.alerts.Alert` at all -- the survivors stay columns
until something iterates them (an in-process detector), or all the way
to a process shard's wire.  :meth:`ScanFilter.filter` runs the same
core over the column view of alerts the caller already has, and
returns those objects.

The filter reports how many alerts each stage removed so the Table I
reduction factor can be reproduced and audited.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Iterable, Optional

from ..core.alerts import Alert, AlertVocabulary, DEFAULT_VOCABULARY, NormalizedBatch
from ..core.states import AttackStage

#: Stages whose alerts alone make a source a scanner candidate.
_SCAN_STAGES = (AttackStage.RECONNAISSANCE, AttackStage.BACKGROUND)


@dataclasses.dataclass
class FilterStats:
    """Bookkeeping of how many alerts each stage removed."""

    input_alerts: int = 0
    deduplicated: int = 0
    scanner_suppressed: int = 0
    output_alerts: int = 0

    @property
    def reduction_factor(self) -> float:
        """Input-to-output volume ratio.

        An empty input is no reduction (1.0); a filter that drops
        *every* alert is an infinite reduction, kept distinguishable
        from "no reduction" by reporting ``float("inf")``.
        """
        if self.input_alerts == 0:
            return 1.0
        if self.output_alerts == 0:
            return float("inf")
        return self.input_alerts / self.output_alerts


class ScanFilter:
    """Stateful alert filter reproducing the paper's volume reduction.

    :attr:`stats` describes the most recent batch.
    """

    def __init__(
        self,
        vocabulary: Optional[AlertVocabulary] = None,
        *,
        dedup_window_seconds: float = 3600.0,
        scanner_min_targets: int = 10,
    ) -> None:
        self.vocabulary = vocabulary or DEFAULT_VOCABULARY
        self.dedup_window_seconds = float(dedup_window_seconds)
        self.scanner_min_targets = int(scanner_min_targets)
        self.stats = FilterStats()

    # -- scanner identification -------------------------------------------
    def identify_scanners(self, batch: NormalizedBatch) -> set[str]:
        """Source IPs of ``batch`` that behave like mass scanners.

        A source is a scanner when every alert it produced is a
        reconnaissance-stage (or background) alert and it touched at
        least ``scanner_min_targets`` distinct targets (hosts, else
        entities).  A name outside the vocabulary is not
        reconnaissance, so its source is never a scanner.
        """
        sources = batch.source_ips
        if not any(sources):
            return set()
        vocabulary = self.vocabulary
        scan_name: dict[str, bool] = {}  # per call: name -> scan stage?
        targets: defaultdict[str, set[str]] = defaultdict(set)
        excluded: set[str] = set()
        for name, source, host, entity in zip(batch.names, sources, batch.hosts, batch.entities):
            if not source:
                continue
            scanning = scan_name.get(name)
            if scanning is None:
                scanning = scan_name[name] = (
                    name in vocabulary and vocabulary.get(name).stage in _SCAN_STAGES
                )
            if scanning:
                targets[source].add(host or entity)
            else:
                excluded.add(source)
        minimum = self.scanner_min_targets
        return {
            source
            for source, hit in targets.items()
            if len(hit) >= minimum and source not in excluded
        }

    # -- main entry points -----------------------------------------------------
    def filter_batch(self, batch: NormalizedBatch) -> NormalizedBatch:
        """Apply both stages; return the surviving rows in time order.

        Rows are visited in stable timestamp order (equal timestamps
        keep input order).  When every row survives in input order the
        survivors are ``batch`` itself (the common case of a
        time-ordered alert stream: 92 % of ``steady_alerts`` batches,
        99.8 % of ``paced_latency``'s); otherwise they are
        ``batch.select(kept)``: columns picked at C speed.  Either way
        no :class:`Alert` is built (alerts ``batch`` already holds are
        carried over, so the survivors of an
        :meth:`~NormalizedBatch.of_alerts` batch are the caller's
        objects).
        """
        timestamps, names = batch.timestamps, batch.names
        entities, sources, hosts = batch.entities, batch.source_ips, batch.hosts
        scanners = self.identify_scanners(batch)
        window = self.dedup_window_seconds
        last_seen: dict[tuple[str, str, str], float] = {}
        kept: list[int] = []
        suppressed = deduplicated = 0
        for row in sorted(range(len(timestamps)), key=timestamps.__getitem__):
            source = sources[row]
            # Stage 1: mass-scanner suppression.
            if source in scanners:
                suppressed += 1
                continue
            # Stage 2: sliding-window deduplication.
            key = (source or entities[row], names[row], hosts[row])
            timestamp = timestamps[row]
            previous = last_seen.get(key)
            if previous is not None and timestamp - previous <= window:
                deduplicated += 1
                continue
            last_seen[key] = timestamp
            kept.append(row)
        self.stats = FilterStats(
            input_alerts=len(timestamps),
            deduplicated=deduplicated,
            scanner_suppressed=suppressed,
            output_alerts=len(kept),
        )
        if len(kept) == len(timestamps) and kept == list(range(len(kept))):
            return batch
        return batch.select(kept)

    def filter(self, alerts: Iterable[Alert]) -> list[Alert]:
        """:meth:`filter_batch` over existing alerts; returns those objects."""
        return self.filter_batch(NormalizedBatch.of_alerts(alerts)).alerts()


class ScanFilterStage:
    """Batch pipeline-stage adapter over :class:`ScanFilter`.

    Implements the staged-pipeline contract
    (:class:`repro.testbed.stages.PipelineStage`, matched structurally
    so the telemetry layer carries no testbed import): a batch in --
    the normaliser's :class:`NormalizedBatch`, or alerts -- and the
    time-ordered survivors out, as a :class:`NormalizedBatch`.
    """

    name = "filter"

    def __init__(self, scan_filter: ScanFilter) -> None:
        self.scan_filter = scan_filter

    def process(self, batch: NormalizedBatch | Iterable[Alert]) -> NormalizedBatch:
        """Filter one batch (scanner suppression + dedup)."""
        if not isinstance(batch, NormalizedBatch):
            batch = NormalizedBatch.of_alerts(batch)
        return self.scan_filter.filter_batch(batch)


def filter_alerts(
    alerts: Iterable[Alert],
    vocabulary: Optional[AlertVocabulary] = None,
    **kwargs,
) -> tuple[list[Alert], FilterStats]:
    """One-shot convenience wrapper returning (survivors, stats)."""
    scan_filter = ScanFilter(vocabulary, **kwargs)
    survivors = scan_filter.filter(alerts)
    return survivors, scan_filter.stats


__all__ = ["FilterStats", "ScanFilter", "ScanFilterStage", "filter_alerts"]
