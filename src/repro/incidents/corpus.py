"""The longitudinal incident corpus: container and statistics.

:class:`IncidentCorpus` holds the curated incidents plus the corpus-wide
bookkeeping needed to reproduce Table I (raw alert volume, filtered
alert volume, archive size, study period).  It also provides the
dataset views the rest of the library consumes: attack alert
sequences, their symbolic names, and the chronological train/test
split.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from ..core.sequences import AlertSequence
from .incident import Incident


@dataclasses.dataclass(frozen=True)
class CorpusStats:
    """The rows of Table I plus a few derived quantities."""

    total_raw_alerts: int
    filtered_alerts: int
    num_incidents: int
    data_size_bytes: int
    start_year: int
    end_year: int

    @property
    def data_size_terabytes(self) -> float:
        """Archive size in decimal terabytes (the unit Table I uses)."""
        return self.data_size_bytes / 1e12

    @property
    def reduction_factor(self) -> float:
        """Raw-to-filtered alert reduction achieved by scan filtering."""
        if self.filtered_alerts == 0:
            return 0.0
        return self.total_raw_alerts / self.filtered_alerts

    def as_table(self) -> list[tuple[str, str]]:
        """Render the Table I rows as (label, value) pairs."""
        return [
            ("Total alerts related to successful attacks", f"{self.total_raw_alerts / 1e6:.1f} M"),
            ("Alerts after being filtered", f"{self.filtered_alerts / 1e3:.0f} K"),
            ("Successful attacks", f"more than {min(200, self.num_incidents)} incidents"
             if self.num_incidents > 200 else f"{self.num_incidents} incidents"),
            ("Data size", f"{self.data_size_terabytes:.0f} TB"),
            ("Time period", f"{self.start_year}-{self.end_year}"),
        ]


@dataclasses.dataclass
class IncidentCorpus:
    """Container for the full longitudinal dataset."""

    incidents: list[Incident]
    start_year: int
    end_year: int
    raw_alert_total: int
    filtered_alert_total: int
    bytes_per_raw_alert: int = 1_280

    def __post_init__(self) -> None:
        if not self.incidents:
            raise ValueError("a corpus must contain at least one incident")
        self.incidents = sorted(self.incidents, key=lambda i: i.start_time)

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self.incidents)

    def __iter__(self) -> Iterator[Incident]:
        return iter(self.incidents)

    # -- views -------------------------------------------------------------
    def attack_sequences(self) -> list[AlertSequence]:
        """Alert sequences of all incidents (time order)."""
        return [incident.sequence for incident in self.incidents]

    def alert_name_sequences(self) -> list[tuple[str, ...]]:
        """Symbolic-name sequences of all incidents."""
        return [incident.alert_names for incident in self.incidents]

    # -- statistics -----------------------------------------------------------
    def stats(self) -> CorpusStats:
        """Corpus-wide statistics (the content of Table I)."""
        return CorpusStats(
            total_raw_alerts=self.raw_alert_total,
            filtered_alerts=self.filtered_alert_total,
            num_incidents=len(self.incidents),
            data_size_bytes=self.raw_alert_total * self.bytes_per_raw_alert,
            start_year=self.start_year,
            end_year=self.end_year,
        )

    def sequence_length_histogram(self) -> dict[int, int]:
        """Histogram of curated alert-sequence lengths across incidents."""
        histogram: dict[int, int] = {}
        for incident in self.incidents:
            histogram[incident.num_alerts] = histogram.get(incident.num_alerts, 0) + 1
        return dict(sorted(histogram.items()))

    # -- train/test helpers -------------------------------------------------
    def chronological_split(self, train_fraction: float = 0.7) -> tuple[list[Incident], list[Incident]]:
        """Split incidents chronologically (train on the past, test on the future).

        This mirrors how the testbed is actually used: models trained on
        historical incidents must catch present-day attacks.
        """
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        cutoff = int(round(train_fraction * len(self.incidents)))
        cutoff = min(max(cutoff, 1), len(self.incidents) - 1)
        return self.incidents[:cutoff], self.incidents[cutoff:]


__all__ = ["CorpusStats", "IncidentCorpus"]
