"""Incident records and their forensic ground truth.

The paper's dataset is built from forensically examined security
incidents, each of which includes (i) a human-written incident report
that fixes the ground truth -- the compromised users and machines --
(ii) the raw network/system/audit logs covering the incident window,
and (iii) the filtered symbolic alerts directly related to the attack.
This module models that structure:

* :class:`GroundTruth` -- the attacker-controlled identities and
  machines, the entry point, and whether the attack succeeded,
* :class:`Incident` -- the curated record: the attack's alert sequence,
  timing, family, and ground truth.
"""

from __future__ import annotations

import dataclasses

from ..core.sequences import AlertSequence


@dataclasses.dataclass(frozen=True)
class GroundTruth:
    """Forensic ground truth established by the security team."""

    compromised_users: tuple[str, ...]
    compromised_hosts: tuple[str, ...]
    attacker_ips: tuple[str, ...]
    entry_point: str
    succeeded: bool = True
    data_breach: bool = False
    notes: str = ""


@dataclasses.dataclass(frozen=True)
class Incident:
    """One curated security incident.

    Attributes
    ----------
    incident_id:
        Stable identifier (``NCSA-YYYY-NNN`` style).
    year:
        Calendar year of the incident (2000-2024 in the corpus).
    family:
        Attack family (rootkit, credential_theft, ransomware, ...).
    sequence:
        The *filtered* alert sequence directly related to the attack
        (what remains of the raw logs after scan filtering).
    ground_truth:
        Forensic ground truth.
    pattern_names:
        Names of catalogue patterns instantiated by this incident (used
        to check the generator; a real corpus would not carry this).
    raw_alert_count:
        Number of raw alerts in the incident window before filtering
        (the 25M-to-191K reduction in Table I happens corpus-wide).
    """

    incident_id: str
    year: int
    family: str
    sequence: AlertSequence
    ground_truth: GroundTruth
    pattern_names: tuple[str, ...] = ()
    raw_alert_count: int = 0

    def __post_init__(self) -> None:
        if not 2000 <= self.year <= 2100:
            raise ValueError(f"incident year out of range: {self.year}")
        if len(self.sequence) == 0:
            raise ValueError(f"incident {self.incident_id} has an empty alert sequence")

    @property
    def start_time(self) -> float:
        """Timestamp of the first filtered alert."""
        return self.sequence[0].timestamp

    @property
    def end_time(self) -> float:
        """Timestamp of the last filtered alert."""
        return self.sequence[-1].timestamp

    @property
    def duration_seconds(self) -> float:
        """Wall-clock span of the filtered alert sequence."""
        return self.end_time - self.start_time

    @property
    def alert_names(self) -> tuple[str, ...]:
        """Symbolic names of the filtered alerts, in order."""
        return self.sequence.names

    @property
    def num_alerts(self) -> int:
        """Number of filtered alerts."""
        return len(self.sequence)


__all__ = [
    "GroundTruth",
    "Incident",
]
