"""The honeypot: entry points, advertised credential hints, bait services.

§IV.B-C describe the honeypot deployment: a dedicated /24 inside NCSA's
address space with **sixteen entry points**, each a small VM forwarding
incoming traffic to an isolated container running the vulnerable or
semi-open database; access credentials and database URLs are
"accidentally" published through channels an attacker would plausibly
find (social media, git), and each hint carries a *unique* credential
so individual attackers can be traced by which key they use.

:class:`Honeypot` wires those pieces together on top of the isolation
and service models: it owns the entry points, the credential hints, the
per-entry-point PostgreSQL/SSH service instances, and the VM lifecycle
manager, and it exposes the attacker-facing operations the attack
emulator drives (probe, connect, authenticate).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from .addresses import AddressAllocator, TESTBED_NETWORK, AddressBlock
from .isolation import EgressPolicy, OverlayNetwork, VMLifecycleManager
from .services import (
    PostgresHoneypotService,
    SSHHoneypotService,
    ServiceMonitors,
)
from ..telemetry.zeek import ZeekMonitor

#: Number of honeypot entry points on the dedicated /24 (per the paper).
DEFAULT_ENTRY_POINTS = 16


@dataclasses.dataclass(frozen=True)
class CredentialHint:
    """One advertised credential hint, published through one channel."""

    username: str
    password: str
    database_url: str
    channel: str
    entry_point: str

    @property
    def key(self) -> str:
        """The unique tracing key: which hint an attacker used."""
        return f"{self.channel}:{self.username}:{self.password}"


@dataclasses.dataclass
class EntryPoint:
    """One honeypot entry point VM and its backing container services."""

    name: str
    address: str
    container: str
    overlay_address: str
    postgres: PostgresHoneypotService
    ssh: SSHHoneypotService
    connections_seen: int = 0


class Honeypot:
    """The full honeypot deployment on the testbed /24."""

    #: Channels through which hints are "accidentally" published.
    HINT_CHANNELS = ("git", "social_media", "pastebin", "mailing_list")

    def __init__(
        self,
        *,
        num_entry_points: int = DEFAULT_ENTRY_POINTS,
        block: AddressBlock = TESTBED_NETWORK,
        zeek: Optional[ZeekMonitor] = None,
        lifecycle: Optional[VMLifecycleManager] = None,
    ) -> None:
        if num_entry_points < 1:
            raise ValueError("need at least one entry point")
        self.block = block
        self.zeek = zeek or ZeekMonitor("zeek-testbed")
        self.overlay = OverlayNetwork()
        self.egress = EgressPolicy(self.overlay)
        self.lifecycle = lifecycle or VMLifecycleManager(max_instances=max(16, num_entry_points))
        self._allocator = AddressAllocator(block)
        self.entry_points: dict[str, EntryPoint] = {}
        self.hints: list[CredentialHint] = []
        self._build_entry_points(num_entry_points)
        self._publish_hints()

    # ------------------------------------------------------------------
    def _build_entry_points(self, count: int) -> None:
        self.lifecycle.ensure_capacity(0.0, desired=count)
        for index in range(count):
            name = f"entry{index:02d}"
            address = self._allocator.allocate(name)
            container = f"container-{name}"
            overlay_address = self.overlay.join(container)
            monitors = ServiceMonitors.for_host(container, zeek=self.zeek)
            postgres = PostgresHoneypotService(
                container,
                address,
                monitors,
                advertised_credentials=("postgres", f"postgres-{index:02d}"),
            )
            ssh = SSHHoneypotService(container, address, monitors)
            self.entry_points[name] = EntryPoint(
                name=name,
                address=address,
                container=container,
                overlay_address=overlay_address,
                postgres=postgres,
                ssh=ssh,
            )

    def _publish_hints(self) -> None:
        for index, entry in enumerate(self.entry_points.values()):
            channel = self.HINT_CHANNELS[index % len(self.HINT_CHANNELS)]
            user, password = entry.postgres.advertised_credentials
            self.hints.append(
                CredentialHint(
                    username=user,
                    password=password,
                    database_url=f"postgresql://{entry.address}:5432/research",
                    channel=channel,
                    entry_point=entry.name,
                )
            )

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def entry_point(self, name: str) -> EntryPoint:
        """Entry point by name."""
        return self.entry_points[name]

    def entry_point_by_address(self, address: str) -> Optional[EntryPoint]:
        """Entry point listening on ``address``, if any."""
        for entry in self.entry_points.values():
            if entry.address == address:
                return entry
        return None

    def addresses(self) -> list[str]:
        """Addresses of all entry points."""
        return [entry.address for entry in self.entry_points.values()]

    def hint_for_entry(self, name: str) -> CredentialHint:
        """The published hint that points at a given entry point."""
        for hint in self.hints:
            if hint.entry_point == name:
                return hint
        raise KeyError(name)

    def trace_attacker(self, username: str, password: str) -> Optional[CredentialHint]:
        """Which published hint a set of credentials came from (attribution)."""
        for hint in self.hints:
            if hint.username == username and hint.password == password:
                return hint
        return None

    # ------------------------------------------------------------------
    # Attacker-facing operations
    # ------------------------------------------------------------------
    def probe(self, ts: float, source_ip: str, address: str, port: int = 5432) -> bool:
        """An external host probes an entry-point port; returns whether it exists."""
        entry = self.entry_point_by_address(address)
        if entry is None:
            return False
        entry.connections_seen += 1
        if port == 5432:
            entry.postgres.record_probe(ts, source_ip)
        else:
            entry.ssh.record_probe(ts, source_ip)
        return True

    def connect_postgres(
        self, ts: float, source_ip: str, address: str, username: str, password: str
    ) -> Optional[PostgresHoneypotService]:
        """Authenticate to the PostgreSQL bait; returns the service on success."""
        entry = self.entry_point_by_address(address)
        if entry is None:
            return None
        entry.connections_seen += 1
        if entry.postgres.login(ts, source_ip, username, password):
            return entry.postgres
        return None

    def attempt_outbound(
        self, ts: float, container: str, destination_ip: str, destination_port: int
    ):
        """A compromised container tries to reach the Internet (C2, scanning)."""
        return self.egress.evaluate(ts, container, destination_ip, destination_port)

    # ------------------------------------------------------------------
    def compromised_entry_points(self) -> list[EntryPoint]:
        """Entry points whose bait service has been compromised."""
        from .services import ServiceState

        return [
            entry
            for entry in self.entry_points.values()
            if entry.postgres.state is ServiceState.COMPROMISED
            or entry.ssh.state is ServiceState.COMPROMISED
        ]

    def recycle_compromised(self, now: float) -> int:
        """Recycle VM instances backing compromised entry points.

        Returns the number of instances recycled.  (In the real testbed
        this is how permanent compromise is avoided: instances are
        short-lived and re-imaged after traces are collected.)
        """
        compromised = self.compromised_entry_points()
        recycled = 0
        running = self.lifecycle.running_instances()
        for entry, instance in zip(compromised, running):
            self.lifecycle.collect_and_recycle(instance, now)
            entry.postgres.authenticated_sessions.clear()
            recycled += 1
        return recycled


__all__ = ["DEFAULT_ENTRY_POINTS", "CredentialHint", "EntryPoint", "Honeypot"]
