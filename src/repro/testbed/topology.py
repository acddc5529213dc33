"""Cluster topology: hosts, virtual machines, containers, segments.

The testbed is embedded in a large scientific-computing network (more
than 13,000 computing nodes at NCSA).  The reproduction models just
enough of that structure for the experiments: named network segments,
hosts with addresses and roles, the SSH trust edges between hosts
(authorized keys / known_hosts) that the ransomware's lateral movement
exploits, and lightweight VM/container records for the honeypot.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, Optional

import numpy as np

from .addresses import AddressAllocator, AddressBlock, PRODUCTION_NETWORK, TESTBED_NETWORK


class HostRole(enum.Enum):
    """Functional role of a host in the cluster."""

    LOGIN = "login"
    COMPUTE = "compute"
    STORAGE = "storage"
    SERVICE = "service"
    DATABASE = "database"
    HONEYPOT_ENTRY = "honeypot_entry"
    MONITOR = "monitor"


@dataclasses.dataclass
class Host:
    """One physical or virtual host."""

    name: str
    address: str
    role: HostRole
    segment: str
    compromised: bool = False
    ssh_keys: set[str] = dataclasses.field(default_factory=set)
    known_hosts: set[str] = dataclasses.field(default_factory=set)

    def trust(self, other: "Host", *, key: Optional[str] = None) -> None:
        """Record that this host can reach ``other`` over SSH.

        ``key`` names the private key stored on this host that is
        authorised on ``other`` -- the exact artefact the ransomware's
        lateral-movement loop harvests.
        """
        self.known_hosts.add(other.name)
        if key is not None:
            self.ssh_keys.add(key)

    def mark_compromised(self) -> None:
        """Flag the host as attacker-controlled."""
        self.compromised = True


@dataclasses.dataclass(frozen=True)
class NetworkSegment:
    """A named network segment backed by an address block."""

    name: str
    block: AddressBlock
    description: str = ""


class ClusterTopology:
    """The simulated cluster: segments, hosts, and SSH trust edges."""

    def __init__(self) -> None:
        self._segments: dict[str, NetworkSegment] = {}
        self._allocators: dict[str, AddressAllocator] = {}
        self._hosts: dict[str, Host] = {}

    # -- segments ------------------------------------------------------------
    def add_segment(self, segment: NetworkSegment) -> NetworkSegment:
        """Register a network segment."""
        if segment.name in self._segments:
            raise ValueError(f"duplicate segment: {segment.name}")
        self._segments[segment.name] = segment
        self._allocators[segment.name] = AddressAllocator(segment.block)
        return segment

    # -- hosts ------------------------------------------------------------------
    def add_host(self, name: str, role: HostRole, segment: str) -> Host:
        """Create a host in ``segment`` with an automatically allocated address."""
        if name in self._hosts:
            raise ValueError(f"duplicate host: {name}")
        if segment not in self._segments:
            raise KeyError(f"unknown segment: {segment}")
        address = self._allocators[segment].allocate(name)
        host = Host(name=name, address=address, role=role, segment=segment)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """Host by name."""
        return self._hosts[name]

    def host_by_address(self, address: str) -> Optional[Host]:
        """Host with the given address, if any."""
        for host in self._hosts.values():
            if host.address == address:
                return host
        return None

    def hosts(self, *, role: Optional[HostRole] = None, segment: Optional[str] = None) -> list[Host]:
        """Hosts filtered by role and/or segment."""
        out = list(self._hosts.values())
        if role is not None:
            out = [h for h in out if h.role is role]
        if segment is not None:
            out = [h for h in out if h.segment == segment]
        return out

    def __len__(self) -> int:
        return len(self._hosts)

    # -- trust graph ---------------------------------------------------------------
    def add_trust(self, source: str, target: str, *, key: Optional[str] = None) -> None:
        """Record an SSH trust edge from ``source`` to ``target``."""
        self.host(source).trust(self.host(target), key=key)

    def reachable_via_ssh(self, start: str) -> set[str]:
        """Transitive closure of SSH trust edges from ``start``.

        This is the blast radius of a single compromised host under the
        ransomware's key-stealing lateral movement.
        """
        seen: set[str] = set()
        stack = [start]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            host = self._hosts.get(current)
            if host is None:
                continue
            stack.extend(host.known_hosts - seen)
        seen.discard(start)
        return seen


def build_default_topology(
    *,
    num_login: int = 4,
    num_compute: int = 64,
    num_storage: int = 8,
    num_database: int = 4,
    trust_density: float = 0.08,
    seed: int = 11,
) -> ClusterTopology:
    """A scaled-down but structurally faithful NCSA-style cluster.

    The real system has >13,000 nodes; the default here keeps the same
    structure (login nodes, compute fleet, storage, databases, a
    dedicated honeypot /24) at a size where whole-testbed experiments
    run in milliseconds.  ``trust_density`` controls how many SSH trust
    edges exist between hosts, which in turn controls how far the
    ransomware can spread laterally.
    """
    rng = np.random.default_rng(seed)
    topology = ClusterTopology()
    topology.add_segment(
        NetworkSegment("production", PRODUCTION_NETWORK, "NCSA production /16")
    )
    topology.add_segment(
        NetworkSegment("honeypot", TESTBED_NETWORK, "dedicated testbed /24 with honeypot entry points")
    )

    for i in range(num_login):
        topology.add_host(f"login{i:02d}", HostRole.LOGIN, "production")
    for i in range(num_compute):
        topology.add_host(f"compute{i:04d}", HostRole.COMPUTE, "production")
    for i in range(num_storage):
        topology.add_host(f"storage{i:02d}", HostRole.STORAGE, "production")
    for i in range(num_database):
        topology.add_host(f"db{i:02d}", HostRole.DATABASE, "production")
    topology.add_host("zeek-manager", HostRole.MONITOR, "production")

    # SSH trust: every login node reaches most compute nodes; users'
    # compute-to-compute trust follows the configured density.
    hosts = topology.hosts(role=HostRole.COMPUTE)
    for login in topology.hosts(role=HostRole.LOGIN):
        for host in hosts:
            if rng.random() < 0.6:
                topology.add_trust(login.name, host.name, key=f"id_rsa_{login.name}")
    names = [h.name for h in hosts]
    for source in names:
        for target in names:
            if source != target and rng.random() < trust_density:
                topology.add_trust(source, target, key=f"id_rsa_{source}")
    # Database hosts are reachable from a few compute nodes (batch jobs).
    for db in topology.hosts(role=HostRole.DATABASE):
        for host in rng.choice(hosts, size=min(6, len(hosts)), replace=False):
            topology.add_trust(host.name, db.name, key=f"id_rsa_{host.name}")
    return topology


__all__ = [
    "HostRole",
    "Host",
    "NetworkSegment",
    "ClusterTopology",
    "build_default_topology",
]
