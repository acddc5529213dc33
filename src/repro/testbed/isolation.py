"""Honeypot isolation: sandbox policy, egress control, VM lifecycle.

§IV.C lists the containment strategies applied simultaneously so an
attacker cannot escape the honeypot: immutable, short-lived VM images;
vulnerable containers nested inside QEMU VMs with limited capabilities;
a layer-3 private overlay network on a separate CIDR block; and iptables
rules on container hosts that monitor and drop new outgoing
connections before they are routed to the Internet.

The reproduction models those policies as data structures whose
decisions the pipeline and the attack emulator consult:

* :class:`EgressPolicy` -- evaluates outbound connection attempts from
  honeypot containers (allow within the overlay, drop + log otherwise),
* :class:`OverlayNetwork` -- the private L3 overlay each container
  joins,
* :class:`VMLifecycleManager` -- immutable VM instances that are
  recycled after collecting attack traces, within a bounded capacity.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from .addresses import AddressAllocator, AddressBlock


class EgressVerdict(enum.Enum):
    """Decision for one outbound connection attempt."""

    ALLOWED = "allowed"
    DROPPED = "dropped"


@dataclasses.dataclass(frozen=True)
class EgressAttempt:
    """One outbound connection attempt observed by the sandbox."""

    timestamp: float
    container: str
    destination_ip: str
    destination_port: int
    verdict: EgressVerdict


class OverlayNetwork:
    """Layer-3 private overlay on a separate CIDR block."""

    def __init__(self, block: AddressBlock = AddressBlock("10.66.0.0", 16)) -> None:
        self.block = block
        self._allocator = AddressAllocator(block)

    def join(self, container: str) -> str:
        """Attach a container to the overlay; returns its overlay address."""
        return self._allocator.allocate(container)

    def __contains__(self, address: str) -> bool:
        return address in self.block


class EgressPolicy:
    """iptables-style egress control for honeypot containers.

    New outbound connections are dropped before routing to the Internet
    unless the destination is inside the overlay or on the explicit
    allow list (the monitors' collectors).  Every attempt is logged --
    those logs are what let the detector see the ransomware's attempt
    to contact its command-and-control server even though the packet
    never leaves the sandbox.
    """

    def __init__(
        self,
        overlay: OverlayNetwork,
        *,
        allowed_destinations: tuple[str, ...] = (),
    ) -> None:
        self.overlay = overlay
        self.allowed_destinations = set(allowed_destinations)
        self.attempts: list[EgressAttempt] = []

    def evaluate(
        self, timestamp: float, container: str, destination_ip: str, destination_port: int
    ) -> EgressAttempt:
        """Evaluate one outbound connection attempt and log it."""
        if destination_ip in self.overlay or destination_ip in self.allowed_destinations:
            verdict = EgressVerdict.ALLOWED
        else:
            verdict = EgressVerdict.DROPPED
        attempt = EgressAttempt(
            timestamp=timestamp,
            container=container,
            destination_ip=destination_ip,
            destination_port=destination_port,
            verdict=verdict,
        )
        self.attempts.append(attempt)
        return attempt

    def dropped_attempts(self) -> list[EgressAttempt]:
        """All attempts that were dropped (candidate C2 traffic)."""
        return [a for a in self.attempts if a.verdict is EgressVerdict.DROPPED]

    def escaped_attempts(self) -> list[EgressAttempt]:
        """Attempts that reached a non-overlay destination (should be empty)."""
        return [
            a
            for a in self.attempts
            if a.verdict is EgressVerdict.ALLOWED and a.destination_ip not in self.overlay
            and a.destination_ip not in self.allowed_destinations
        ]


class VMState(enum.Enum):
    """Lifecycle state of a honeypot VM instance."""

    PROVISIONING = "provisioning"
    RUNNING = "running"
    COLLECTING = "collecting"
    RECYCLED = "recycled"


@dataclasses.dataclass
class VMInstance:
    """One short-lived, immutable honeypot VM instance."""

    name: str
    image: str
    created_at: float
    state: VMState = VMState.RUNNING
    traces_collected: int = 0


class VMLifecycleManager:
    """Provisioning, capacity and recycling of honeypot VM instances."""

    def __init__(
        self,
        *,
        image: str = "honeypot-immutable-v3",
        min_instances: int = 2,
        max_instances: int = 16,
    ) -> None:
        if min_instances < 1 or max_instances < min_instances:
            raise ValueError("need 1 <= min_instances <= max_instances")
        self.image = image
        self.min_instances = int(min_instances)
        self.max_instances = int(max_instances)
        self._counter = 0
        self.instances: list[VMInstance] = []
        self.recycled: list[VMInstance] = []

    def _provision(self, now: float) -> VMInstance:
        self._counter += 1
        instance = VMInstance(
            name=f"honeypot-vm-{self._counter:04d}",
            image=self.image,
            created_at=now,
        )
        self.instances.append(instance)
        return instance

    def ensure_capacity(self, now: float, *, desired: Optional[int] = None) -> list[VMInstance]:
        """Provision instances until ``desired`` (clamped) are running."""
        target = self.min_instances if desired is None else desired
        target = max(self.min_instances, min(self.max_instances, target))
        while len(self.running_instances()) < target:
            self._provision(now)
        return self.running_instances()

    def running_instances(self) -> list[VMInstance]:
        """Instances currently serving traffic."""
        return [vm for vm in self.instances if vm.state is VMState.RUNNING]

    def collect_and_recycle(self, instance: VMInstance, now: float) -> VMInstance:
        """Collect traces from an instance and recycle it; provisions a replacement."""
        instance.state = VMState.RECYCLED
        instance.traces_collected += 1
        self.instances.remove(instance)
        self.recycled.append(instance)
        replacement = self._provision(now)
        return replacement


__all__ = [
    "EgressVerdict",
    "EgressAttempt",
    "OverlayNetwork",
    "EgressPolicy",
    "VMState",
    "VMInstance",
    "VMLifecycleManager",
]
