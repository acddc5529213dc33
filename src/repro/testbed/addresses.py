"""IPv4 address-space model for the testbed.

NCSA's production network occupies a class B (/16) range --
141.142.0.0/16, 65,536 host addresses -- and the testbed is allocated a
dedicated /24 inside it with sixteen honeypot entry points.  This
module provides a tiny, dependency-free address-space model: blocks,
allocation of sub-blocks and individual hosts, membership tests, and
deterministic pseudo-random external address generation for attack
emulation.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def ip_to_int(address: str) -> int:
    """Convert dotted-quad notation to a 32-bit integer."""
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad notation."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclasses.dataclass(frozen=True)
class AddressBlock:
    """A CIDR block of IPv4 addresses."""

    network: str
    prefix_length: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_length <= 32:
            raise ValueError(f"invalid prefix length: {self.prefix_length}")
        base = ip_to_int(self.network)
        if base & (self.size - 1):
            raise ValueError(
                f"{self.network}/{self.prefix_length} is not aligned to its prefix"
            )

    @property
    def size(self) -> int:
        """Number of addresses in the block."""
        return 1 << (32 - self.prefix_length)

    @property
    def base_int(self) -> int:
        """Integer value of the network address."""
        return ip_to_int(self.network)

    @property
    def cidr(self) -> str:
        """Canonical CIDR notation."""
        return f"{self.network}/{self.prefix_length}"

    def __contains__(self, address: str) -> bool:
        value = ip_to_int(address)
        return self.base_int <= value < self.base_int + self.size

    def address_at(self, offset: int) -> str:
        """Address at a given offset into the block."""
        if not 0 <= offset < self.size:
            raise IndexError(f"offset {offset} outside block {self.cidr}")
        return int_to_ip(self.base_int + offset)


#: NCSA's production /16 (the space mass scanners sweep in Fig. 1).
PRODUCTION_NETWORK = AddressBlock("141.142.0.0", 16)

#: Secondary production range seen in the paper's Graphviz excerpt.
SECONDARY_NETWORK = AddressBlock("143.219.0.0", 16)

#: The dedicated /24 testbed segment holding the honeypot entry points.
TESTBED_NETWORK = AddressBlock("141.142.230.0", 24)


class AddressAllocator:
    """Sequentially allocates host addresses out of a block."""

    def __init__(self, block: AddressBlock, *, reserve_network_and_broadcast: bool = True) -> None:
        self.block = block
        self._next_offset = 1 if reserve_network_and_broadcast else 0
        self._reserved_tail = 1 if reserve_network_and_broadcast else 0
        self._allocated: dict[str, str] = {}

    @property
    def remaining(self) -> int:
        """Number of addresses still available."""
        return self.block.size - self._reserved_tail - self._next_offset

    def allocate(self, label: str) -> str:
        """Allocate the next free address for ``label``."""
        if label in self._allocated:
            return self._allocated[label]
        if self.remaining <= 0:
            raise RuntimeError(f"address block {self.block.cidr} exhausted")
        address = self.block.address_at(self._next_offset)
        self._next_offset += 1
        self._allocated[label] = address
        return address


def random_external_address(rng: np.random.Generator, *, exclude: tuple[AddressBlock, ...] = ()) -> str:
    """A random public-looking address outside the given blocks."""
    exclude = exclude or (PRODUCTION_NETWORK, SECONDARY_NETWORK)
    while True:
        first = int(rng.integers(1, 224))
        if first in (10, 127, 172, 192):
            continue
        address = f"{first}.{rng.integers(0, 256)}.{rng.integers(0, 256)}.{rng.integers(1, 255)}"
        if not any(address in block for block in exclude):
            return address


__all__ = [
    "ip_to_int",
    "int_to_ip",
    "AddressBlock",
    "AddressAllocator",
    "PRODUCTION_NETWORK",
    "SECONDARY_NETWORK",
    "TESTBED_NETWORK",
    "random_external_address",
]
