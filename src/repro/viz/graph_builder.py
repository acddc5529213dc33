"""Connection-graph construction for the Fig. 1 visualisation.

Fig. 1 is a graph of one hour of border traffic: nodes are IP
addresses, edges are connections.  It mixes (A) the 10,000 most
frequent scans sampled from one mass scanner, (C) smaller scanners,
(D) legitimate connections recorded by Zeek, and (B) a real attack --
two connections from an external attacker to two internal hosts.  The
published graph has 29,075 nodes and 27,336 edges.

:class:`ConnectionGraphBuilder` assembles that graph (as a
:class:`networkx.DiGraph`) from the same inputs the paper used: the
black-hole router's scan records, Zeek connection records, and the
attack ground truth used for annotation.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence

import networkx as nx

from ..telemetry.zeek import ConnRecord
from ..testbed.bhr import ScanRecord

#: Node role labels used by the annotator and the exporters.
ROLE_SCANNER = "mass_scanner"
ROLE_MINOR_SCANNER = "scanner"
ROLE_ATTACKER = "attacker"
ROLE_TARGET = "target"
ROLE_INTERNAL = "internal"
ROLE_EXTERNAL = "external"


@dataclasses.dataclass(frozen=True)
class GraphStats:
    """Size statistics of a built graph (the numbers quoted in Fig. 1)."""

    nodes: int
    edges: int
    scanner_edges: int
    legitimate_edges: int
    attack_edges: int


class ConnectionGraphBuilder:
    """Builds the Fig. 1-style connection graph."""

    def __init__(self, *, internal_prefixes: Sequence[str] = ("141.142.", "143.219.")) -> None:
        self.internal_prefixes = tuple(internal_prefixes)
        self.graph = nx.DiGraph()
        self._scanner_edges = 0
        self._legitimate_edges = 0
        self._attack_edges = 0

    # ------------------------------------------------------------------
    def _node_role(self, address: str) -> str:
        if any(address.startswith(prefix) for prefix in self.internal_prefixes):
            return ROLE_INTERNAL
        return ROLE_EXTERNAL

    def _ensure_node(self, address: str, **attrs) -> None:
        if address not in self.graph:
            self.graph.add_node(address, role=self._node_role(address), **attrs)
        else:
            self.graph.nodes[address].update({k: v for k, v in attrs.items() if v is not None})

    def _add_edge(self, source: str, destination: str, kind: str, **attrs) -> None:
        self._ensure_node(source)
        self._ensure_node(destination)
        if self.graph.has_edge(source, destination):
            self.graph[source][destination]["weight"] += 1
        else:
            self.graph.add_edge(source, destination, kind=kind, weight=1, **attrs)

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def add_scan_records(
        self, records: Iterable[ScanRecord], *, dominant_scanner: Optional[str] = None
    ) -> int:
        """Add black-hole-router scan records (Fig. 1 parts A and C)."""
        added = 0
        for record in records:
            self._add_edge(record.source_ip, record.destination_ip, "scan",
                           port=record.destination_port)
            self._scanner_edges += 1
            added += 1
        if dominant_scanner is not None and dominant_scanner in self.graph:
            self.graph.nodes[dominant_scanner]["role"] = ROLE_SCANNER
        return added

    def add_connections(self, records: Iterable[ConnRecord]) -> int:
        """Add legitimate Zeek connection records (Fig. 1 part D)."""
        added = 0
        for record in records:
            self._add_edge(record.orig_h, record.resp_h, "connection",
                           service=record.service)
            self._legitimate_edges += 1
            added += 1
        return added

    def add_attack(self, attacker_ip: str, target_ips: Sequence[str]) -> int:
        """Add the real attack's connections (Fig. 1 part B)."""
        for target in target_ips:
            self._add_edge(attacker_ip, target, "attack")
            self.graph.nodes[target]["role"] = ROLE_TARGET
            self._attack_edges += 1
        self.graph.nodes[attacker_ip]["role"] = ROLE_ATTACKER
        return len(target_ips)

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def stats(self) -> GraphStats:
        """Node/edge counts of the built graph."""
        return GraphStats(
            nodes=self.graph.number_of_nodes(),
            edges=self.graph.number_of_edges(),
            scanner_edges=self._scanner_edges,
            legitimate_edges=self._legitimate_edges,
            attack_edges=self._attack_edges,
        )

    def nodes_with_role(self, role: str) -> list[str]:
        """Addresses of nodes with a given role label."""
        return [n for n, data in self.graph.nodes(data=True) if data.get("role") == role]

    def to_graphviz(self, *, anonymize: bool = True, max_edges: Optional[int] = None) -> str:
        """Render the edge list in the Graphviz digraph format of §II.B.

        With ``anonymize`` (the default, matching the paper) only the
        first two octets of each address are printed.
        """
        from ..telemetry.logsource import anonymize_ip

        lines = ["digraph {"]
        for index, (source, destination) in enumerate(self.graph.edges):
            if max_edges is not None and index >= max_edges:
                lines.append("  ...")
                break
            if anonymize:
                source_label = anonymize_ip(source).rsplit(".", 2)[0] + "."
                dest_label = anonymize_ip(destination).rsplit(".", 2)[0] + "."
            else:
                source_label, dest_label = source, destination
            lines.append(f"  \"{source_label}\" -> \"{dest_label}\"")
        lines.append("}")
        return "\n".join(lines)


__all__ = [
    "ROLE_SCANNER",
    "ROLE_MINOR_SCANNER",
    "ROLE_ATTACKER",
    "ROLE_TARGET",
    "ROLE_INTERNAL",
    "ROLE_EXTERNAL",
    "GraphStats",
    "ConnectionGraphBuilder",
]
