"""Pure-sequential dict-backed reference graph for parity testing.

``DictGraphReference`` re-implements the pre-columnar ``TxGraph`` semantics
with the simplest possible data structures: one merged ``Edge`` per ordered
pair in a global insertion-ordered dict plus per-node out/in dicts, fed only
by sequential ``add_edge`` calls.  The property tests replay arbitrary
interleavings of ``add_edge`` / ``add_edges_bulk`` against it and require the
columnar graph to be bit-identical — including edge iteration order.
"""

from __future__ import annotations

from typing import Hashable

from repro.graph.txgraph import Edge

__all__ = ["DictGraphReference"]


class DictGraphReference:
    def __init__(self):
        self._nodes: dict[Hashable, int] = {}
        self._node_order: list[Hashable] = []
        self._edges: dict[tuple[Hashable, Hashable], Edge] = {}
        self._out: dict[Hashable, dict[Hashable, Edge]] = {}
        self._in: dict[Hashable, dict[Hashable, Edge]] = {}

    def add_node(self, node: Hashable) -> None:
        if node not in self._nodes:
            self._nodes[node] = len(self._node_order)
            self._node_order.append(node)
            self._out[node] = {}
            self._in[node] = {}

    def add_edge(self, src: Hashable, dst: Hashable, amount: float = 0.0,
                 count: int = 1, timestamp: float = 0.0) -> None:
        self.add_node(src)
        self.add_node(dst)
        key = (src, dst)
        existing = self._edges.get(key)
        if existing is None:
            edge = Edge(src, dst, amount, count, timestamp)
        else:
            total = existing.count + count
            if total > 0:
                mean_ts = (existing.timestamp * existing.count
                           + timestamp * count) / total
            else:
                mean_ts = existing.timestamp
            edge = Edge(src, dst, existing.amount + amount, total, mean_ts)
        # Re-assigning an existing key keeps its dict position, so edge
        # iteration order is stable under merges.
        self._edges[key] = edge
        self._out[src][dst] = edge
        self._in[dst][src] = edge

    @property
    def nodes(self) -> list[Hashable]:
        return list(self._node_order)

    @property
    def edges(self) -> list[Edge]:
        return list(self._edges.values())

    @property
    def num_nodes(self) -> int:
        return len(self._node_order)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def out_edges(self, node: Hashable):
        return list(self._out.get(node, {}).values())

    def in_edges(self, node: Hashable):
        return list(self._in.get(node, {}).values())

    def neighbors(self, node: Hashable) -> set[Hashable]:
        return set(self._out.get(node, ())) | set(self._in.get(node, ()))

    def degree(self, node: Hashable) -> int:
        out_nbrs = self._out.get(node)
        in_nbrs = self._in.get(node)
        if out_nbrs is None and in_nbrs is None:
            return 0
        loop = 1 if out_nbrs and node in out_nbrs else 0
        return len(out_nbrs or ()) + len(in_nbrs or ()) - loop

    def edges_between(self, u: Hashable, v: Hashable) -> list[Edge]:
        edges = []
        forward = self._edges.get((u, v))
        if forward is not None:
            edges.append(forward)
        if u != v:
            backward = self._edges.get((v, u))
            if backward is not None:
                edges.append(backward)
        return edges

    def subgraph(self, nodes) -> "DictGraphReference":
        keep = {node for node in nodes if node in self._nodes}
        sub = DictGraphReference()
        for node in self._node_order:
            if node in keep:
                sub.add_node(node)
        for (src, dst), edge in self._edges.items():
            if src in keep and dst in keep:
                sub._edges[(src, dst)] = edge
                sub._out[src][dst] = edge
                sub._in[dst][src] = edge
        return sub
