"""Row-at-a-time reference graph, plus building and reading helpers for tests.

``DictGraphReference`` re-implements the merged-edge semantics of
``TxGraph`` with the simplest possible data structures: one merged
:class:`Edge` per ordered pair in a global insertion-ordered dict plus
per-node out/in dicts, fed only by sequential ``add_edge`` calls.  The
property tests apply arbitrary row programs to both and require the columnar
graph to be bit-identical — including edge iteration order.

The helpers below are how tests build and read a ``TxGraph``.  They build
through its one write path, ``add_edges_bulk`` (:func:`add_edge` is a
single-row call), and take an isolated node from ``subgraph_by_index``, the
way a truncated sample gets one (:func:`graph_with_nodes`).  They read edge
tuples, per-node rows, neighbours, induced subgraphs and a networkx view from
``edge_arrays()`` and ``gather_slots``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple

import numpy as np

from repro.graph.txgraph import TxGraph

__all__ = ["DictGraphReference", "Edge", "add_edge", "add_rows", "build_graph",
           "graph_with_nodes", "edge_list", "exact", "out_edges", "in_edges",
           "neighbors", "get_edge", "has_edge", "edges_between",
           "induced_subgraph", "to_networkx"]


class Edge(NamedTuple):
    """One merged directed edge, as a record."""

    src: Hashable
    dst: Hashable
    amount: float = 0.0
    count: int = 1
    timestamp: float = 0.0


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


# ------------------------------------------------------------------ building
def add_rows(graph: TxGraph, rows: Iterable[tuple]) -> TxGraph:
    """One ``add_edges_bulk`` call over ``(src, dst, amount, count,
    timestamp)`` rows (trailing fields default to 0.0 / 1 / 0.0)."""
    rows = [Edge(*row) for row in rows]
    if rows:
        src, dst, amounts, counts, timestamps = zip(*rows)
        graph.add_edges_bulk(np.array(src), np.array(dst),
                             amounts=np.array(amounts, dtype=np.float64),
                             counts=np.array(counts, dtype=np.int64),
                             timestamps=np.array(timestamps, dtype=np.float64))
    return graph


def add_edge(graph: TxGraph, src: Hashable, dst: Hashable, amount: float = 0.0,
             count: int = 1, timestamp: float = 0.0) -> None:
    """One transaction, as a single-row ``add_edges_bulk`` call."""
    add_rows(graph, [(src, dst, amount, count, timestamp)])


def graph_with_nodes(nodes: Iterable[Hashable]) -> TxGraph:
    """An edgeless graph on ``nodes``, in that order (repeats once).

    The nodes come from a graph with one self-loop each, whose edges
    ``subgraph_by_index`` then leaves out.
    """
    nodes = list(dict.fromkeys(nodes))
    if not nodes:
        return TxGraph()
    looped = add_rows(TxGraph(), [(node, node) for node in nodes])
    return looped.subgraph_by_index(np.arange(len(nodes)),
                                    np.empty(0, dtype=np.int64))


def build_graph(rows: Iterable[tuple] = (), nodes: Iterable[Hashable] = ()) -> TxGraph:
    """``nodes`` first, in order, then one ``add_edges_bulk`` call over
    ``rows``; a node of ``nodes`` no row names stays isolated."""
    return add_rows(graph_with_nodes(nodes), rows)


# ------------------------------------------------------------------- reading
def _records(graph: TxGraph, slots) -> list[Edge]:
    src, dst, amount, count, stamps = graph.edge_arrays()
    order = graph.node_order
    slots = np.asarray(slots, dtype=np.int64)
    return [Edge(order[u], order[v], a, c, t) for u, v, a, c, t in zip(
        src[slots].tolist(), dst[slots].tolist(), amount[slots].tolist(),
        count[slots].tolist(), stamps[slots].tolist())]


def edge_list(graph: TxGraph) -> list[Edge]:
    """Every edge, in slot (global first-insertion) order."""
    return _records(graph, np.arange(graph.num_edges))


def exact(edges: Iterable[Edge]) -> list[tuple]:
    """Edges keyed for bitwise comparison: ``-0.0`` differs from ``0.0``."""
    return [(e.src, e.dst, float(e.amount).hex(), e.count, float(e.timestamp).hex())
            for e in edges]


def _row(graph: TxGraph, node: Hashable, incoming: bool) -> list[Edge]:
    if node not in graph:
        return []
    slots, _lengths = graph.gather_slots(np.array([graph.node_index(node)]),
                                         incoming=incoming)
    return _records(graph, slots)


def out_edges(graph: TxGraph, node: Hashable) -> list[Edge]:
    """``node``'s out-edges in insertion order (none for an unknown node)."""
    return _row(graph, node, incoming=False)


def in_edges(graph: TxGraph, node: Hashable) -> list[Edge]:
    """``node``'s in-edges in insertion order (none for an unknown node)."""
    return _row(graph, node, incoming=True)


def neighbors(graph: TxGraph, node: Hashable) -> set[Hashable]:
    """Successors and predecessors of ``node``."""
    return ({e.dst for e in out_edges(graph, node)}
            | {e.src for e in in_edges(graph, node)})


def get_edge(graph: TxGraph, src: Hashable, dst: Hashable) -> Edge:
    """The merged edge ``src -> dst``; ``KeyError`` when there is none."""
    for edge in out_edges(graph, src):
        if edge.dst == dst:
            return edge
    raise KeyError((src, dst))


def has_edge(graph: TxGraph, src: Hashable, dst: Hashable) -> bool:
    return any(edge.dst == dst for edge in out_edges(graph, src))


def edges_between(graph: TxGraph, u: Hashable, v: Hashable) -> list[Edge]:
    """``[u -> v]``, ``[v -> u]``, both (forward first) or none; a self pair
    gives its loop once."""
    forward = [e for e in out_edges(graph, u) if e.dst == v]
    backward = [] if u == v else [e for e in out_edges(graph, v) if e.dst == u]
    return forward + backward


def induced_subgraph(graph: TxGraph, nodes: Iterable[Hashable]) -> TxGraph:
    """The subgraph induced on ``nodes`` (unknown ones ignored), in the
    parent's node and edge order."""
    ids = np.array(sorted({graph.node_index(node) for node in nodes if node in graph}),
                   dtype=np.int64)
    src, dst, _amount, _count, _ts = graph.edge_arrays()
    keep = np.zeros(graph.num_nodes, dtype=bool)
    keep[ids] = True
    return graph.subgraph_by_index(ids, np.flatnonzero(keep[src] & keep[dst]))


def to_networkx(graph: TxGraph):
    """A :class:`networkx.DiGraph` view with the edge payloads as attributes."""
    import networkx as nx

    view = nx.DiGraph()
    view.add_nodes_from(graph.nodes)
    for edge in edge_list(graph):
        view.add_edge(edge.src, edge.dst, amount=edge.amount, count=edge.count,
                      timestamp=edge.timestamp)
    return view
