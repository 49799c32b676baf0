"""Per-node reference sampler for parity testing.

The sampling code ``repro.graph.sampling`` and ``repro.data.dataset`` ran
before ego sampling became one array pass over the row index: a Python loop
over each frontier node, a ``sorted`` top-K ranking per node with more than
``k`` incident edges, one induced-subgraph build for the ego set and a
second one after truncating it by degree.  It reads the graph one node at a
time: ``degree``, ``degree_vector``, single-node ``gather_slots`` and the
per-node readers of ``tests/_dict_reference.py`` (neighbours, induced
subgraphs).  The property tests in
``tests/test_graph_sampling_property.py`` require the array-native sampler to
equal it bit for bit, tie-breaks included.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.graph.txgraph import TxGraph

from tests._dict_reference import induced_subgraph, neighbors

__all__ = ["reference_top_k_neighbors", "reference_ego_subgraph",
           "reference_truncate", "reference_sample_graph"]


def reference_top_k_neighbors(graph: TxGraph, node: Hashable,
                              k: int) -> list[Hashable]:
    """Up to ``k`` neighbours: best per-direction average, then total
    (out-edges folded before in-edges), then ``str(node)``; no self-loops."""
    if node not in graph:
        return []
    idx = graph.node_index(node)
    src_ids, dst_ids, amount_col, count_col, _ts = graph.edge_arrays()
    out_slots, _length = graph.gather_slots(np.array([idx]))
    in_slots, _length = graph.gather_slots(np.array([idx]), incoming=True)
    others = np.concatenate([dst_ids[out_slots], src_ids[in_slots]])
    slots = np.concatenate([out_slots, in_slots])
    not_self = others != idx
    others, slots = others[not_self], slots[not_self]
    if not len(others):
        return []
    amounts = amount_col[slots]
    avgs = amounts / np.maximum(count_col[slots], 1)
    uniq, inverse = np.unique(others, return_inverse=True)
    totals = np.bincount(inverse, weights=amounts, minlength=len(uniq))
    best = np.full(len(uniq), -np.inf)
    np.maximum.at(best, inverse, avgs)
    best = np.maximum(best, 0.0)
    node_order = graph.node_order
    ranked = sorted(
        zip(uniq.tolist(), best.tolist(), totals.tolist()),
        key=lambda item: (-item[1], -item[2], str(node_order[item[0]])))
    return [node_order[i] for i, _best, _total in ranked[:k]]


def reference_ego_subgraph(graph: TxGraph, center: Hashable, hops: int = 2,
                           k: int = 2000) -> TxGraph:
    """The untruncated Eq. 2 ego graph, one frontier node at a time."""
    if center not in graph:
        raise KeyError(f"center node {center!r} is not in the graph")
    selected: set[Hashable] = {center}
    frontier: set[Hashable] = {center}
    for _hop in range(hops):
        next_frontier: set[Hashable] = set()
        for node in frontier:
            # With at most k incident edges every neighbour ranks in the top-k;
            # the centre itself (a self-loop "neighbour") is already selected.
            if graph.degree(node) <= k:
                candidates = neighbors(graph, node)
            else:
                candidates = reference_top_k_neighbors(graph, node, k)
            for neighbor in candidates:
                if neighbor not in selected:
                    next_frontier.add(neighbor)
        selected |= next_frontier
        frontier = next_frontier
        if not frontier:
            break
    return induced_subgraph(graph, selected)


def reference_truncate(sub: TxGraph, center: Hashable, max_nodes: int) -> TxGraph:
    """Keep the centre plus the highest-degree nodes (stable: insertion order)."""
    degrees = sub.degree_vector()
    ranked = sorted((node for node in sub.nodes if node != center),
                    key=lambda n: -degrees[sub.node_index(n)])
    keep = [center] + ranked[:max_nodes - 1]
    return induced_subgraph(sub, keep)


def reference_sample_graph(graph: TxGraph, center: Hashable, hops: int, k: int,
                           max_nodes: int) -> TxGraph:
    """The graph ``SubgraphDatasetBuilder.build_sample`` kept: ego, then truncate."""
    sub = reference_ego_subgraph(graph, center, hops=hops, k=k)
    if sub.num_nodes > max_nodes:
        sub = reference_truncate(sub, center, max_nodes)
    return sub
