"""Random-walk samplers over :class:`~repro.graph.TxGraph` subgraphs."""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.graph.sampling import _incident
from repro.graph.txgraph import TxGraph

__all__ = ["random_walks", "node2vec_walks", "trans2vec_walks"]


def _incident_rows(graph: TxGraph) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each node's incident edges, in node order, from the row index.

    A row is ``(others, slots)``: the node index at each edge's other end
    and its edge slot, out-edges before in-edges, each in insertion order
    (sampling's gather, grouped by node).  A self-loop is listed twice, once
    per direction.
    """
    owner, others, slots = _incident(graph, np.arange(graph.num_nodes))
    order = np.argsort(owner, kind="stable")
    others, slots = others[order], slots[order]
    ends = np.cumsum(np.bincount(owner, minlength=graph.num_nodes)).tolist()
    return [(others[start:end], slots[start:end])
            for start, end in zip([0] + ends[:-1], ends)]


def _neighbor_lists(graph: TxGraph) -> dict[Hashable, list[Hashable]]:
    """Each node's neighbours in either direction, sorted by ``str`` (a
    self-loop makes a node its own neighbour)."""
    node_order = graph.node_order
    return {node: sorted(map(node_order.__getitem__, set(others.tolist())), key=str)
            for node, (others, _slots) in zip(node_order, _incident_rows(graph))}


def random_walks(graph: TxGraph, walk_length: int = 30, walks_per_node: int = 10,
                 seed: int = 0) -> list[list[Hashable]]:
    """Uniform random walks (DeepWalk-style)."""
    rng = np.random.default_rng(seed)
    neighbors = _neighbor_lists(graph)
    walks = []
    for _ in range(walks_per_node):
        for start in graph.nodes:
            walk = [start]
            current = start
            for _step in range(walk_length - 1):
                options = neighbors[current]
                if not options:
                    break
                current = options[int(rng.integers(0, len(options)))]
                walk.append(current)
            walks.append(walk)
    return walks


def node2vec_walks(graph: TxGraph, walk_length: int = 30, walks_per_node: int = 10,
                   p: float = 1.0, q: float = 1.0, seed: int = 0) -> list[list[Hashable]]:
    """Biased second-order walks (Grover & Leskovec 2016).

    ``p`` controls the likelihood of returning to the previous node, ``q``
    interpolates between BFS-like (q > 1) and DFS-like (q < 1) exploration.
    """
    rng = np.random.default_rng(seed)
    neighbors = _neighbor_lists(graph)
    members = {node: set(options) for node, options in neighbors.items()}
    walks = []
    for _ in range(walks_per_node):
        for start in graph.nodes:
            walk = [start]
            for _step in range(walk_length - 1):
                current = walk[-1]
                options = neighbors[current]
                if not options:
                    break
                if len(walk) == 1:
                    nxt = options[int(rng.integers(0, len(options)))]
                else:
                    previous = walk[-2]
                    weights = np.empty(len(options))
                    prev_nbrs = members[previous]
                    for i, candidate in enumerate(options):
                        if candidate == previous:
                            weights[i] = 1.0 / p
                        elif candidate in prev_nbrs:
                            weights[i] = 1.0
                        else:
                            weights[i] = 1.0 / q
                    weights /= weights.sum()
                    nxt = options[int(rng.choice(len(options), p=weights))]
                walk.append(nxt)
            walks.append(walk)
    return walks


def trans2vec_walks(graph: TxGraph, walk_length: int = 30, walks_per_node: int = 10,
                    amount_bias: float = 0.5, seed: int = 0) -> list[list[Hashable]]:
    """Transaction-aware walks biased by edge amount and recency (Trans2Vec-style).

    The transition probability to a neighbour mixes the (normalised) total
    transferred amount and the (normalised) edge timestamp with weight
    ``amount_bias`` vs ``1 - amount_bias``.
    """
    if not 0.0 <= amount_bias <= 1.0:
        raise ValueError("amount_bias must be in [0, 1]")
    rng = np.random.default_rng(seed)
    _src, _dst, amount, _count, stamps = graph.edge_arrays()
    t_min, t_max = (float(stamps.min()), float(stamps.max())) if len(stamps) else (0.0, 0.0)
    t_span = (t_max - t_min) or 1.0
    recency = (stamps - t_min) / t_span
    edge_scores = amount_bias * amount + (1.0 - amount_bias) * (recency + 1e-6)
    node_order = graph.node_order
    transitions: dict[Hashable, tuple[list[Hashable], np.ndarray]] = {}
    for idx, (others, slots) in enumerate(_incident_rows(graph)):
        not_self = others != idx
        others = others[not_self]
        # Each neighbour's score folds its out-edge's before its in-edge's,
        # and ties of the str sort keep first-met order.
        uniq, first, inverse = np.unique(others, return_index=True,
                                         return_inverse=True)
        totals = np.bincount(inverse, weights=edge_scores[slots[not_self]],
                             minlength=len(uniq))
        met = np.argsort(first, kind="stable")
        ranked = sorted(met.tolist(), key=lambda j: str(node_order[uniq[j]]))
        if ranked:
            raw = totals[ranked] + 1e-12
            transitions[node_order[idx]] = (
                [node_order[uniq[j]] for j in ranked], raw / raw.sum())
        else:
            transitions[node_order[idx]] = ([], np.zeros(0))

    walks = []
    for _ in range(walks_per_node):
        for start in graph.nodes:
            walk = [start]
            current = start
            for _step in range(walk_length - 1):
                options, probs = transitions[current]
                if not options:
                    break
                current = options[int(rng.choice(len(options), p=probs))]
                walk.append(current)
            walks.append(walk)
    return walks
