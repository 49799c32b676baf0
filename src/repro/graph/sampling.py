"""Neighbourhood sampling used to build account-centred subgraphs (Eq. 2).

Sampling is one array-native pass over the graph's CSR row index: each hop
gathers every frontier node's incident edge slots at once
(:meth:`~repro.graph.txgraph.TxGraph.gather_slots`), ranks only the nodes
with more than ``k`` incident edges, induces the ego set's edges with a
membership mask, truncates by induced degree when ``max_nodes`` asks for it,
and builds only the graph it returns.  No per-node Python loop runs and no
intermediate :class:`~repro.graph.txgraph.TxGraph` is built.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.graph.txgraph import TxGraph

__all__ = ["top_k_neighbors", "ego_subgraph"]


def _incident(graph: TxGraph, ids: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every edge incident to the nodes ``ids``, out-edges before in-edges.

    Returns ``(owner, others, slots)``: the row of ``ids`` each edge belongs
    to, the node index at its other end and its edge slot.  A self-loop is
    listed twice, once per direction.
    """
    src, dst, _amount, _count, _ts = graph.edge_arrays()
    out_slots, out_len = graph.gather_slots(ids)
    in_slots, in_len = graph.gather_slots(ids, incoming=True)
    rows = np.arange(len(ids))
    owner = np.concatenate([np.repeat(rows, out_len), np.repeat(rows, in_len)])
    others = np.concatenate([dst[out_slots], src[in_slots]])
    return owner, others, np.concatenate([out_slots, in_slots])


def _top_k(graph: TxGraph, owner: np.ndarray, others: np.ndarray,
           slots: np.ndarray, k: int, ordered: bool,
           ) -> tuple[np.ndarray, np.ndarray]:
    """Each owner's top-``k`` neighbours under the Eq. 2 value ranking.

    ``owner`` / ``others`` / ``slots`` list the owners' incident edges with
    self-loops removed (see :func:`_incident`).  Returns the ``(owner,
    neighbour)`` pairs kept, grouped by owner.  With ``ordered`` each owner's
    neighbours come in rank order; without it only the kept *set* is exact,
    which is all hop expansion needs.

    The rule (see :func:`top_k_neighbors`): best per-direction average
    descending, then total descending, then ``str(node)`` ascending, then
    node index.  One ``np.lexsort`` orders everything but the string key;
    ``str`` is consulted only inside runs of equal (best, total) that the
    cut at ``k`` splits — or, when ``ordered``, that start before it.
    """
    if not len(owner):
        return owner, others
    _src, _dst, amount_col, count_col, _ts = graph.edge_arrays()
    amounts = amount_col[slots]
    avgs = amounts / np.maximum(count_col[slots], 1)
    # Group by (owner, neighbour).  A pair has at most two edges (one per
    # direction), so bincount's left-fold total does not depend on their
    # order, and the best average is an exact max.
    n = graph.num_nodes
    pairs, inverse = np.unique(owner * n + others, return_inverse=True)
    totals = np.bincount(inverse, weights=amounts, minlength=len(pairs))
    best = np.full(len(pairs), -np.inf)
    np.maximum.at(best, inverse, avgs)
    best = np.maximum(best, 0.0)
    own, nbr = np.divmod(pairs, n)
    order = np.lexsort((nbr, -totals, -best, own))
    own, nbr, best, totals = own[order], nbr[order], best[order], totals[order]
    size = len(own)
    owner_start = np.flatnonzero(np.r_[True, own[1:] != own[:-1]])
    place = np.arange(size) - np.repeat(
        owner_start, np.diff(np.r_[owner_start, size]))
    # Runs of equal (owner, best, total): the ties the string key orders.
    starts = np.flatnonzero(np.r_[True, (own[1:] != own[:-1])
                                  | (best[1:] != best[:-1])
                                  | (totals[1:] != totals[:-1])])
    ends = np.r_[starts[1:], size]
    first_place = place[starts]
    if ordered:
        resolve = (first_place < k) & (ends - starts > 1)
    else:
        resolve = (first_place < k) & (first_place + (ends - starts) > k)
    node_order = graph.node_order
    for start, end in zip(starts[resolve].tolist(), ends[resolve].tolist()):
        # Stable: equal strings keep ascending node index.
        nbr[start:end] = sorted(nbr[start:end].tolist(),
                                key=lambda i: str(node_order[i]))
    keep = place < k
    return own[keep], nbr[keep]


def top_k_neighbors(graph: TxGraph, node: Hashable, k: int) -> list[Hashable]:
    """Return up to ``k`` neighbours of ``node``, highest-value first.

    Each neighbour is scored by its **best per-direction average transaction
    value**: for the (at most two) merged directed edges connecting it with
    ``node``, the maximum of ``edge.amount / edge.count`` — the per-direction
    mean transfer size of Section III-B1's value ranking.  Ties on that best
    average are broken by the **total** amount transferred across both
    directions (descending), and remaining ties by the string form of the
    node identifier (ascending), so the ranking is fully deterministic.
    Self-loops never rank.

    The scoring runs on the graph's edge columns (amount/count gathered by
    the CSR row index).  It is the same ranking code hop expansion in
    :func:`ego_subgraph` runs, asked for the full order instead of the set.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if node not in graph:
        return []
    idx = graph.node_index(node)
    owner, others, slots = _incident(graph, np.array([idx]))
    ranks = others != idx
    _owner, top = _top_k(graph, owner[ranks], others[ranks], slots[ranks], k,
                         ordered=True)
    node_order = graph.node_order
    return [node_order[i] for i in top.tolist()]


def _expand(graph: TxGraph, frontier: np.ndarray, k: int) -> np.ndarray:
    """The node indices ``frontier`` contributes to the next hop, with repeats.

    A node with at most ``k`` incident edges contributes every neighbour (a
    self-loop names the node itself, which is already selected); the others
    contribute their top-``k`` neighbours.
    """
    owner, others, slots = _incident(graph, frontier)
    loop = others == frontier[owner]
    width = len(frontier)
    # TxGraph.degree: a self-loop is listed twice here but counts once.
    degree = (np.bincount(owner, minlength=width)
              - np.bincount(owner[loop], minlength=width) // 2)
    ranked = (degree > k)[owner]
    ranks = ranked & ~loop
    _owner, top = _top_k(graph, owner[ranks], others[ranks], slots[ranks], k,
                         ordered=False)
    return np.concatenate([others[~ranked], top])


def ego_subgraph(graph: TxGraph, center: Hashable, hops: int = 2, k: int = 2000,
                 max_nodes: int | None = None) -> TxGraph:
    """Extract the ``hops``-hop top-K ego subgraph around ``center``.

    This implements the iterative sampling of Eq. 2: starting from the centre,
    each frontier node contributes its top-K neighbours (by average transaction
    value, :func:`top_k_neighbors`) to the next frontier, and the union of all
    sampled nodes induces the returned subgraph.

    With ``max_nodes`` set and the ego set larger than it, the sample is
    truncated to the centre plus the ``max_nodes - 1`` other nodes of highest
    degree within the ego subgraph (ties by node insertion order).  Nodes and
    edges keep the graph's insertion order either way.

    Everything runs on the graph's row index and edge columns; the only graph
    built is the one returned.  Reads only what :meth:`TxGraph.warm` builds,
    with per-call work arrays, so concurrent readers may sample at once.
    """
    if center not in graph:
        raise KeyError(f"center node {center!r} is not in the graph")
    if k < 0:
        raise ValueError("k must be >= 0")
    if max_nodes is not None and max_nodes < 1:
        raise ValueError("max_nodes must be a positive integer or None")
    src, dst, _amount, _count, _ts = graph.edge_arrays()
    c = graph.node_index(center)
    selected = np.zeros(graph.num_nodes, dtype=bool)
    selected[c] = True
    frontier = np.array([c])
    parts = [frontier]
    for _hop in range(hops):
        reached = _expand(graph, frontier, k)
        frontier = np.unique(reached[~selected[reached]])
        if not len(frontier):
            break
        selected[frontier] = True
        parts.append(frontier)
    ids = np.sort(np.concatenate(parts))
    # Induced edges: the selected nodes' out-edges into the set, slot order.
    cand, _lengths = graph.gather_slots(ids)
    slots = np.sort(cand[selected[dst[cand]]])
    if max_nodes is not None and len(ids) > max_nodes:
        local_src = np.searchsorted(ids, src[slots])
        local_dst = np.searchsorted(ids, dst[slots])
        width = len(ids)
        # TxGraph.degree_vector of the ego subgraph: a self-loop counts once.
        loop = local_src == local_dst
        degree = (np.bincount(local_src, minlength=width)
                  + np.bincount(local_dst, minlength=width)
                  - np.bincount(local_src[loop], minlength=width))
        c_local = int(np.searchsorted(ids, c))
        others = np.flatnonzero(np.arange(width) != c_local)
        # Stable, so degree ties keep insertion order: np.argsort's default
        # kind is not stable.
        by_degree = np.argsort(-degree[others], kind="stable")
        keep = np.zeros(width, dtype=bool)
        keep[c_local] = True
        keep[others[by_degree[:max_nodes - 1]]] = True
        slots = slots[keep[local_src] & keep[local_dst]]
        ids = ids[keep]
    return graph.subgraph_by_index(ids, slots)
