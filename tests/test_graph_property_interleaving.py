"""Property tests: interleaved bulk and single-row writes vs a dict reference.

Hypothesis drives arbitrary interleavings of ``add_edges_bulk`` batches and
single-row ``add_edges_bulk`` calls — with duplicate rows, self-loops, zero
counts, ``-0.0`` amounts and pairs repeated both within and across calls —
and requires the columnar ``TxGraph`` to be **bit-identical** to
:class:`DictGraphReference`, which only ever sees the flattened sequential
row stream: same node order, same edge iteration order, same left-fold
amounts, counts and iterative count-weighted timestamp means (compared by
their bytes, so ``-0.0`` and ``0.0`` differ), and the same per-node out/in
iteration order (after every batch, so the merged row index is checked as it
grows).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import TxGraph

from tests._dict_reference import (
    DictGraphReference,
    add_edge,
    edge_list,
    edges_between,
    exact,
    in_edges,
    induced_subgraph,
    neighbors,
    out_edges,
)

# One row: (src, dst, amount, count, timestamp) over a small node universe so
# duplicates, self-loops and cross-batch pair repeats are frequent.
row = st.tuples(
    st.integers(0, 5), st.integers(0, 5),
    st.one_of(st.just(-0.0), st.floats(0.0, 100.0, allow_nan=False)),
    st.integers(0, 3),
    st.floats(0.0, 1000.0, allow_nan=False))

# A program: sequence of batches, each applied via one add_edges_bulk call
# (True) or one single-row call per row (False).
program = st.lists(
    st.tuples(st.booleans(), st.lists(row, min_size=1, max_size=20)),
    min_size=1, max_size=6)


def apply_program(graph: TxGraph, batches) -> None:
    for bulk, rows in batches:
        if bulk:
            graph.add_edges_bulk(
                np.array([r[0] for r in rows], dtype=np.int64),
                np.array([r[1] for r in rows], dtype=np.int64),
                amounts=np.array([r[2] for r in rows]),
                counts=np.array([r[3] for r in rows], dtype=np.int64),
                timestamps=np.array([r[4] for r in rows]))
        else:
            for src, dst, amount, count, ts in rows:
                add_edge(graph, src, dst, amount=amount, count=count, timestamp=ts)


def apply_sequential(reference: DictGraphReference, batches) -> None:
    for _bulk, rows in batches:
        for src, dst, amount, count, ts in rows:
            reference.add_edge(src, dst, amount=amount, count=count, timestamp=ts)


def assert_bit_identical(graph: TxGraph, reference: DictGraphReference) -> None:
    assert graph.nodes == reference.nodes
    # Global edge iteration order and payloads, bitwise (no approx).
    assert exact(edge_list(graph)) == exact(reference.edges)
    for node in reference.nodes:
        assert exact(out_edges(graph, node)) == exact(reference.out_edges(node))
        assert exact(in_edges(graph, node)) == exact(reference.in_edges(node))
        assert neighbors(graph, node) == reference.neighbors(node)
        assert graph.degree(node) == reference.degree(node)
        for other in reference.nodes:
            assert exact(edges_between(graph, node, other)) == \
                exact(reference.edges_between(node, other))


@settings(max_examples=60, deadline=None)
@given(program)
def test_interleaved_programs_match_sequential_reference(batches):
    """Checked after every batch, so the row index is built, then grown and
    merged batch by batch, not only built once at the end."""
    graph = TxGraph()
    reference = DictGraphReference()
    for batch in batches:
        apply_program(graph, [batch])
        apply_sequential(reference, [batch])
        assert_bit_identical(graph, reference)


@settings(max_examples=30, deadline=None)
@given(program, st.integers(0, 2 ** 31 - 1))
def test_interleaved_subgraphs_match_sequential_reference(batches, seed):
    graph = TxGraph()
    reference = DictGraphReference()
    apply_program(graph, batches)
    apply_sequential(reference, batches)
    rng = np.random.default_rng(seed)
    nodes = reference.nodes
    keep = [n for n in nodes if rng.random() < 0.5]
    sub = induced_subgraph(graph, keep)
    ref_sub = reference.subgraph(keep)
    assert sub.nodes == ref_sub.nodes
    assert exact(edge_list(sub)) == exact(ref_sub.edges)


@settings(max_examples=30, deadline=None)
@given(st.lists(row, min_size=1, max_size=30))
def test_bulk_with_node_keys_matches_sequential_reference(rows):
    node_keys = [f"0x{i:02d}" for i in range(6)]
    graph = TxGraph()
    graph.add_edges_bulk(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64),
        amounts=np.array([r[2] for r in rows]),
        counts=np.array([r[3] for r in rows], dtype=np.int64),
        timestamps=np.array([r[4] for r in rows]),
        node_keys=node_keys)
    reference = DictGraphReference()
    for src, dst, amount, count, ts in rows:
        reference.add_edge(node_keys[src], node_keys[dst], amount=amount,
                           count=count, timestamp=ts)
    assert_bit_identical(graph, reference)


@settings(max_examples=60, deadline=None)
@given(program, st.permutations(range(12)))
def test_node_keys_bulk_interleaved_with_single_rows_matches_reference(
        batches, table_order):
    """The ``node_keys`` path, interleaved with single-row calls: rows name
    nodes by codes into a string table whose order differs from the nodes'
    first appearance and which holds unused entries, and batches are mixed
    with single-row calls by node identifier that create or merge into the
    same nodes."""
    node_keys = [f"0xkey{i:02d}" for i in range(12)]
    code_of = list(table_order[:6])          # node r -> code; six codes unused
    graph = TxGraph()
    reference = DictGraphReference()
    for bulk, rows in batches:
        if bulk:
            graph.add_edges_bulk(
                np.array([code_of[r[0]] for r in rows], dtype=np.int64),
                np.array([code_of[r[1]] for r in rows], dtype=np.int64),
                amounts=np.array([r[2] for r in rows]),
                counts=np.array([r[3] for r in rows], dtype=np.int64),
                timestamps=np.array([r[4] for r in rows]),
                node_keys=node_keys)
        else:
            for src, dst, amount, count, ts in rows:
                add_edge(graph, node_keys[code_of[src]], node_keys[code_of[dst]],
                         amount=amount, count=count, timestamp=ts)
        for src, dst, amount, count, ts in rows:
            reference.add_edge(node_keys[code_of[src]], node_keys[code_of[dst]],
                               amount=amount, count=count, timestamp=ts)
        assert_bit_identical(graph, reference)


@settings(max_examples=30, deadline=None)
@given(st.lists(row, min_size=1, max_size=30))
def test_node_keys_sharing_a_node_merge_like_the_reference(rows):
    """Two codes of one ``node_keys`` table may name the same node; their
    rows then merge into that node's edges, as sequential merges do."""
    node_keys = [f"0x{i % 4:02d}" for i in range(6)]   # codes 4, 5 repeat 0, 1
    graph = TxGraph()
    graph.add_edges_bulk(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64),
        amounts=np.array([r[2] for r in rows]),
        counts=np.array([r[3] for r in rows], dtype=np.int64),
        timestamps=np.array([r[4] for r in rows]),
        node_keys=node_keys)
    reference = DictGraphReference()
    for src, dst, amount, count, ts in rows:
        reference.add_edge(node_keys[src], node_keys[dst], amount=amount,
                           count=count, timestamp=ts)
    assert_bit_identical(graph, reference)
