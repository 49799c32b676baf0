"""Tests for the TxGraph container."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data import adjacency_blocks
from repro.graph import TxGraph
from repro.graph.txgraph import stable_order

from tests._dict_reference import (
    DictGraphReference,
    add_edge,
    add_rows,
    build_graph,
    edge_list,
    exact,
    get_edge,
    graph_with_nodes,
    has_edge,
    in_edges,
    induced_subgraph,
    neighbors,
    out_edges,
    to_networkx,
)


class TestNodes:
    def test_node_index_follows_insertion_order(self):
        g = graph_with_nodes(["x", "y", "z"])
        assert [g.node_index(n) for n in ("x", "y", "z")] == [0, 1, 2]

    def test_repeated_endpoints_make_one_node(self):
        g = build_graph([("a", "b"), ("b", "a"), ("a", "a")])
        assert g.nodes == ["a", "b"]


class TestEdges:
    def test_edge_merging_accumulates_amount_and_count(self, toy_graph):
        edge = get_edge(toy_graph, "a", "b")
        assert edge.amount == pytest.approx(4.0)
        assert edge.count == 2

    def test_edge_merge_keeps_weighted_mean_timestamp(self, toy_graph):
        edge = get_edge(toy_graph, "a", "b")
        assert edge.timestamp == pytest.approx(150.0)

    def test_directed_edges_are_distinct(self):
        g = build_graph([("a", "b", 1.0), ("b", "a", 2.0)])
        assert g.num_edges == 2

    def test_has_edge(self, toy_graph):
        assert has_edge(toy_graph, "a", "b")
        assert not has_edge(toy_graph, "b", "a")

    def test_out_and_in_edges(self, toy_graph):
        out_dsts = {e.dst for e in out_edges(toy_graph, "a")}
        in_srcs = {e.src for e in in_edges(toy_graph, "a")}
        assert out_dsts == {"b", "e"}
        assert in_srcs == {"d"}

    def test_neighbors_union_of_directions(self, toy_graph):
        assert neighbors(toy_graph, "a") == {"b", "d", "e"}

    def test_degree_counts_both_directions(self, toy_graph):
        assert toy_graph.degree("a") == 3


class TestMatrices:
    def test_adjacency_shape_and_entries(self, toy_graph):
        adj = adjacency_blocks([toy_graph])[0]
        assert adj.shape == (5, 5)
        i, j = toy_graph.node_index("a"), toy_graph.node_index("b")
        assert adj[i, j] == adj[j, i] == 1.0
        assert adj[i, toy_graph.node_index("c")] == 0.0

    def test_weighted_adjacency_uses_amounts(self, toy_graph):
        adj = adjacency_blocks([toy_graph], weighted=True)[0]
        i, j = toy_graph.node_index("a"), toy_graph.node_index("b")
        assert adj[i, j] == adj[j, i] == pytest.approx(4.0)

    def test_symmetric_adjacency(self, toy_graph):
        adj = adjacency_blocks([toy_graph])[0]
        np.testing.assert_allclose(adj, adj.T)

    def test_edge_count_column(self, toy_graph):
        _src, _dst, _amount, count, _ts = toy_graph.edge_arrays()
        assert len(count) == toy_graph.num_edges
        assert count.min() >= 1


class TestSubgraph:
    def test_subgraph_keeps_only_internal_edges(self, toy_graph):
        sub = induced_subgraph(toy_graph, ["a", "b", "c"])
        assert sub.num_nodes == 3
        assert has_edge(sub, "a", "b") and has_edge(sub, "b", "c")
        assert not has_edge(sub, "c", "d")

    def test_subgraph_is_independent(self, toy_graph):
        """A subgraph owns its columns: a merge into it, or a new node,
        leaves the parent as it was."""
        before = exact(edge_list(toy_graph))
        sub = induced_subgraph(toy_graph, toy_graph.nodes)
        add_rows(sub, [("a", "b", 5.0, 1, 1.0), ("z", "a", 1.0)])
        assert get_edge(sub, "a", "b").count == 3
        assert not toy_graph.has_node("z")
        assert exact(edge_list(toy_graph)) == before

    def test_networkx_view_counts(self, toy_graph):
        nx_graph = to_networkx(toy_graph)
        assert nx_graph.number_of_nodes() == toy_graph.num_nodes
        assert nx_graph.number_of_edges() == toy_graph.num_edges


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=30))
def test_adjacency_nonzeros_match_edge_count(pairs):
    g = TxGraph()
    for src, dst in pairs:
        add_edge(g, src, dst, amount=1.0)
    src, dst, *_rest = g.edge_arrays()
    assert len(set(zip(src.tolist(), dst.tolist()))) == g.num_edges
    slots = set(zip(src.tolist(), dst.tolist())) | set(zip(dst.tolist(), src.tolist()))
    assert np.count_nonzero(adjacency_blocks([g])[0]) == len(slots)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=20))
def test_subgraph_never_gains_edges(pairs):
    g = build_graph([(src, dst, 1.0) for src, dst in pairs])
    sub = induced_subgraph(g, list(g.nodes)[: max(1, g.num_nodes // 2)])
    assert sub.num_edges <= g.num_edges
    assert sub.num_nodes <= g.num_nodes


def sequential_reference(rows) -> DictGraphReference:
    reference = DictGraphReference()
    for row in rows:
        reference.add_edge(*row)
    return reference


def assert_matches_reference(graph: TxGraph, reference: DictGraphReference) -> None:
    """Node order, edge order and payloads, bitwise (no approx)."""
    assert graph.nodes == reference.nodes
    assert exact(edge_list(graph)) == exact(reference.edges)


class TestAddEdgesBulk:
    """add_edges_bulk must be bit-identical to merging the rows one by one."""

    @staticmethod
    def random_rows(rng, n, num_nodes=9, counts=None, keys=None):
        srcs = rng.integers(0, num_nodes, size=n).tolist()
        dsts = rng.integers(0, num_nodes, size=n).tolist()
        amounts = rng.lognormal(0.0, 1.0, size=n).tolist()
        timestamps = rng.uniform(0.0, 1e6, size=n).tolist()
        counts = [1] * n if counts is None else counts.tolist()
        if keys is not None:
            srcs = [keys[i] for i in srcs]
            dsts = [keys[i] for i in dsts]
        return list(zip(srcs, dsts, amounts, counts, timestamps))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_sequential_reference(self, seed):
        rows = self.random_rows(np.random.default_rng(seed), 400)
        assert_matches_reference(build_graph(rows), sequential_reference(rows))

    def test_matches_with_node_keys_table(self):
        rng = np.random.default_rng(5)
        node_keys = [f"0x{i:02d}" for i in range(9)]
        codes = self.random_rows(rng, 300)
        bulk = TxGraph()
        src, dst, amounts, _counts, timestamps = map(np.array, zip(*codes))
        bulk.add_edges_bulk(src, dst, amounts=amounts, timestamps=timestamps,
                            node_keys=node_keys)
        rows = [(node_keys[s], node_keys[d], a, c, t) for s, d, a, c, t in codes]
        assert_matches_reference(bulk, sequential_reference(rows))
        assert all(isinstance(node, str) for node in bulk.nodes)

    def test_variable_counts_and_zero_count_guard(self):
        rng = np.random.default_rng(9)
        rows = self.random_rows(rng, 200, num_nodes=4,
                                counts=rng.integers(0, 3, size=200))
        assert_matches_reference(build_graph(rows), sequential_reference(rows))

    def test_merges_into_existing_graph(self):
        rng = np.random.default_rng(11)
        seed_rows = [(0, 1, 2.0, 1, 10.0), (4, 2, 1.0, 1, 20.0)]
        rows = self.random_rows(rng, 120, num_nodes=5)
        bulk = add_rows(build_graph(seed_rows), rows)
        assert_matches_reference(bulk, sequential_reference(seed_rows + rows))

    def test_registers_a_node_and_merges_in_one_call(self):
        """The call's new node is registered before its rows are merged, so
        the row index, warm from before the call, has no row for it yet; the
        search for existing edges must pass over it (a new node has none)."""
        seed_rows = [("a", "b", 1.0, 1, 10.0), ("b", "c", 2.0, 1, 20.0)]
        graph = build_graph(seed_rows).warm()
        rows = [("new", "a", 3.0, 1, 30.0), ("a", "b", 4.0, 1, 40.0),
                ("b", "new", 5.0, 2, 50.0), ("a", "b", 6.0, 1, 60.0)]
        add_rows(graph, rows)
        assert_matches_reference(graph, sequential_reference(seed_rows + rows))
        assert graph.degree("new") == 2

    @pytest.mark.parametrize("rows", [
        [("a", "b", -0.0), ("a", "b", -0.0)],
        [("a", "b", -0.0), ("a", "b", 0.0)],
        [("a", "b", 0.0), ("a", "b", -0.0)],
    ])
    def test_negative_zero_amounts_fold_like_the_reference(self, rows):
        """A group of ``-0.0`` amounts alone sums to ``-0.0``, in one call
        and when merged into an edge that holds ``-0.0`` already."""
        reference = sequential_reference(rows)
        assert_matches_reference(build_graph(rows), reference)
        one_by_one = TxGraph()
        for row in rows:
            add_edge(one_by_one, *row)
        assert_matches_reference(one_by_one, reference)

    def test_empty_stream_is_a_noop(self):
        g = TxGraph()
        g.add_edges_bulk(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert g.num_nodes == 0 and g.num_edges == 0

    def test_out_of_range_codes_raise(self):
        g = TxGraph()
        with pytest.raises(ValueError):
            g.add_edges_bulk(np.array([0, 3]), np.array([1, 0]),
                             node_keys=["a", "b"])
        with pytest.raises(ValueError):
            # Negative codes must not wrap around via python indexing.
            g.add_edges_bulk(np.array([0, -1]), np.array([1, 0]),
                             node_keys=["a", "b"])
        assert g.num_nodes == 0 and g.num_edges == 0

    def test_object_dtype_keys_are_factorised(self):
        bulk = TxGraph()
        bulk.add_edges_bulk(np.array(["a", "a"], dtype=object),
                            np.array(["b", "c"], dtype=object),
                            amounts=np.array([1.0, 2.0]),
                            timestamps=np.array([5.0, 6.0]))
        assert bulk.nodes == ["a", "b", "c"]
        assert bulk.num_edges == 2


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6),
              st.floats(0.001, 100.0, allow_nan=False),
              st.just(1),
              st.floats(0.0, 1000.0, allow_nan=False)),
    min_size=1, max_size=50))
def test_add_edges_bulk_property_parity(rows):
    assert_matches_reference(build_graph(rows), sequential_reference(rows))


def test_payload_only_call_keeps_the_row_index():
    """A call whose rows all merge into existing edges appends nothing, so
    the row index stays valid, and the merged payload shows through it."""
    g = build_graph([("a", "b", 1.0, 1, 10.0), ("b", "c", 2.0, 1, 20.0)]).warm()
    structure_before = g._structure_version
    g.add_edges_bulk(np.array([0, 0]), np.array([1, 1]),
                     amounts=np.array([1.0, 1.0]),
                     timestamps=np.array([5.0, 6.0]),
                     node_keys=["a", "b", "c"])
    assert g._structure_version == structure_before
    assert g._adj_version == structure_before
    [edge] = [e for e in out_edges(g, "a") if e.dst == "b"]
    assert edge.count == 3


#: Keys on the 16-bit digit boundaries where stable_order adds a pass.
DIGIT_BOUNDARIES = (0, 2**16 - 1, 2**16, 2**32, 2**48, 2**62)

#: Keys next to a boundary, or anywhere in the first digit or below 2**62,
#: so that every bit of every digit varies.
radix_keys = st.one_of(
    st.sampled_from(DIGIT_BOUNDARIES).flatmap(
        lambda edge: st.integers(max(edge - 2, 0), edge + 2)),
    st.integers(0, 2**16), st.integers(0, 2**62))


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(radix_keys, min_size=1, max_size=6),
       picks=st.lists(st.integers(0, 5), max_size=300),
       dtype=st.sampled_from([np.int64, np.uint64]))
@example(pool=[0], picks=[], dtype=np.int64)
@example(pool=[2**62], picks=[0], dtype=np.int64)
@example(pool=[2**16, 2**16 - 1], picks=[0, 1, 0], dtype=np.int64)
@example(pool=[2**16 + 1, 2**16], picks=[0, 1] * 40, dtype=np.int64)
def test_stable_order_is_the_stable_argsort(pool, picks, dtype):
    """Keys from a few values across the digit boundaries, so most repeat.
    The examples add the empty and one-element arrays and a long tie in the
    second digit, which an unstable pass would reorder."""
    keys = np.array([pool[i % len(pool)] for i in picks], dtype=dtype)
    order = stable_order(keys)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == expected.dtype
    assert order.tobytes() == expected.tobytes()


def test_stable_order_rejects_negative_and_non_integer_keys():
    with pytest.raises(ValueError, match="non-negative"):
        stable_order(np.array([3, -1, 2]))
    with pytest.raises(ValueError, match="integer"):
        stable_order(np.array([1.0, 2.0]))
