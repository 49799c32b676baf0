"""Tests for the TxGraph container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import TxGraph


class TestNodes:
    def test_add_node_is_idempotent(self):
        g = TxGraph()
        g.add_node("a")
        g.add_node("a")
        assert g.num_nodes == 1

    def test_node_index_follows_insertion_order(self):
        g = TxGraph()
        for name in ("x", "y", "z"):
            g.add_node(name)
        assert [g.node_index(n) for n in ("x", "y", "z")] == [0, 1, 2]


class TestEdges:
    def test_edge_merging_accumulates_amount_and_count(self, toy_graph):
        edge = toy_graph.get_edge("a", "b")
        assert edge.amount == pytest.approx(4.0)
        assert edge.count == 2

    def test_edge_merge_keeps_weighted_mean_timestamp(self, toy_graph):
        edge = toy_graph.get_edge("a", "b")
        assert edge.timestamp == pytest.approx(150.0)

    def test_directed_edges_are_distinct(self):
        g = TxGraph()
        g.add_edge("a", "b", amount=1.0)
        g.add_edge("b", "a", amount=2.0)
        assert g.num_edges == 2

    def test_has_edge(self, toy_graph):
        assert toy_graph.has_edge("a", "b")
        assert not toy_graph.has_edge("b", "a")

    def test_out_and_in_edges(self, toy_graph):
        out_dsts = {e.dst for e in toy_graph.out_edges("a")}
        in_srcs = {e.src for e in toy_graph.in_edges("a")}
        assert out_dsts == {"b", "e"}
        assert in_srcs == {"d"}

    def test_neighbors_union_of_directions(self, toy_graph):
        assert toy_graph.neighbors("a") == {"b", "d", "e"}

    def test_degree_counts_both_directions(self, toy_graph):
        assert toy_graph.degree("a") == 3


class TestMatrices:
    def test_adjacency_shape_and_entries(self, toy_graph):
        adj = toy_graph.adjacency_matrix()
        assert adj.shape == (5, 5)
        i, j = toy_graph.node_index("a"), toy_graph.node_index("b")
        assert adj[i, j] == 1.0
        assert adj[j, i] == 0.0

    def test_weighted_adjacency_uses_amounts(self, toy_graph):
        adj = toy_graph.adjacency_matrix(weighted=True)
        i, j = toy_graph.node_index("a"), toy_graph.node_index("b")
        assert adj[i, j] == pytest.approx(4.0)

    def test_symmetric_adjacency(self, toy_graph):
        adj = toy_graph.adjacency_matrix(symmetric=True)
        np.testing.assert_allclose(adj, adj.T)

    def test_edge_feature_matrix(self, toy_graph):
        feats = toy_graph.edge_feature_matrix()
        assert feats.shape == (toy_graph.num_edges, 2)
        assert feats[:, 1].min() >= 1.0


class TestSubgraph:
    def test_subgraph_keeps_only_internal_edges(self, toy_graph):
        sub = toy_graph.subgraph(["a", "b", "c"])
        assert sub.num_nodes == 3
        assert sub.has_edge("a", "b") and sub.has_edge("b", "c")
        assert not sub.has_edge("c", "d")

    def test_copy_is_independent(self, toy_graph):
        clone = toy_graph.copy()
        clone.add_edge("z", "a", amount=1.0)
        assert not toy_graph.has_node("z")

    def test_to_networkx_round_trip_counts(self, toy_graph):
        nx_graph = toy_graph.to_networkx()
        assert nx_graph.number_of_nodes() == toy_graph.num_nodes
        assert nx_graph.number_of_edges() == toy_graph.num_edges


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=30))
def test_adjacency_nonzeros_match_edge_count(pairs):
    g = TxGraph()
    for src, dst in pairs:
        g.add_edge(src, dst, amount=1.0)
    adjacency = g.adjacency_matrix()
    assert int((adjacency > 0).sum()) == g.num_edges


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=20))
def test_subgraph_never_gains_edges(pairs):
    g = TxGraph()
    for src, dst in pairs:
        g.add_edge(src, dst, amount=1.0)
    sub = g.subgraph(list(g.nodes)[: max(1, g.num_nodes // 2)])
    assert sub.num_edges <= g.num_edges
    assert sub.num_nodes <= g.num_nodes


def _assert_graphs_bit_identical(a: TxGraph, b: TxGraph) -> None:
    assert a.nodes == b.nodes
    assert [(e.src, e.dst) for e in a.edges] == [(e.src, e.dst) for e in b.edges]
    for ea, eb in zip(a.edges, b.edges):
        assert ea.amount == eb.amount          # bitwise, no approx
        assert ea.count == eb.count
        assert ea.timestamp == eb.timestamp


class TestAddEdgesBulk:
    """add_edges_bulk must be bit-identical to the sequential add_edge loop."""

    @staticmethod
    def random_stream(rng, n, num_nodes=9, self_loops=True):
        srcs = rng.integers(0, num_nodes, size=n)
        dsts = rng.integers(0, num_nodes, size=n)
        if not self_loops:
            dsts = np.where(dsts == srcs, (dsts + 1) % num_nodes, dsts)
        amounts = rng.lognormal(0.0, 1.0, size=n)
        timestamps = rng.uniform(0.0, 1e6, size=n)
        return srcs, dsts, amounts, timestamps

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_sequential_add_edge(self, seed):
        rng = np.random.default_rng(seed)
        srcs, dsts, amounts, timestamps = self.random_stream(rng, 400)
        sequential = TxGraph()
        for i in range(len(srcs)):
            sequential.add_edge(int(srcs[i]), int(dsts[i]),
                                amount=float(amounts[i]), count=1,
                                timestamp=float(timestamps[i]))
        bulk = TxGraph()
        bulk.add_edges_bulk(srcs, dsts, amounts=amounts, timestamps=timestamps)
        _assert_graphs_bit_identical(sequential, bulk)

    def test_matches_with_node_keys_table(self):
        rng = np.random.default_rng(5)
        srcs, dsts, amounts, timestamps = self.random_stream(rng, 300)
        node_keys = [f"0x{i:02d}" for i in range(9)]
        sequential = TxGraph()
        for i in range(len(srcs)):
            sequential.add_edge(node_keys[srcs[i]], node_keys[dsts[i]],
                                amount=float(amounts[i]), count=1,
                                timestamp=float(timestamps[i]))
        bulk = TxGraph()
        bulk.add_edges_bulk(srcs, dsts, amounts=amounts, timestamps=timestamps,
                            node_keys=node_keys)
        _assert_graphs_bit_identical(sequential, bulk)
        assert all(isinstance(node, str) for node in bulk.nodes)

    def test_variable_counts_and_zero_count_guard(self):
        rng = np.random.default_rng(9)
        srcs, dsts, amounts, timestamps = self.random_stream(rng, 200, num_nodes=4)
        counts = rng.integers(0, 3, size=len(srcs))
        sequential = TxGraph()
        for i in range(len(srcs)):
            sequential.add_edge(int(srcs[i]), int(dsts[i]),
                                amount=float(amounts[i]), count=int(counts[i]),
                                timestamp=float(timestamps[i]))
        bulk = TxGraph()
        bulk.add_edges_bulk(srcs, dsts, amounts=amounts, counts=counts,
                            timestamps=timestamps)
        _assert_graphs_bit_identical(sequential, bulk)

    def test_merges_into_existing_graph(self):
        rng = np.random.default_rng(11)
        srcs, dsts, amounts, timestamps = self.random_stream(rng, 120, num_nodes=5)
        sequential = TxGraph()
        bulk = TxGraph()
        for g in (sequential, bulk):
            g.add_edge(0, 1, amount=2.0, timestamp=10.0)
            g.add_edge(4, 2, amount=1.0, timestamp=20.0)
        for i in range(len(srcs)):
            sequential.add_edge(int(srcs[i]), int(dsts[i]),
                                amount=float(amounts[i]), count=1,
                                timestamp=float(timestamps[i]))
        bulk.add_edges_bulk(srcs, dsts, amounts=amounts, timestamps=timestamps)
        _assert_graphs_bit_identical(sequential, bulk)

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

    def test_object_dtype_falls_back_to_sequential(self):
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
              st.floats(0.0, 1000.0, allow_nan=False)),
    min_size=1, max_size=50))
def test_add_edges_bulk_property_parity(rows):
    sequential = TxGraph()
    for src, dst, amount, ts in rows:
        sequential.add_edge(src, dst, amount=amount, timestamp=ts)
    bulk = TxGraph()
    bulk.add_edges_bulk(np.array([r[0] for r in rows]),
                        np.array([r[1] for r in rows]),
                        amounts=np.array([r[2] for r in rows]),
                        timestamps=np.array([r[3] for r in rows]))
    _assert_graphs_bit_identical(sequential, bulk)


class TestBulkVersionEpoch:
    """Pin the mutation-epoch accounting of ``add_edges_bulk`` replays."""

    @staticmethod
    def _seeded():
        g = TxGraph()
        g.add_edge("a", "b", amount=1.0, count=1, timestamp=10.0)
        g.add_edge("b", "c", amount=2.0, count=1, timestamp=20.0)
        return g

    def test_all_replay_bulk_bumps_version_once_per_merge(self):
        """Regression: the all-replay early return used to bump ``_version``
        one extra time on top of the per-merge bumps the replayed
        ``add_edge`` calls already made."""
        g = self._seeded()
        before = g._version
        g.add_edges_bulk(np.array([0, 1]), np.array([1, 2]),
                         amounts=np.array([3.0, 4.0]),
                         timestamps=np.array([30.0, 40.0]),
                         node_keys=["a", "b", "c"])
        assert g._version == before + 2

    def test_version_parity_with_sequential_path(self):
        """Bulk and sequential application of the same replay rows leave the
        graph at the same epoch — so cache-validity behaviour (``to_csr``
        keys on ``_version``) is path-independent."""
        bulk, seq = self._seeded(), self._seeded()
        rows = [("a", "b", 5.0, 50.0), ("b", "c", 6.0, 60.0), ("a", "b", 7.0, 70.0)]
        bulk.add_edges_bulk(np.array([0, 1, 0]), np.array([1, 2, 1]),
                            amounts=np.array([r[2] for r in rows]),
                            timestamps=np.array([r[3] for r in rows]),
                            node_keys=["a", "b", "c"])
        for src, dst, amount, ts in rows:
            seq.add_edge(src, dst, amount=amount, count=1, timestamp=ts)
        assert bulk._version == seq._version
        _assert_graphs_bit_identical(seq, bulk)

    def test_all_replay_keeps_structure_memos(self):
        """Payload-only replays retain the warmed CSR row index: merges never
        change topology, so ``_structure_version`` (and with it the
        ``out_edges``/``in_edges`` row memo) must survive the bulk call."""
        g = self._seeded()
        list(g.out_edges("a"))              # warms the row index
        structure_before = g._structure_version
        assert g._adj_version == structure_before
        g.add_edges_bulk(np.array([0, 0]), np.array([1, 1]),
                         amounts=np.array([1.0, 1.0]),
                         timestamps=np.array([5.0, 6.0]),
                         node_keys=["a", "b", "c"])
        assert g._structure_version == structure_before
        assert g._adj_version == structure_before
        # The merged payload is visible through the retained memo.
        [edge] = [e for e in g.out_edges("a") if e.dst == "b"]
        assert edge.count == 3
