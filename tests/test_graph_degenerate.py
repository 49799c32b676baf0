"""Degenerate-graph edge cases across slicing, centrality and sampling.

Empty graphs, single nodes (with and without self-loops) and graphs whose
edges all share one timestamp must neither crash nor diverge between the
dense and CSR slicers, and the augmentation's centralities must stay finite
and agree across the two paths.
Degenerate *queries* — subgraphs over node sets with no induced edges or
with identifiers absent from the graph, ``edges_between`` on absent nodes —
must return empty results (never ``KeyError``) identically on the columnar
``TxGraph``, read through ``subgraph_by_index`` and ``gather_slots``, and on
the dict-backed reference.
"""

import numpy as np
import pytest

from repro.core.augmentation import (
    AugmentationConfig,
    _node_centrality_dense,
    _node_centrality_sparse,
    adaptive_augmentation,
)
from repro.data.slicing import time_slice_csr
from repro.graph import TxGraph, ego_subgraph

from tests._dense_reference import time_slice_adjacency_dense
from tests._dict_reference import (
    DictGraphReference,
    add_edge,
    build_graph,
    edge_list,
    edges_between,
    get_edge,
    graph_with_nodes,
    has_edge,
    in_edges,
    induced_subgraph,
    neighbors,
    out_edges,
)


def empty_graph() -> TxGraph:
    return TxGraph()


def single_node_graph() -> TxGraph:
    return graph_with_nodes(["solo"])


def self_loop_graph() -> TxGraph:
    return build_graph([("solo", "solo", 2.0, 1, 100.0)])


def same_timestamp_graph() -> TxGraph:
    return build_graph([("a", "b", 1.0, 1, 500.0), ("b", "c", 2.0, 1, 500.0),
                        ("c", "a", 3.0, 1, 500.0), ("a", "a", 4.0, 1, 500.0)])


DEGENERATE_BUILDERS = [empty_graph, single_node_graph, self_loop_graph,
                       same_timestamp_graph]


class TestSlicerParity:
    @pytest.mark.parametrize("builder", DEGENERATE_BUILDERS)
    @pytest.mark.parametrize("num_slices", [1, 3])
    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("cumulative", [True, False])
    def test_csr_equals_dense(self, builder, num_slices, weighted, cumulative):
        graph = builder()
        dense = time_slice_adjacency_dense(graph, num_slices, weighted=weighted,
                                           cumulative=cumulative)
        sparse = time_slice_csr(graph, num_slices, weighted=weighted,
                                cumulative=cumulative)
        assert len(dense) == len(sparse) == num_slices
        for dense_slice, sparse_slice in zip(dense, sparse):
            np.testing.assert_array_equal(sparse_slice.to_dense(), dense_slice)

    def test_same_timestamp_edges_all_land_in_first_slice(self):
        graph = same_timestamp_graph()
        slices = time_slice_adjacency_dense(graph, 4, weighted=True)
        assert slices[0].sum() > 0
        for later in slices[1:]:
            assert later.sum() == 0.0


MEASURES = ["degree", "eigenvector", "pagerank"]


def _dense_and_csr(graph: TxGraph):
    """The graph's single unweighted time slice, dense and CSR."""
    return (time_slice_adjacency_dense(graph, 1, weighted=False)[0],
            time_slice_csr(graph, 1, weighted=False)[0])


class TestCentralitiesFinite:
    """The GSG augmentation's centralities on degenerate slices: finite, one
    score per node, and equal on the dense and CSR paths."""

    @pytest.mark.parametrize("builder", DEGENERATE_BUILDERS)
    @pytest.mark.parametrize("measure", MEASURES)
    def test_node_centralities_finite(self, builder, measure):
        graph = builder()
        dense, sparse = _dense_and_csr(graph)
        dense_scores = _node_centrality_dense((dense > 0).astype(float), measure)
        sparse_scores = _node_centrality_sparse(sparse.binarized(), measure)
        assert dense_scores.shape == sparse_scores.shape == (graph.num_nodes,)
        assert np.isfinite(dense_scores).all()
        np.testing.assert_allclose(sparse_scores, dense_scores, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("builder", DEGENERATE_BUILDERS)
    @pytest.mark.parametrize("measure", MEASURES)
    def test_edge_centralities_finite(self, builder, measure):
        """Centrality-scaled edge drop keeps a degenerate view finite, only
        removes edges, and draws the same view on both paths."""
        graph = builder()
        dense, sparse = _dense_and_csr(graph)
        features = np.ones((graph.num_nodes, 3))
        config = AugmentationConfig(0.5, 0.0, centrality_measure=measure)
        dense_view, _ = adaptive_augmentation(dense, features, config,
                                              np.random.default_rng(0))
        sparse_view, _ = adaptive_augmentation(sparse, features, config,
                                               np.random.default_rng(0))
        assert np.isfinite(dense_view).all()
        assert np.all((dense_view > 0) <= (dense > 0))
        np.testing.assert_array_equal(sparse_view.to_dense(), dense_view)

    def test_empty_graph_returns_empty_scores(self):
        dense, sparse = _dense_and_csr(empty_graph())
        for measure in MEASURES:
            assert _node_centrality_dense(dense, measure).shape == (0,)
            assert _node_centrality_sparse(sparse, measure).shape == (0,)


class TestDegenerateSampling:
    def test_ego_subgraph_of_isolated_node_is_itself(self):
        graph = single_node_graph()
        sub = ego_subgraph(graph, "solo", hops=2, k=10)
        assert sub.nodes == ["solo"]
        assert sub.num_edges == 0

    def test_ego_subgraph_of_self_loop_node_keeps_loop(self):
        graph = self_loop_graph()
        sub = ego_subgraph(graph, "solo", hops=2, k=10)
        assert sub.nodes == ["solo"]
        assert sub.num_edges == 1


def _both_paths():
    """The same 4-node graph on the columnar TxGraph and the dict reference."""
    rows = [("a", "b", 1.0, 1, 10.0), ("b", "c", 2.0, 1, 20.0)]
    reference = DictGraphReference()
    for row in rows:
        reference.add_edge(*row)
    reference.add_node("isolated")
    return build_graph(rows, nodes=["a", "b", "c", "isolated"]), reference


def _subgraphs(nodes):
    """``(subgraph, its edges)`` of ``nodes`` on both paths."""
    g, reference = _both_paths()
    sub, ref_sub = induced_subgraph(g, nodes), reference.subgraph(nodes)
    return [(sub, edge_list(sub)), (ref_sub, ref_sub.edges)]


class TestEmptyResultsOnBothPaths:
    """Degenerate queries return empty results, not KeyError (both paths)."""

    def test_subgraph_with_no_induced_edges(self):
        for sub, edges in _subgraphs(["a", "c", "isolated"]):
            assert sub.nodes == ["a", "c", "isolated"]
            assert sub.num_edges == 0
            assert edges == []

    def test_subgraph_with_absent_nodes_ignores_them(self):
        for sub, edges in _subgraphs(["a", "b", "zz", "yy"]):
            assert sub.nodes == ["a", "b"]
            assert sub.num_edges == 1
            assert [(e.src, e.dst) for e in edges] == [("a", "b")]

    def test_subgraph_of_only_absent_nodes_is_empty(self):
        for sub, _edges in _subgraphs(["zz", "yy"]):
            assert sub.nodes == []
            assert sub.num_edges == 0

    def test_subgraph_of_empty_node_set_is_empty(self):
        for sub, _edges in _subgraphs([]):
            assert sub.nodes == []
            assert sub.num_edges == 0

    def test_edges_between_absent_nodes_is_empty(self):
        g, reference = _both_paths()
        for u, v in (("zz", "yy"), ("a", "zz"), ("zz", "a"), ("zz", "zz")):
            assert edges_between(g, u, v) == []
            assert reference.edges_between(u, v) == []

    def test_traversals_of_absent_node_are_empty(self):
        g, reference = _both_paths()
        assert out_edges(g, "zz") == in_edges(g, "zz") == []
        assert reference.out_edges("zz") == reference.in_edges("zz") == []
        assert neighbors(g, "zz") == reference.neighbors("zz") == set()
        assert g.degree("zz") == reference.degree("zz") == 0

    def test_subgraph_keeps_edgeless_nodes(self):
        for sub, _edges in _subgraphs(["isolated"]):
            assert sub.nodes == ["isolated"]
            assert sub.num_edges == 0


class TestDegenerateQueriesOnTxGraph:
    """Columnar-specific guards that have no dict-path equivalent."""

    def test_has_edge_and_get_edge_on_absent_nodes(self):
        g, _reference = _both_paths()
        assert not has_edge(g, "zz", "a")
        assert not has_edge(g, "a", "zz")
        with pytest.raises(KeyError):
            get_edge(g, "zz", "a")

    def test_empty_graph_queries(self):
        g = TxGraph()
        assert edge_list(g) == []
        assert induced_subgraph(g, ["anything"]).nodes == []
        assert g.degree("u") == 0
        assert g.degree_vector().tolist() == []
        for arr in g.edge_arrays():
            assert len(arr) == 0
        slots, lengths = g.gather_slots(np.empty(0, dtype=np.int64))
        assert len(slots) == len(lengths) == 0

    def test_degree_vector_matches_per_node_degree(self):
        g, _reference = _both_paths()
        add_edge(g, "c", "c", amount=1.0)   # self-loop counts once
        degrees = g.degree_vector()
        assert degrees.tolist() == [g.degree(node) for node in g.nodes]
