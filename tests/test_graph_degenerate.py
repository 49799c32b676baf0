"""Degenerate-graph edge cases across slicing, centrality and sampling.

Empty graphs, single nodes (with and without self-loops) and graphs whose
edges all share one timestamp must neither crash nor diverge from the seed's
dense forms (adjacency, GAT mask, time slices and their normalisation), and
the augmentation's centralities and views must stay finite.
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
    _node_centrality,
    adaptive_augmentation,
)
from repro.data.slicing import adjacency_blocks, time_slice_blocks
from repro.gnn import attention_mask, normalize_adjacency
from repro.graph import TxGraph, ego_subgraph

from tests._dense_reference import (
    attention_mask_dense,
    dense_adjacency,
    normalize_adjacency_dense,
    time_slice_adjacency_dense,
)
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
    def test_blocks_equal_dense(self, builder, num_slices):
        graph = builder()
        dense = time_slice_adjacency_dense(graph, num_slices)
        blocks = time_slice_blocks([graph], num_slices)
        assert len(dense) == len(blocks) == num_slices
        for dense_slice, block in zip(dense, blocks):
            np.testing.assert_array_equal(block[0], dense_slice)

    @pytest.mark.parametrize("builder", DEGENERATE_BUILDERS)
    @pytest.mark.parametrize("weighted", [True, False])
    def test_adjacency_equals_dense(self, builder, weighted):
        graph = builder()
        blocks = adjacency_blocks([graph], weighted=weighted)
        assert blocks.shape == (1, graph.num_nodes, graph.num_nodes)
        np.testing.assert_array_equal(blocks[0], dense_adjacency(graph, weighted=weighted))

    @pytest.mark.parametrize("builder", DEGENERATE_BUILDERS)
    def test_mask_and_normalized_slices_equal_dense(self, builder):
        """The derived forms too, with no division by zero on a 0-node or
        edgeless graph."""
        graph = builder()
        with np.errstate(all="raise"):
            mask = attention_mask(adjacency_blocks([graph]))
            normalized = normalize_adjacency(time_slice_blocks([graph], 3))
        np.testing.assert_array_equal(mask[0], attention_mask_dense(dense_adjacency(graph)))
        for block, dense_slice in zip(normalized, time_slice_adjacency_dense(graph, 3)):
            np.testing.assert_array_equal(block[0], normalize_adjacency_dense(dense_slice))

    def test_same_timestamp_edges_all_land_in_first_slice(self):
        slices = time_slice_blocks([same_timestamp_graph()], 4)
        assert slices[0].sum() > 0
        for later in slices[1:]:
            assert later.sum() == 0.0


MEASURES = ["degree", "eigenvector", "pagerank"]


def _one_slice(graph: TxGraph) -> np.ndarray:
    """The graph's single time slice."""
    return time_slice_blocks([graph], 1)[0, 0]


class TestCentralitiesFinite:
    """The GSG augmentation's centralities on degenerate slices: finite, and
    one score per node."""

    @pytest.mark.parametrize("builder", DEGENERATE_BUILDERS)
    @pytest.mark.parametrize("measure", MEASURES)
    def test_node_centralities_finite(self, builder, measure):
        graph = builder()
        scores = _node_centrality((_one_slice(graph) > 0).astype(float), measure)
        assert scores.shape == (graph.num_nodes,)
        assert np.isfinite(scores).all()

    @pytest.mark.parametrize("builder", DEGENERATE_BUILDERS)
    @pytest.mark.parametrize("measure", MEASURES)
    def test_edge_centralities_finite(self, builder, measure):
        """Centrality-scaled edge drop keeps a degenerate view finite and only
        removes edges."""
        graph = builder()
        adjacency = _one_slice(graph)
        features = np.ones((graph.num_nodes, 3))
        config = AugmentationConfig(0.5, 0.0, centrality_measure=measure)
        view, _ = adaptive_augmentation(adjacency, features, config,
                                        np.random.default_rng(0))
        assert np.isfinite(view).all()
        assert np.all((view > 0) <= (adjacency > 0))

    def test_empty_graph_returns_empty_scores(self):
        adjacency = _one_slice(empty_graph())
        for measure in MEASURES:
            assert _node_centrality(adjacency, measure).shape == (0,)


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
