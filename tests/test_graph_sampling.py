"""Tests for top-K neighbour ranking and ego-subgraph sampling (Eq. 2)."""

import pytest

from repro.graph import TxGraph, ego_subgraph, top_k_neighbors


@pytest.fixture()
def ranked_graph():
    """Centre 'c' with neighbours of known average transaction value."""
    g = TxGraph()
    g.add_edge("c", "high", amount=100.0)                  # avg 100
    g.add_edge("c", "mid", amount=10.0)                    # avg 10
    g.add_edge("low", "c", amount=1.0)                     # avg 1
    g.add_edge("mid", "far", amount=50.0)                  # 2-hop from c
    return g


class TestTopKNeighbors:
    def test_ranking_by_average_value(self, ranked_graph):
        assert top_k_neighbors(ranked_graph, "c", k=3) == ["high", "mid", "low"]

    def test_k_limits_result(self, ranked_graph):
        assert top_k_neighbors(ranked_graph, "c", k=1) == ["high"]

    def test_includes_incoming_neighbours(self, ranked_graph):
        assert "low" in top_k_neighbors(ranked_graph, "c", k=10)

    def test_merged_edges_use_average_not_total(self):
        g = TxGraph()
        # 'many' has 10 transactions of 1.0 (avg 1); 'single' has one of 5.0 (avg 5).
        for _ in range(10):
            g.add_edge("c", "many", amount=1.0)
        g.add_edge("c", "single", amount=5.0)
        assert top_k_neighbors(g, "c", k=1) == ["single"]

    def test_node_without_neighbours(self):
        g = TxGraph()
        g.add_node("isolated")
        assert top_k_neighbors(g, "isolated", k=5) == []

    def test_self_loops_are_ignored(self):
        g = TxGraph()
        g.add_edge("c", "c", amount=100.0)
        g.add_edge("c", "other", amount=1.0)
        assert top_k_neighbors(g, "c", k=5) == ["other"]

    def test_best_direction_average_ranks_not_combined_average(self):
        g = TxGraph()
        # 'split': two directed edges, averages 9 and 1 -> best average 9.
        g.add_edge("c", "split", amount=9.0)
        g.add_edge("split", "c", amount=1.0)
        # 'flat': one edge of average 6 but a larger total (12 > 10).
        g.add_edge("c", "flat", amount=12.0)
        g.add_edge("c", "flat", amount=0.0)   # merges: total 12, avg 6
        assert top_k_neighbors(g, "c", k=2) == ["split", "flat"]

    def test_equal_averages_tie_break_on_total(self):
        g = TxGraph()
        # Both neighbours have best average 5.0; 'big' moved more in total.
        g.add_edge("c", "small", amount=5.0)
        g.add_edge("c", "big", amount=5.0)
        g.add_edge("big", "c", amount=3.0)    # raises total to 8, avg stays 5
        assert top_k_neighbors(g, "c", k=2) == ["big", "small"]

    def test_equal_scores_tie_break_on_node_id(self):
        g = TxGraph()
        # Insert in non-lexicographic order; identical (avg, total) scores.
        for other in ("nb", "na", "nc"):
            g.add_edge("c", other, amount=5.0)
        assert top_k_neighbors(g, "c", k=3) == ["na", "nb", "nc"]


class TestEgoSubgraph:
    def test_one_hop_excludes_two_hop_nodes(self, ranked_graph):
        sub = ego_subgraph(ranked_graph, "c", hops=1, k=10)
        assert sub.has_node("high") and not sub.has_node("far")

    def test_two_hops_reach_far_node(self, ranked_graph):
        sub = ego_subgraph(ranked_graph, "c", hops=2, k=10)
        assert sub.has_node("far")

    def test_center_is_always_included(self, ranked_graph):
        sub = ego_subgraph(ranked_graph, "c", hops=1, k=1)
        assert sub.has_node("c")

    def test_k_caps_frontier_size(self, ranked_graph):
        sub = ego_subgraph(ranked_graph, "c", hops=1, k=1)
        assert sub.num_nodes == 2  # centre + its single best neighbour

    def test_missing_center_raises(self, ranked_graph):
        with pytest.raises(KeyError):
            ego_subgraph(ranked_graph, "nope", hops=1, k=1)

    def test_negative_k_and_empty_cap_raise(self, ranked_graph):
        with pytest.raises(ValueError, match="k must be"):
            ego_subgraph(ranked_graph, "c", hops=1, k=-1)
        with pytest.raises(ValueError, match="k must be"):
            top_k_neighbors(ranked_graph, "c", k=-1)
        with pytest.raises(ValueError, match="max_nodes"):
            ego_subgraph(ranked_graph, "c", hops=1, k=1, max_nodes=0)

    def test_max_nodes_keeps_centre_and_highest_degree_nodes(self, ranked_graph):
        # Ego degrees: c 3, mid 2, high 1, low 1, far 1; of the three tied
        # at 1, high comes first in insertion order.
        sub = ego_subgraph(ranked_graph, "c", hops=2, k=10, max_nodes=3)
        assert sub.nodes == ["c", "high", "mid"]
        assert [(e.src, e.dst) for e in sub.edges] == [("c", "high"), ("c", "mid")]

    def test_subgraph_of_ledger_graph_contains_center(self, small_ledger):
        from repro.data import build_transaction_graph

        graph = build_transaction_graph(small_ledger)
        center = next(addr for addr, _ in small_ledger.labels.items() if graph.has_node(addr))
        sub = ego_subgraph(graph, center, hops=2, k=20)
        assert sub.has_node(center)
        assert sub.num_nodes <= graph.num_nodes
