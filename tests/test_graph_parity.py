"""Parity tests: the indexed TxGraph must agree with reference implementations.

Property-style checks on randomized graphs compare every indexed read — the
row index behind neighbours, degrees and out/in rows, ``subgraph_by_index``
behind induced subgraphs, and ``adjacency_blocks`` — against a networkx
view and the seed's dense adjacency, and a regression test pins
``extract_many`` to the per-account scalar reference in
``tests/_feature_reference.py`` bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import adjacency_blocks
from repro.data.features import DeepFeatureExtractor
from repro.graph import TxGraph

from tests._dense_reference import dense_adjacency
from tests._dict_reference import (
    add_edge,
    build_graph,
    edge_list,
    edges_between,
    get_edge,
    graph_with_nodes,
    in_edges,
    induced_subgraph,
    neighbors,
    out_edges,
    to_networkx,
)
from tests._feature_reference import reference_features


edge_lists = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12),
              st.floats(0.0, 100.0, allow_nan=False),
              st.floats(0.0, 1000.0, allow_nan=False)),
    min_size=1, max_size=60)


def graph_of(edges) -> TxGraph:
    g = TxGraph()
    for src, dst, amount, ts in edges:
        add_edge(g, src, dst, amount=amount, timestamp=ts)
    return g


@settings(max_examples=60, deadline=None)
@given(edge_lists)
def test_neighbors_and_degree_match_networkx(edges):
    g = graph_of(edges)
    nx_graph = to_networkx(g)
    for node in g.nodes:
        nx_nbrs = set(nx_graph.successors(node)) | set(nx_graph.predecessors(node))
        assert neighbors(g, node) == nx_nbrs
        assert g.degree(node) == nx_graph.out_degree(node) + nx_graph.in_degree(node) \
            - (1 if nx_graph.has_edge(node, node) else 0)
        assert len(out_edges(g, node)) == nx_graph.out_degree(node)
        assert len(in_edges(g, node)) == nx_graph.in_degree(node)


@settings(max_examples=60, deadline=None)
@given(edge_lists)
def test_out_in_edges_match_networkx(edges):
    g = graph_of(edges)
    nx_graph = to_networkx(g)
    for node in g.nodes:
        out_pairs = {(e.src, e.dst) for e in out_edges(g, node)}
        in_pairs = {(e.src, e.dst) for e in in_edges(g, node)}
        assert out_pairs == set(nx_graph.out_edges(node))
        assert in_pairs == set(nx_graph.in_edges(node))
        for edge in out_edges(g, node):
            attrs = nx_graph.edges[edge.src, edge.dst]
            assert attrs["amount"] == pytest.approx(edge.amount)
            assert attrs["count"] == edge.count


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.integers(0, 2 ** 31 - 1))
def test_subgraph_matches_networkx_induced_view(edges, seed):
    g = graph_of(edges)
    rng = np.random.default_rng(seed)
    nodes = g.nodes
    keep = [n for n in nodes if rng.random() < 0.5] or nodes[:1]
    sub = induced_subgraph(g, keep)
    nx_sub = to_networkx(g).subgraph(keep)
    assert set(sub.nodes) == set(nx_sub.nodes)
    assert {(e.src, e.dst) for e in edge_list(sub)} == set(nx_sub.edges)
    # Node and edge order must follow the parent graph's insertion order.
    parent_rank = {n: i for i, n in enumerate(nodes)}
    assert sub.nodes == sorted(sub.nodes, key=parent_rank.__getitem__)
    parent_edge_rank = {(e.src, e.dst): i for i, e in enumerate(edge_list(g))}
    sub_keys = [(e.src, e.dst) for e in edge_list(sub)]
    assert sub_keys == sorted(sub_keys, key=parent_edge_rank.__getitem__)
    # Merged edge payloads survive unchanged.
    for e in edge_list(sub):
        parent = get_edge(g, e.src, e.dst)
        assert (e.amount, e.count, e.timestamp) == (
            parent.amount, parent.count, parent.timestamp)


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.booleans())
def test_adjacency_blocks_match_dense_adjacency(edges, weighted):
    g = graph_of(edges)
    np.testing.assert_array_equal(adjacency_blocks([g], weighted=weighted)[0],
                                  dense_adjacency(g, weighted=weighted))


def test_adjacency_blocks_of_empty_graphs():
    assert adjacency_blocks([TxGraph()]).shape == (1, 0, 0)
    np.testing.assert_array_equal(adjacency_blocks([graph_with_nodes(["isolated"])] * 2),
                                  np.zeros((2, 1, 1)))


class TestEdgeAPI:
    def test_contains(self, toy_graph):
        assert "a" in toy_graph
        assert "zz" not in toy_graph

    def test_edges_between_directions(self, toy_graph):
        forward = edges_between(toy_graph, "a", "b")
        assert [(e.src, e.dst) for e in forward] == [("a", "b")]
        # Queried from the other side the same single edge comes back.
        assert [(e.src, e.dst) for e in edges_between(toy_graph, "b", "a")] == \
            [("a", "b")]

    def test_edges_between_both_directions(self):
        g = build_graph([("u", "v", 1.0), ("v", "u", 2.0)])
        pairs = [(e.src, e.dst) for e in edges_between(g, "u", "v")]
        assert pairs == [("u", "v"), ("v", "u")]

    def test_edges_between_self_loop_not_duplicated(self):
        g = build_graph([("u", "u", 1.0)])
        assert len(edges_between(g, "u", "u")) == 1

    def test_edges_between_missing(self, toy_graph):
        assert edges_between(toy_graph, "a", "c") == []

    def test_zero_count_merge_keeps_timestamp(self):
        g = TxGraph()
        add_edge(g, "a", "b", amount=1.0, count=0, timestamp=50.0)
        add_edge(g, "a", "b", amount=2.0, count=0, timestamp=99.0)
        edge = get_edge(g, "a", "b")
        assert edge.count == 0
        assert edge.amount == pytest.approx(3.0)
        assert edge.timestamp == pytest.approx(50.0)

    def test_zero_count_then_real_count(self):
        g = TxGraph()
        add_edge(g, "a", "b", amount=1.0, count=0, timestamp=50.0)
        add_edge(g, "a", "b", amount=2.0, count=2, timestamp=100.0)
        edge = get_edge(g, "a", "b")
        assert edge.count == 2
        assert edge.timestamp == pytest.approx(100.0)


class TestExtractManyParity:
    def test_extract_many_bit_identical_to_loop(self, small_ledger):
        addresses = [account.address for account in small_ledger.accounts]
        looped = np.vstack([reference_features(small_ledger, a) for a in addresses])
        batched = DeepFeatureExtractor(small_ledger).extract_many(addresses)
        np.testing.assert_array_equal(looped, batched)

    def test_extract_many_handles_unknown_and_duplicate_addresses(self, small_ledger):
        extractor = DeepFeatureExtractor(small_ledger)
        known = small_ledger.accounts[0].address
        batched = extractor.extract_many([known, "0xunknown", known])
        np.testing.assert_array_equal(batched[0], batched[2])
        np.testing.assert_array_equal(batched[1], np.zeros(15))
        np.testing.assert_array_equal(batched[0], reference_features(small_ledger, known))

    def test_extract_many_cache_invalidates_on_ledger_growth(self, small_ledger):
        import copy

        from repro.chain.transactions import Block, Transaction

        ledger = copy.deepcopy(small_ledger)
        extractor = DeepFeatureExtractor(ledger)
        addresses = [account.address for account in ledger.accounts[:5]]
        before = extractor.extract_many(addresses).copy()
        last_number = ledger.blocks[-1].number
        t_max = ledger.timespan()[1]
        ledger.append_block(Block(number=last_number + 1, timestamp=t_max + 60.0, transactions=[
            Transaction(tx_hash="0xfeed", sender=addresses[0], receiver=addresses[1],
                        value=5.0, gas_price=3.0, gas_used=21000,
                        timestamp=t_max + 60.0, block_number=last_number + 1)]))
        after = extractor.extract_many(addresses)
        assert not np.array_equal(before, after)
        looped = np.vstack([reference_features(ledger, a) for a in addresses])
        np.testing.assert_array_equal(after, looped)
