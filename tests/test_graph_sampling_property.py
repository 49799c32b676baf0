"""Array-native ego sampling equals the per-node reference, bit for bit.

``ego_subgraph`` (with and without ``max_nodes``), ``top_k_neighbors`` and
``SubgraphDatasetBuilder.build_sample`` are compared against the per-node
sampler preserved in ``tests/_sampling_reference.py`` over random graphs
grown by ``add_edges_bulk`` between samples, so every sample reads a merged
row index.  Amounts, counts and timestamps come from small sets, so ties on
(best average, total) straddle the top-K cut and degree ties straddle the
truncation cut often, as they do on large generated ledgers.  Node labels
are integers whose string order differs from both their numeric order and
their insertion order, so a tie broken by anything but ``str`` shows.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.chain import Ledger
from repro.data import DatasetConfig, DeepFeatureExtractor, SubgraphDatasetBuilder
from repro.graph import TxGraph, ego_subgraph, top_k_neighbors
from tests._dict_reference import add_rows, graph_with_nodes
from tests._sampling_reference import (
    reference_ego_subgraph,
    reference_sample_graph,
    reference_top_k_neighbors,
)

LABELS = (7, 12, 3, 100, 20, 1, 0, 9, 11, 2, 10, 30, 5, 4)
AMOUNTS = (0.0, 1.0, 2.0, 4.0)
COUNTS = (0, 1, 2)
TIMESTAMPS = (0.0, 1.5, 3.0)

edge_rows = st.lists(
    st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS),
              st.sampled_from(AMOUNTS), st.sampled_from(COUNTS),
              st.sampled_from(TIMESTAMPS)),
    min_size=8, max_size=40)


def assert_same_graph(actual: TxGraph, expected: TxGraph) -> None:
    """Node order and the five edge columns with their dtypes."""
    assert actual.nodes == expected.nodes
    for got, want in zip(actual.edge_arrays(), expected.edge_arrays()):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def draw_sample_args(data, graph: TxGraph) -> tuple:
    """A centre (isolated ones included), hops 1-3 and k from 1 past the
    largest degree."""
    center = data.draw(st.sampled_from(graph.nodes), label="center")
    hops = data.draw(st.integers(1, 3), label="hops")
    k = data.draw(st.integers(1, int(graph.degree_vector().max()) + 1), label="k")
    return center, hops, k


@settings(max_examples=150, deadline=None)
@given(isolated=st.lists(st.sampled_from(LABELS), min_size=1, max_size=4),
       program=st.lists(edge_rows, min_size=1, max_size=4), data=st.data())
def test_ego_subgraph_matches_per_node_reference(isolated, program, data):
    graph = graph_with_nodes(isolated)
    for rows in program:
        add_rows(graph, rows)
        for _sample in range(3):
            center, hops, k = draw_sample_args(data, graph)
            assert top_k_neighbors(graph, center, k) == \
                reference_top_k_neighbors(graph, center, k)
            ego = ego_subgraph(graph, center, hops=hops, k=k)
            assert_same_graph(ego, reference_ego_subgraph(graph, center, hops, k))
            max_nodes = data.draw(st.integers(1, ego.num_nodes + 1),
                                  label="max_nodes")
            assert_same_graph(
                ego_subgraph(graph, center, hops=hops, k=k, max_nodes=max_nodes),
                reference_sample_graph(graph, center, hops, k, max_nodes))


# One ledger row: sender and receiver index into a pool of 24 addresses
# (equal indices make a self-transfer, which the graph filter drops), a value
# from a small set, submitted or not.
ADDRESSES = [f"0xacct{i}" for i in range(24)]
ledger_rows = st.lists(
    st.tuples(st.integers(0, 23), st.integers(0, 23),
              st.sampled_from((0.5, 1.0, 2.0, 8.0)), st.integers(0, 5).map(bool)),
    min_size=10, max_size=80)


def append_to_ledger(ledger: Ledger, rows) -> None:
    n = len(rows)
    start = ledger.timespan()[1] + ledger.block_interval
    ledger.append_blocks_columnar(
        [ADDRESSES[r[0]] for r in rows], [ADDRESSES[r[1]] for r in rows],
        values=np.array([r[2] for r in rows]),
        gas_prices=np.full(n, 20.0),
        gas_used=np.full(n, 21_000, dtype=np.int64),
        timestamps=start + np.arange(n, dtype=np.float64),
        is_contract_call=np.zeros(n, dtype=bool),
        submitted=np.array([r[3] for r in rows]),
        transactions_per_block=5)


@settings(max_examples=80, deadline=None)
@given(hops=st.integers(1, 3), top_k=st.integers(1, 12),
       max_nodes=st.integers(1, 16),
       program=st.lists(ledger_rows, min_size=1, max_size=4), data=st.data())
def test_build_sample_matches_per_node_reference(hops, top_k, max_nodes,
                                                 program, data):
    """The whole sample, over a ledger whose appends are ingested between
    samples (``refresh``), so the graph grows by ``add_edges_bulk``."""
    ledger = Ledger()
    builder = SubgraphDatasetBuilder(ledger, DatasetConfig(
        hops=hops, top_k=top_k, max_nodes_per_subgraph=max_nodes))
    for i, rows in enumerate(program):
        append_to_ledger(ledger, rows)
        if i:
            builder.refresh()
        graph = builder.graph
        if not graph.num_nodes:
            continue
        extractor = DeepFeatureExtractor(ledger)
        for _sample in range(3):
            center = data.draw(st.sampled_from(graph.nodes), label="center")
            sample = builder.build_sample(center)
            expected = reference_sample_graph(graph, center, hops, top_k, max_nodes)
            assert_same_graph(sample.graph, expected)
            np.testing.assert_array_equal(sample.node_features,
                                          extractor.extract_many(expected.nodes))
            assert sample.center_index == expected.node_index(center)
