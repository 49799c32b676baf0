"""Tests for filtering, graph building and time slicing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Block, Ledger, Transaction
from repro.data import (DeepFeatureExtractor, build_transaction_graph, time_slice_blocks,
                        transaction_evolution_times)
from repro.graph import TxGraph

from tests._dense_reference import dense_adjacency
from tests._dict_reference import DictGraphReference, build_graph, edge_list
from tests._feature_reference import reference_features


def make_tx(i, sender="0xaa", receiver="0xbb", value=1.0, submitted=True):
    return Transaction(f"0x{i}", sender, receiver, value, 20.0, 21_000,
                       1000.0 + i, submitted=submitted)


def ledger_of(*txs) -> Ledger:
    """A hand-built ledger holding ``txs`` as one block."""
    ledger = Ledger()
    ledger.append_block(Block(0, 2000.0, list(txs)))
    return ledger


def edge_tuples(graph) -> list[tuple]:
    edges = graph.edges if isinstance(graph, DictGraphReference) else edge_list(graph)
    return [tuple(edge) for edge in edges]


class TestFilterTransactions:
    """Rows the graph build drops (Section III-B1) add no edge."""

    def test_drops_unsubmitted(self):
        graph = build_transaction_graph(ledger_of(
            make_tx(0), make_tx(1, sender="0xcc", receiver="0xdd", submitted=False)))
        assert edge_tuples(graph) == [("0xaa", "0xbb", 1.0, 1, 1000.0)]
        assert graph.nodes == ["0xaa", "0xbb"]

    def test_drops_self_transfers(self):
        graph = build_transaction_graph(ledger_of(
            make_tx(0, sender="0xaa", receiver="0xaa")))
        assert graph.num_edges == 0 and graph.num_nodes == 0

    def test_min_value_threshold(self):
        """A transfer under ``min_value`` is dropped; one at it is kept."""
        ledger = ledger_of(make_tx(0, value=0.001),
                           make_tx(1, sender="0xcc", value=5.0),
                           make_tx(2, sender="0xdd", value=0.01))
        graph = build_transaction_graph(ledger, min_value=0.01)
        assert edge_tuples(graph) == [("0xcc", "0xbb", 5.0, 1, 1001.0),
                                      ("0xdd", "0xbb", 0.01, 1, 1002.0)]

    def test_keeps_order(self):
        receivers = ["0xb4", "0xb1", "0xb3", "0xb0", "0xb2"]
        graph = build_transaction_graph(ledger_of(
            *[make_tx(i, receiver=r) for i, r in enumerate(receivers)]))
        assert [e.dst for e in edge_list(graph)] == receivers
        assert [e.timestamp for e in edge_list(graph)] == [1000.0 + i for i in range(5)]


class TestBuildTransactionGraph:
    def test_nodes_and_edges_from_ledger(self, small_ledger):
        graph = build_transaction_graph(small_ledger)
        assert graph.num_nodes > 0 and graph.num_edges > 0

    def test_labelled_accounts_are_nodes(self, small_ledger):
        graph = build_transaction_graph(small_ledger)
        labelled = [n for n in graph.nodes if n in small_ledger.labels]
        assert len(labelled) > 0

    def test_contract_accounts_are_nodes(self, small_ledger):
        graph = build_transaction_graph(small_ledger)
        assert any(small_ledger.is_contract(n) for n in graph.nodes)

    def test_repeated_transfers_merge(self, small_ledger):
        graph = build_transaction_graph(small_ledger)
        assert graph.edge_arrays()[3].max() > 1

    def test_no_unsubmitted_edges(self, small_ledger):
        graph = build_transaction_graph(small_ledger)
        submitted_value = sum(t.value for t in small_ledger.transactions()
                              if t.sender != t.receiver)
        graph_value = graph.edge_arrays()[2].sum()
        assert graph_value == pytest.approx(submitted_value, rel=1e-6)


def reference_graph(ledger, min_value: float = 0.0) -> DictGraphReference:
    """Sequential merges of the ledger's materialised transactions, under the
    build's filter."""
    reference = DictGraphReference()
    for tx in ledger.transactions(include_unsubmitted=True):
        if tx.submitted and tx.sender != tx.receiver and tx.value >= min_value:
            reference.add_edge(tx.sender, tx.receiver, amount=tx.value, count=1,
                               timestamp=tx.timestamp)
    return reference


class TestColumnarGraphParity:
    """The columnar ingest equals a per-transaction reference, bit for bit."""

    @pytest.mark.parametrize("min_value", [0.0, 0.5])
    def test_bit_identical_to_sequential_reference(self, small_ledger, min_value):
        graph = build_transaction_graph(small_ledger, min_value=min_value)
        reference = reference_graph(small_ledger, min_value=min_value)
        assert graph.nodes == reference.nodes
        assert graph.num_edges == reference.num_edges
        got, expected = edge_tuples(graph), edge_tuples(reference)
        assert [e[:2] for e in got] == [e[:2] for e in expected]
        for column in (2, 3, 4):        # amount, count, timestamp: bytes, no approx
            assert (np.array([e[column] for e in got]).tobytes()
                    == np.array([e[column] for e in expected]).tobytes())

    def test_nodes_are_plain_strings(self, small_ledger):
        graph = build_transaction_graph(small_ledger)
        assert all(type(node) is str for node in graph.nodes)


def out_of_order_ledger() -> Ledger:
    """Three blocks, the second backdated below the first.

    Pairs repeat within and across blocks and run both ways, with amounts
    whose sum rounds differently in another order; one account has two rows
    at the same timestamp; and there is a contract-call self-transfer, an
    unsubmitted row and a dust row under ``TestColdBuildOutOfTimeOrder.DUST``.
    """
    def tx(i, sender, receiver, value, timestamp, **flags):
        return Transaction(f"0x{i:x}", sender, receiver, value, 20.0 + i,
                           21_000 + i, timestamp, **flags)

    ledger = Ledger()
    ledger.append_block(Block(0, 5000.0, [
        tx(0, "0xaa", "0xbb", 0.1, 5000.0),
        tx(1, "0xbb", "0xaa", 0.2, 5001.0),
        tx(2, "0xaa", "0xbb", 0.2, 5002.0),
        tx(3, "0xcc", "0xcc", 4.0, 5003.0, is_contract_call=True),
        tx(4, "0xdd", "0xaa", 0.001, 5004.0),
        tx(5, "0xee", "0xbb", 5.0, 5005.0, submitted=False),
        tx(6, "0xaa", "0xcc", 1.5, 5006.0),
    ]))
    ledger.append_block(Block(1, 1000.0, [
        tx(7, "0xbb", "0xaa", 0.3, 1000.0),
        tx(8, "0xaa", "0xbb", 0.3, 1001.0, is_contract_call=True),
        tx(9, "0xcc", "0xaa", 1.0, 999.5),
        tx(10, "0xaa", "0xcc", 2.0, 5006.0),
    ]))
    ledger.append_block(Block(2, 6000.0, [
        tx(11, "0xaa", "0xbb", 0.7, 6000.0),
        tx(12, "0xff", "0xbb", 0.05, 3000.0),
        tx(13, "0xbb", "0xaa", 0.1, 999.5),
    ]))
    return ledger


class TestColdBuildOutOfTimeOrder:
    """A cold build over rows out of time order equals the per-transaction
    references by bytes: the graph folds each pair's rows in ledger order,
    and the feature table reads each account's rows in time order."""

    DUST = 0.01

    def test_graph_equals_the_dict_reference(self):
        ledger = out_of_order_ledger()
        graph = build_transaction_graph(ledger, min_value=self.DUST)
        reference = reference_graph(ledger, min_value=self.DUST)
        assert graph.nodes == reference.nodes == ["0xaa", "0xbb", "0xcc", "0xff"]
        index = {node: i for i, node in enumerate(reference.nodes)}
        edges = reference.edges
        expected = (np.array([index[e.src] for e in edges], dtype=np.int64),
                    np.array([index[e.dst] for e in edges], dtype=np.int64),
                    np.array([e.amount for e in edges]),
                    np.array([e.count for e in edges], dtype=np.int64),
                    np.array([e.timestamp for e in edges]))
        for column, want in zip(graph.edge_arrays(), expected):
            assert column.tobytes() == want.tobytes()

    def test_feature_rows_equal_the_scalar_reference(self):
        ledger = out_of_order_ledger()
        addresses = list(ledger.store.addresses)
        table = DeepFeatureExtractor(ledger).extract_many(addresses)
        expected = np.vstack([reference_features(ledger, a) for a in addresses])
        assert table.tobytes() == expected.tobytes()


class TestEvolutionTimes:
    def test_values_in_unit_interval(self, toy_graph):
        times = transaction_evolution_times(toy_graph)
        assert all(0.0 <= v <= 1.0 for v in times.values())

    def test_earliest_is_zero_latest_is_one(self, toy_graph):
        times = transaction_evolution_times(toy_graph)
        assert min(times.values()) == pytest.approx(0.0)
        assert max(times.values()) == pytest.approx(1.0)

    def test_single_timestamp_graph(self):
        g = build_graph([("a", "b", 1.0, 1, 50.0), ("b", "c", 1.0, 1, 50.0)])
        assert set(transaction_evolution_times(g).values()) == {0.0}

    def test_empty_graph(self):
        assert transaction_evolution_times(TxGraph()) == {}


class TestTimeSlices:
    def test_number_and_shape_of_slices(self, toy_graph):
        assert time_slice_blocks([toy_graph], 4).shape == (4, 1, 5, 5)

    def test_slices_are_symmetric(self, toy_graph):
        for matrix in time_slice_blocks([toy_graph], 3)[:, 0]:
            np.testing.assert_allclose(matrix, matrix.T)

    def test_every_edge_lands_in_exactly_one_slice(self, toy_graph):
        slices = time_slice_blocks([toy_graph], 4)
        assert slices.sum() == 2 * toy_graph.num_edges  # symmetrised

    def test_union_matches_static_adjacency(self, toy_graph):
        combined = (time_slice_blocks([toy_graph], 5).sum(axis=0)[0] > 0).astype(float)
        static = dense_adjacency(toy_graph, symmetric=True)
        np.testing.assert_allclose(combined, (static > 0).astype(float))

    def test_each_edge_lands_in_its_evolution_time_slot(self, toy_graph):
        """Slot ``floor(T(e) * 4)``, clamped to the last, of Eq. 1's ``T(e)``."""
        slices = time_slice_blocks([toy_graph], 4)[:, 0]
        index = {node: i for i, node in enumerate(toy_graph.nodes)}
        slots = []
        for (src, dst), time in transaction_evolution_times(toy_graph).items():
            slot = min(int(time * 4), 3)
            expected = np.zeros(4)
            expected[slot] = 1.0
            np.testing.assert_array_equal(slices[:, index[src], index[dst]], expected)
            slots.append(slot)
        assert slots == [0, 1, 2, 3, 3]   # the last edge sits at T = 1

    def test_running_sums_of_slices_reach_the_full_graph(self, toy_graph):
        """The cumulative view over the slices never loses an edge and ends
        at every edge counted in both directions."""
        cumulative = np.cumsum(time_slice_blocks([toy_graph], 4)[:, 0], axis=0)
        for earlier, later in zip(cumulative[:-1], cumulative[1:]):
            assert np.all(later >= earlier)
        static = dense_adjacency(toy_graph, symmetric=False)
        np.testing.assert_array_equal(cumulative[-1], static + static.T)

    def test_single_slice_equals_full_graph(self, toy_graph):
        matrix = time_slice_blocks([toy_graph], 1)[0, 0]
        expected = dense_adjacency(toy_graph, symmetric=False)
        np.testing.assert_allclose(matrix, expected + expected.T)

    def test_zero_slices_raises(self, toy_graph):
        with pytest.raises(ValueError):
            time_slice_blocks([toy_graph], 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8))
def test_slice_mass_is_conserved_for_any_slice_count(num_slices):
    g = build_graph([("a", "b", 2.0, 1, 10.0), ("b", "c", 3.0, 1, 20.0),
                     ("c", "a", 4.0, 1, 30.0)])
    assert time_slice_blocks([g], num_slices).sum() == 2 * g.num_edges
