"""Follow-the-chain tests: incremental ingestion vs cold rebuild, bit for bit.

Covers the ISSUE's stale-cache sweep end to end: ``TxGraph.ingest`` over
appended ledger rows must equal a from-scratch ``build_transaction_graph``;
the extractor's feature table must refresh only touched accounts yet match a
cold extractor exactly; and a serving ``DeAnonymizer`` that already cached an
address's subgraph must — after a block touching that address lands — rescore
it from fresh data, bit-identical to a cold pipeline over the grown ledger.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import DeAnonymizer
from repro.chain import LedgerConfig, generate_ledger
from repro.core import CalibrationConfig, DBG4ETHConfig, GSGConfig, LDGConfig
from repro.data import (
    DatasetConfig,
    DeepFeatureExtractor,
    SubgraphDatasetBuilder,
    build_transaction_graph,
)

from tests._dict_reference import DictGraphReference, add_edge, edge_list, exact
from tests._feature_reference import reference_features

DATASET_CONFIG = DatasetConfig(top_k=30, max_nodes_per_subgraph=40, seed=3)


def micro_config() -> DBG4ETHConfig:
    return DBG4ETHConfig(
        gsg=GSGConfig(hidden_dim=8, epochs=2, contrastive_batch=4),
        ldg=LDGConfig(hidden_dim=8, epochs=2, num_slices=3, first_pool_clusters=4),
        calibration=CalibrationConfig(),
    )


def fresh_ledger(seed: int = 9, scale: float = 0.15):
    config = LedgerConfig().scaled(scale)
    config.seed = seed
    return generate_ledger(config)


def append_block_touching(ledger, addresses, n_per_address: int = 10,
                          value: float = 25.0, include_noise: bool = True):
    """Append one block of high-value transactions touching ``addresses``.

    Mixes in a self-transfer, an unsubmitted row and a fresh counterparty per
    address so the ingest filter has something to drop and something to intern.
    """
    senders, receivers, submitted = [], [], []
    for i, address in enumerate(addresses):
        counterpart = f"0xfresh{i}_{address[-6:]}"
        senders += [address] * n_per_address + [counterpart]
        receivers += [counterpart] * n_per_address + [address]
        submitted += [True] * n_per_address + [True]
        if include_noise:
            senders += [address, address]
            receivers += [address, counterpart]    # self-transfer + unsubmitted
            submitted += [True, False]
    n = len(senders)
    start_ts = ledger.timespan()[1] + ledger.block_interval
    rng = np.random.default_rng(17)
    ledger.append_blocks_columnar(
        senders, receivers,
        values=np.full(n, value) + rng.uniform(0.0, 1.0, n),
        gas_prices=np.full(n, 20.0),
        gas_used=np.full(n, 21_000, dtype=np.int64),
        timestamps=start_ts + np.arange(n, dtype=np.float64),
        is_contract_call=np.zeros(n, dtype=bool),
        submitted=np.array(submitted),
        transactions_per_block=max(n, 1))


# One appended row: (sender, receiver) index into a pool of eight existing
# accounts followed by four fresh counterparties (equal indices make a
# self-transfer), value, contract call, submitted, and a timestamp offset
# (offsets need not be sorted within an append).
append_row = st.tuples(
    st.integers(0, 11), st.integers(0, 11),
    st.floats(0.5, 50.0, allow_nan=False),
    st.booleans(), st.integers(0, 4).map(bool),
    st.floats(0.0, 600.0, allow_nan=False))

# A program: appends, each either after the ledger's last timestamp or
# backdated to a point inside its timespan (``position`` in [0, 1]).
append_programs = st.lists(
    st.tuples(st.lists(append_row, min_size=1, max_size=12), st.booleans(),
              st.floats(0.0, 1.0, allow_nan=False)),
    min_size=1, max_size=4)


def append_program_rows(ledger, rows, backdated: bool, position: float):
    pool = list(ledger.store.addresses[:8]) + [f"0xcounterparty{i}" for i in range(4)]
    low, high = ledger.timespan()
    start = (low + position * (high - low) if backdated
             else high + ledger.block_interval)
    n = len(rows)
    ledger.append_blocks_columnar(
        [pool[r[0]] for r in rows], [pool[r[1]] for r in rows],
        values=np.array([r[2] for r in rows]),
        gas_prices=np.full(n, 20.0) + np.arange(n),
        gas_used=np.full(n, 21_000, dtype=np.int64),
        timestamps=start + np.array([r[5] for r in rows]),
        is_contract_call=np.array([r[3] for r in rows]),
        submitted=np.array([r[4] for r in rows]),
        transactions_per_block=4)


def assert_graphs_bit_identical(a, b):
    assert a._node_order == b._node_order
    assert a._m == b._m
    for name in ("_src", "_dst", "_amount", "_count", "_ts"):
        np.testing.assert_array_equal(getattr(a, name)[:a._m],
                                      getattr(b, name)[:b._m], err_msg=name)


def kept_node_ids(ledger, graph, start: int, min_value: float = 0.0) -> list[int]:
    """Sorted node ids of every endpoint of a row from ``start`` on that the
    graph filter keeps."""
    cols = ledger.tx_columns()
    addresses = ledger.store.addresses
    ids = set()
    for row in range(start, ledger.num_transactions):
        sender, receiver = cols.sender_id[row], cols.receiver_id[row]
        if (cols.submitted[row] and sender != receiver
                and cols.value[row] >= min_value):
            ids.update((graph.node_index(addresses[sender]),
                        graph.node_index(addresses[receiver])))
    return sorted(ids)


class TestGraphIngest:
    def test_ingest_matches_cold_rebuild(self):
        ledger = fresh_ledger()
        graph = build_transaction_graph(ledger, min_value=0.5)
        assert graph.ingested_rows == ledger.num_transactions
        targets = ledger.store.addresses[:3]
        start = ledger.num_transactions
        append_block_touching(ledger, targets)
        touched = graph.ingest(ledger)
        cold = build_transaction_graph(ledger, min_value=0.5)
        assert_graphs_bit_identical(graph, cold)
        assert graph.ingested_rows == ledger.num_transactions
        assert touched.dtype == np.int64
        assert touched.tolist() == kept_node_ids(ledger, graph, start, min_value=0.5)
        assert {graph.node_index(t) for t in targets} <= set(touched.tolist())

    def test_ingest_is_idempotent_when_clean(self):
        ledger = fresh_ledger()
        graph = build_transaction_graph(ledger).warm()
        before = exact(edge_list(graph))
        touched = graph.ingest(ledger)
        assert touched.dtype == np.int64 and len(touched) == 0
        assert graph._adj_version == graph._structure_version
        assert exact(edge_list(graph)) == before

    def test_repeated_ingest_rounds_match_cold_rebuild(self):
        ledger = fresh_ledger(seed=4)
        graph = build_transaction_graph(ledger)
        for round_index in range(3):
            append_block_touching(
                ledger, ledger.store.addresses[round_index:round_index + 2])
            graph.ingest(ledger)
        assert_graphs_bit_identical(graph, build_transaction_graph(ledger))

    def test_ingest_touched_set_excludes_filtered_rows(self):
        """Rows the dust/self/unsubmitted filter drops touch nobody: the dust
        sender does not even become a node."""
        ledger = fresh_ledger(seed=5)
        graph = build_transaction_graph(ledger, min_value=1.0)
        quiet = "0xonly_dust_sender"
        loud = ledger.store.addresses[0]
        start_ts = ledger.timespan()[1] + 12.0
        ledger.append_blocks_columnar(
            [quiet, loud], [loud, f"0xloud_partner"],
            values=np.array([0.01, 50.0]),            # dust vs real
            gas_prices=np.full(2, 20.0),
            gas_used=np.full(2, 21_000, dtype=np.int64),
            timestamps=np.array([start_ts, start_ts + 1.0]),
            is_contract_call=np.zeros(2, dtype=bool),
            submitted=np.ones(2, dtype=bool),
            transactions_per_block=2)
        touched = graph.ingest(ledger, min_value=1.0)
        assert quiet not in graph
        assert touched.tolist() == sorted([graph.node_index(loud),
                                           graph.node_index("0xloud_partner")])

    def test_ingest_finds_nodes_added_by_hand_like_the_reference(self):
        """An account that became a node through ``add_edges_bulk`` (not
        through ingest) before any ingested row named it: the ingest must
        merge into that node, exactly as the sequential reference replaying
        every kept row does, and so must every later ingest."""
        ledger = fresh_ledger(seed=15)
        graph = build_transaction_graph(ledger)
        reference = DictGraphReference()

        def replay(start):
            cols = ledger.tx_columns()
            addresses = ledger.store.addresses
            for row in range(start, ledger.num_transactions):
                sender, receiver = cols.sender_id[row], cols.receiver_id[row]
                if cols.submitted[row] and sender != receiver:
                    reference.add_edge(addresses[sender], addresses[receiver],
                                       amount=float(cols.value[row]), count=1,
                                       timestamp=float(cols.timestamp[row]))

        replay(0)
        by_hand, partner = "0xby_hand", ledger.store.addresses[0]
        add_edge(graph, by_hand, partner, amount=2.5, count=1, timestamp=1.0)
        reference.add_edge(by_hand, partner, amount=2.5, count=1, timestamp=1.0)
        for targets in ([by_hand, partner], [by_hand, ledger.store.addresses[1]]):
            start = ledger.num_transactions
            append_block_touching(ledger, targets)
            graph.ingest(ledger)
            replay(start)
            assert graph.nodes == reference.nodes
            assert exact(edge_list(graph)) == exact(reference.edges)

    def test_frozen_graph_refuses_ingest_with_new_rows(self):
        ledger = fresh_ledger(seed=6)
        graph = build_transaction_graph(ledger)
        graph.freeze()
        assert len(graph.ingest(ledger)) == 0          # clean: no-op even frozen
        append_block_touching(ledger, ledger.store.addresses[:1])
        with pytest.raises(RuntimeError, match="frozen"):
            graph.ingest(ledger)


    def test_builder_refresh_returns_touched_node_ids(self):
        ledger = fresh_ledger(seed=16)
        builder = SubgraphDatasetBuilder(ledger, DATASET_CONFIG)
        assert len(builder.refresh()) == 0             # no graph built yet
        graph = builder.graph
        start = ledger.num_transactions
        append_block_touching(ledger, ledger.store.addresses[:2])
        touched = builder.refresh()
        assert touched.dtype == np.int64
        assert touched.tolist() == kept_node_ids(ledger, graph, start)
        assert len(builder.refresh()) == 0             # nothing new


class TestFeatureTableRefresh:
    def test_incremental_refresh_matches_cold_extractor(self):
        ledger = fresh_ledger(seed=7)
        warm = DeepFeatureExtractor(ledger).warm()
        stale_table = warm._table_features
        append_block_touching(ledger, ledger.store.addresses[:3])
        warm.warm()                                    # incremental path
        assert warm._table_features is not stale_table
        cold = DeepFeatureExtractor(ledger).warm()
        np.testing.assert_array_equal(warm._table_features, cold._table_features)
        assert warm._table_key == cold._table_key

    def test_untouched_account_rows_are_copied_not_recomputed(self):
        """The refresh recomputes only touched accounts; every other row is a
        verbatim copy of the previous table (same bits, not just close)."""
        ledger = fresh_ledger(seed=8)
        warm = DeepFeatureExtractor(ledger).warm()
        before = warm._table_features.copy()
        targets = ledger.store.addresses[:2]
        append_block_touching(ledger, targets, include_noise=False)
        warm.warm()
        cols = ledger.tx_columns()
        n_old = len(before)
        touched = np.zeros(n_old, dtype=bool)
        for address in targets:
            touched[ledger.store.address_id(address)] = True
        after = warm._table_features[:n_old]
        np.testing.assert_array_equal(after[~touched], before[~touched])
        assert not np.array_equal(after[touched], before[touched])
        assert len(cols) == ledger.num_transactions

    @settings(max_examples=40, deadline=None)
    @given(append_programs)
    def test_append_programs_carry_the_table_bit_for_bit(self, program):
        """Whatever the appends, the carried table is a cold extractor's, to
        the byte (``assert_array_equal`` would let -0.0 pass for 0.0), and so
        is the merged row index of the ingesting graph."""
        ledger = fresh_ledger(seed=13)
        extractor = DeepFeatureExtractor(ledger).warm()
        graph = build_transaction_graph(ledger).warm()
        for rows, backdated, position in program:
            append_program_rows(ledger, rows, backdated, position)
            extractor.warm()
            graph.ingest(ledger)
            graph.warm()
            cold = DeepFeatureExtractor(ledger).warm()
            assert extractor._table_features.tobytes() == cold._table_features.tobytes()
            assert extractor._table_ids == cold._table_ids
            assert extractor._table_key == cold._table_key
            m = graph.num_edges
            assert graph._out_slots.tobytes() == \
                np.argsort(graph._src[:m], kind="stable").tobytes()
            assert graph._in_slots.tobytes() == \
                np.argsort(graph._dst[:m], kind="stable").tobytes()

    def test_extract_many_reflects_appended_transactions(self):
        ledger = fresh_ledger(seed=3)
        extractor = DeepFeatureExtractor(ledger)
        address = ledger.store.addresses[0]
        stale = extractor.extract_many([address])[0].copy()
        append_block_touching(ledger, [address])
        fresh = extractor.extract_many([address])[0]
        assert not np.array_equal(fresh, stale)
        np.testing.assert_array_equal(
            fresh, DeepFeatureExtractor(ledger).extract_many([address])[0])
        np.testing.assert_array_equal(fresh, reference_features(ledger, address))


class TestServingRefresh:
    def test_refresh_evicts_only_touched_samples(self):
        ledger = fresh_ledger(seed=10)
        deanon = DeAnonymizer(ledger, dataset_config=DATASET_CONFIG)
        builder_graph = deanon.builder.graph
        kept, touched_target = builder_graph.nodes[0], builder_graph.nodes[1]
        deanon.sample_for(kept)
        deanon.sample_for(touched_target)
        assert deanon.refresh() == []                  # no growth: O(1) no-op
        append_block_touching(ledger, [touched_target])
        touched = deanon.refresh()
        assert touched_target in touched
        assert kept not in touched
        assert kept in deanon._samples
        assert touched_target not in deanon._samples
        stats = deanon.stats()["serving"]["sample_cache"]
        assert stats["invalidations"] >= 1
        # The graph was ingested incrementally, not rebuilt.
        assert deanon.builder.graph_if_built() is builder_graph
        assert builder_graph.ingested_rows == ledger.num_transactions

    def test_refresh_leaves_the_index_and_table_current(self):
        """refresh() finishes the maintenance it starts: the row index merge
        and the table step run there, not on the first scoring thread."""
        ledger = fresh_ledger(seed=14)
        deanon = DeAnonymizer(ledger, dataset_config=DATASET_CONFIG)
        graph = deanon.builder.graph
        deanon.warm()
        append_block_touching(ledger, [graph.nodes[0]])
        deanon.refresh()
        assert graph._adj_version == graph._structure_version
        extractor = deanon.builder._extractor
        assert extractor._table_key == (ledger.num_transactions,
                                        ledger.num_accounts)
        timing = deanon.stats()["serving"]["stages"]["refresh"]
        assert timing["count"] == 1 and timing["total"] > 0.0

    def test_rescore_after_append_matches_cold_pipeline(self):
        """The ISSUE's stale-cache acceptance test: score, append a block
        touching the cached address, rescore — the new score must reflect the
        new transactions and equal a cold rebuild over the grown ledger."""
        ledger = fresh_ledger(seed=11)
        deanon = DeAnonymizer(ledger, dataset_config=DATASET_CONFIG,
                              model_config=micro_config)
        deanon.fit(["exchange"])
        address = deanon.dataset[0].center
        stale_score = deanon.score([address])[address]["exchange"]
        stale_sample = deanon._samples[address]

        append_block_touching(ledger, [address], n_per_address=20)
        rescored = deanon.score([address])[address]["exchange"]

        fresh_sample = deanon._samples[address]
        assert fresh_sample is not stale_sample
        assert not np.array_equal(fresh_sample.node_features,
                                  stale_sample.node_features)

        # Cold path: a brand-new builder over the grown ledger, scored by the
        # very same fitted head.
        cold_builder = SubgraphDatasetBuilder(ledger, DATASET_CONFIG)
        cold_sample = cold_builder.build_sample(address)
        cold_score = float(
            deanon.head("exchange").predict_proba([cold_sample])[0])
        assert rescored == cold_score
        np.testing.assert_array_equal(fresh_sample.node_features,
                                      cold_sample.node_features)
        assert stale_score != rescored or not np.array_equal(
            stale_sample.node_features, fresh_sample.node_features)

    def test_warm_refreshes_before_freezing(self):
        ledger = fresh_ledger(seed=12)
        deanon = DeAnonymizer(ledger, dataset_config=DATASET_CONFIG)
        graph = deanon.builder.graph
        append_block_touching(ledger, [graph.nodes[0]])
        deanon.warm(freeze=True)                       # must not seal stale state
        assert graph.ingested_rows == ledger.num_transactions
        assert graph.frozen
