"""Golden-fixture regression: pinned SHA-256 digests of graph and feature bits.

The digests below were produced by the scenario-engine generator of PR 8
(vectorised RNG layout, nine categories) on a small seeded ledger and pin
four artefacts bit-for-bit:

* the generated ledger itself: its interning table, all nine transaction
  columns and its block numbers, timestamps and row bounds,
* the serialized edge columns of the global transaction graph (node order,
  src/dst indices, amounts, counts, merged timestamps),
* the single-pass deep-feature table over every graph node, and
* the node sets of 2-hop top-K ego samples around deterministic centres.

Any refactor of the graph or feature layers that changes a single bit — an
edge reordered, a timestamp mean computed in a different association order, a
sampling frontier resolved differently — flips a digest and fails loudly here
instead of silently drifting model inputs.
"""

import hashlib

import numpy as np
import pytest

from repro.chain import LedgerConfig, generate_ledger
from repro.data.features import DeepFeatureExtractor
from repro.data.pipeline import build_transaction_graph
from repro.graph.sampling import ego_subgraph

#: Ledger generation parameters behind the pinned digests.  Changing any of
#: these (or the behaviours' RNG layout) is an intentional data regeneration
#: and must re-pin the digests below.
GOLDEN_SCALE = 0.25
GOLDEN_SEED = 11

GOLDEN_LEDGER_SHA = \
    "ef890e68c30736a07abb327b9da8402d4fda3cbeeb2a1f1e7ea3c55c3a1d3458"
GOLDEN_EDGE_COLUMNS_SHA = \
    "772ce7e3852ca7097cfb26b3b834e75d31860a3732474adf2ce7a88c5d886293"
GOLDEN_FEATURE_TABLE_SHA = \
    "773a338e9008f55dcb91cbe5fa386ab327f77a851861763a7dd5ccf2e009a8bb"
GOLDEN_EGO_SAMPLES_SHA = \
    "9e52d333cf13d9200abfc48cfc85a519b1b5e790e70826709f37556898dae6a0"


@pytest.fixture(scope="module")
def golden_ledger():
    config = LedgerConfig().scaled(GOLDEN_SCALE)
    config.seed = GOLDEN_SEED
    return generate_ledger(config)


@pytest.fixture(scope="module")
def golden_graph(golden_ledger):
    return build_transaction_graph(golden_ledger)


def ledger_digest(ledger) -> str:
    """SHA-256 over the interning table, the nine transaction columns in
    store order, and the block numbers, timestamps and row bounds."""
    blob = hashlib.sha256()
    blob.update("\n".join(ledger.store.addresses).encode())
    cols = ledger.tx_columns()
    for name in ("sender_id", "receiver_id", "value", "gas_price", "gas_used",
                 "timestamp", "is_contract_call", "submitted", "block_number"):
        blob.update(getattr(cols, name).tobytes())
    blob.update(np.array(ledger._block_numbers, dtype=np.int64).tobytes())
    blob.update(np.array(ledger._block_timestamps, dtype=np.float64).tobytes())
    blob.update(np.array(ledger._block_bounds, dtype=np.int64).tobytes())
    return blob.hexdigest()


def test_ledger_digest(golden_ledger):
    """Recorded while a per-``Transaction`` assembly loop still sat beside the
    column-wise one; both generated this ledger (2,048 rows, 41 blocks)."""
    assert golden_ledger.num_transactions == 2048
    assert ledger_digest(golden_ledger) == GOLDEN_LEDGER_SHA


def serialize_edge_columns(graph) -> bytes:
    """Node order plus every edge column, in edge-insertion order."""
    blob = hashlib.sha256()
    blob.update("\n".join(str(node) for node in graph.nodes).encode())
    edges = graph.edges
    src = np.array([graph.node_index(e.src) for e in edges], dtype=np.int64)
    dst = np.array([graph.node_index(e.dst) for e in edges], dtype=np.int64)
    amount = np.array([e.amount for e in edges], dtype=np.float64)
    count = np.array([e.count for e in edges], dtype=np.int64)
    timestamp = np.array([e.timestamp for e in edges], dtype=np.float64)
    for column in (src, dst, amount, count, timestamp):
        blob.update(column.tobytes())
    return blob.hexdigest().encode()


def test_edge_columns_digest(golden_graph):
    assert serialize_edge_columns(golden_graph).decode() == GOLDEN_EDGE_COLUMNS_SHA


def test_feature_table_digest(golden_ledger, golden_graph):
    extractor = DeepFeatureExtractor(golden_ledger)
    table = extractor.extract_many(golden_graph.nodes)
    assert table.dtype == np.float64
    digest = hashlib.sha256(table.tobytes()).hexdigest()
    assert digest == GOLDEN_FEATURE_TABLE_SHA


def test_ego_sample_node_sets_digest(golden_ledger, golden_graph):
    # Deterministic centres: the first four labelled addresses present in the
    # graph plus the two highest-degree nodes (ties broken by address).
    labelled = [addr for addr, _cat in golden_ledger.labels.items()
                if golden_graph.has_node(addr)][:4]
    hubs = sorted(golden_graph.nodes,
                  key=lambda n: (-golden_graph.degree(n), str(n)))[:2]
    blob = hashlib.sha256()
    for center in labelled + hubs:
        sub = ego_subgraph(golden_graph, center, hops=2, k=2000)
        blob.update(f"{center}->{','.join(str(n) for n in sub.nodes)};".encode())
        blob.update(str(sub.num_edges).encode())
    assert blob.hexdigest() == GOLDEN_EGO_SAMPLES_SHA
