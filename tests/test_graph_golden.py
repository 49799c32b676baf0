"""Golden-fixture regression: pinned SHA-256 digests of graph and feature bits.

The digests below were produced by the scenario-engine generator of PR 8
(vectorised RNG layout, nine categories) on a small seeded ledger and pin
five artefacts bit-for-bit:

* the generated ledger itself: its interning table, all nine transaction
  columns and its block numbers, timestamps and row bounds,
* the serialized edge columns of the global transaction graph (node order,
  src/dst indices, amounts, counts, merged timestamps),
* the single-pass deep-feature table over every graph node,
* the node sets of 2-hop top-K ego samples around deterministic centres, and
* what the baselines read off truncated samples around the same centres:
  DeepWalk, Node2Vec and Trans2Vec walks, BERT4ETH tokens and the output of
  a seeded GRIT network.

Any refactor of the graph or feature layers that changes a single bit — an
edge reordered, a timestamp mean computed in a different association order, a
sampling frontier resolved differently — flips a digest and fails loudly here
instead of silently drifting model inputs.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import BERT4ETHClassifier, GRITClassifier
from repro.chain import LedgerConfig, generate_ledger
from repro.data import DatasetConfig, SubgraphDatasetBuilder
from repro.data.features import DeepFeatureExtractor
from repro.data.pipeline import build_transaction_graph
from repro.embedding.walks import node2vec_walks, random_walks, trans2vec_walks
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
GOLDEN_SAMPLE_READERS_SHA = \
    "289214a893288df46c73712ac0ff7a402af0e907f2b56068b10329cc883399e7"


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
    for column in graph.edge_arrays():
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


def golden_centres(ledger, graph) -> list:
    """The first four labelled addresses present in the graph plus the two
    highest-degree nodes (ties broken by address)."""
    labelled = [addr for addr, _cat in ledger.labels.items()
                if graph.has_node(addr)][:4]
    hubs = sorted(graph.nodes, key=lambda n: (-graph.degree(n), str(n)))[:2]
    return labelled + hubs


def test_ego_sample_node_sets_digest(golden_ledger, golden_graph):
    blob = hashlib.sha256()
    for center in golden_centres(golden_ledger, golden_graph):
        sub = ego_subgraph(golden_graph, center, hops=2, k=2000)
        blob.update(f"{center}->{','.join(str(n) for n in sub.nodes)};".encode())
        blob.update(str(sub.num_edges).encode())
    assert blob.hexdigest() == GOLDEN_EGO_SAMPLES_SHA


def test_sample_readers_digest(golden_ledger, golden_graph):
    """Table III runs only DeepWalk and BERT4ETH of these readers, so the
    tables alone would not notice Node2Vec, Trans2Vec or GRIT drifting.  The
    samples are truncated to 30 nodes and hold reciprocal pairs, so Trans2Vec
    sums both edges of a neighbour."""
    builder = SubgraphDatasetBuilder(golden_ledger,
                                     DatasetConfig(max_nodes_per_subgraph=30))
    bert4eth = BERT4ETHClassifier(max_sequence_length=12)
    grit = GRITClassifier(hidden_dim=8)._build_network(15, np.random.default_rng(4))
    blob = hashlib.sha256()
    for center in golden_centres(golden_ledger, golden_graph):
        sample = builder.build_sample(center)
        graph = sample.graph
        for walks in (random_walks(graph, walk_length=6, walks_per_node=2, seed=1),
                      node2vec_walks(graph, walk_length=6, walks_per_node=2,
                                     p=0.5, q=2.0, seed=2),
                      trans2vec_walks(graph, walk_length=6, walks_per_node=2,
                                      amount_bias=0.3, seed=3)):
            blob.update(";".join(",".join(walk) for walk in walks).encode())
        blob.update(bert4eth._tokenize(sample).tobytes())
        features = np.log1p(np.abs(sample.node_features))
        blob.update(grit(features, sample).data.tobytes())
    assert blob.hexdigest() == GOLDEN_SAMPLE_READERS_SHA
