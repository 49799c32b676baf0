"""A scoring chunk's graph structure equals its samples' own forms, bit for bit.

Stacked scoring (:mod:`repro.core.inference`) builds each chunk's time slices
and attention structure once, from the chunk's concatenated edge columns
(:func:`~repro.data.slicing.time_slice_csr` of a sequence of graphs,
:func:`~repro.data.slicing.block_adjacency`), and memoizes nothing on the
samples.  The properties here pin every block of those builds, and the
normalised forms derived on them, to the block-diagonal of the per-sample
forms training uses; a second property pins the sort-free
:meth:`SparseAdjacency.with_self_loops` to the ``from_coo`` build it
replaced.  The last test pins where the structure lives: a fit memoizes it
on its samples, ``score()`` on none of its cached samples.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.api import DeAnonymizer
from repro.core import CalibrationConfig, DBG4ETHConfig, GSGConfig, LDGConfig
from repro.data import DatasetConfig
from repro.data.dataset import AccountSubgraph
from repro.data.slicing import block_adjacency, time_slice_csr
from repro.graph import TxGraph
from repro.graph.sparse import BatchedAdjacency, SparseAdjacency
from tests._dict_reference import add_rows, graph_with_nodes

# One graph: (node count, flat timestamps?, edges (src, dst, amount, time)).
# Endpoints are reduced mod the node count, so self loops, reciprocal pairs
# and repeated pairs (merged into one edge) all occur; an empty edge list is an
# edgeless sample.
graph_descriptors = st.tuples(
    st.integers(1, 7), st.booleans(),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                       st.floats(0.0, 50.0, allow_nan=False),
                       st.floats(0.0, 1000.0, allow_nan=False)), max_size=14))

chunks = st.lists(graph_descriptors, min_size=1, max_size=6)


def build_graph(num_nodes: int, flat: bool, edges) -> TxGraph:
    return add_rows(graph_with_nodes(f"n{i}" for i in range(num_nodes)), [
        (f"n{src % num_nodes}", f"n{dst % num_nodes}", amount, 1,
         7.0 if flat else timestamp) for src, dst, amount, timestamp in edges])


def assert_same_csr(got: SparseAdjacency, want: SparseAdjacency) -> None:
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def assert_same_blocks(got: BatchedAdjacency, want: BatchedAdjacency) -> None:
    assert isinstance(got, BatchedAdjacency)
    assert np.array_equal(got.node_offsets, want.node_offsets)
    assert np.array_equal(got.edge_offsets, want.edge_offsets)
    assert_same_csr(got, want)


@settings(max_examples=150, deadline=None)
@given(chunk=chunks, num_slices=st.integers(1, 6), weighted=st.booleans(),
       cumulative=st.booleans())
def test_chunk_slices_are_the_samples_slices_side_by_side(chunk, num_slices, weighted,
                                                          cumulative):
    graphs = [build_graph(*descriptor) for descriptor in chunk]
    # The chunk first: it must not depend on anything the per-sample path memoizes.
    stacked = time_slice_csr(graphs, num_slices, weighted=weighted, cumulative=cumulative)
    own = [time_slice_csr(graph, num_slices, weighted=weighted, cumulative=cumulative)
           for graph in graphs]
    assert len(stacked) == num_slices
    for k, chunk_slice in enumerate(stacked):
        blocks = [slices[k] for slices in own]
        assert all(type(block) is SparseAdjacency for block in blocks)
        assert_same_blocks(chunk_slice, SparseAdjacency.block_diagonal(blocks))
        assert_same_csr(chunk_slice.gcn_normalized(), SparseAdjacency.block_diagonal(
            [block.gcn_normalized() for block in blocks]))


@settings(max_examples=150, deadline=None)
@given(chunk=chunks)
def test_chunk_attention_structure_is_the_samples_side_by_side(chunk):
    graphs = [build_graph(*descriptor) for descriptor in chunk]
    adjacency = block_adjacency(graphs)
    structure = adjacency.attention_structure()
    samples = [AccountSubgraph(f"n0-{b}", None, graph, np.zeros((graph.num_nodes, 15)), 0)
               for b, graph in enumerate(graphs)]
    assert_same_blocks(adjacency, SparseAdjacency.block_diagonal(
        [sample.adjacency_sparse() for sample in samples]))
    assert_same_csr(structure, SparseAdjacency.block_diagonal(
        [sample.adjacency_sparse().attention_structure() for sample in samples]))


def self_loops_by_sorting(adjacency: SparseAdjacency, value: float) -> SparseAdjacency:
    """``A + value * I`` built by re-sorting the COO triplets (the old path)."""
    diagonal = np.arange(adjacency.num_nodes, dtype=np.int64)
    return SparseAdjacency.from_coo(
        np.concatenate([adjacency.rows, diagonal]),
        np.concatenate([adjacency.indices, diagonal]),
        np.concatenate([adjacency.data, np.full(adjacency.num_nodes, value)]),
        adjacency.num_nodes)


# Entries drawn from values that make explicit zeros and diagonals with
# A_ii + 1 == 0 common.
entry_values = st.one_of(st.sampled_from([0.0, -1.0, 1.0, -0.5]),
                         st.floats(-10.0, 10.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@example(num_nodes=3, entries=[(0, 0, -1.0), (0, 2, 0.0), (2, 1, 4.0)], value=1.0)
@given(num_nodes=st.integers(0, 9),
       entries=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), entry_values),
                        max_size=40),
       value=st.sampled_from([1.0, 2.0, -1.0, 0.25]))
def test_self_loops_insert_into_the_sorted_csr_as_from_coo_sorts(num_nodes, entries, value):
    n = max(num_nodes, 1) if entries else num_nodes
    rows = np.array([r % n for r, _, _ in entries], dtype=np.int64)
    cols = np.array([c % n for _, c, _ in entries], dtype=np.int64)
    vals = np.array([v for _, _, v in entries], dtype=np.float64)
    adjacency = SparseAdjacency.from_coo(rows, cols, vals, n, combine=np.maximum)
    assert_same_csr(adjacency.with_self_loops(value), self_loops_by_sorting(adjacency, value))


DATASET_CONFIG = DatasetConfig(top_k=30, max_nodes_per_subgraph=20, seed=3)


def micro_config() -> DBG4ETHConfig:
    return DBG4ETHConfig(
        gsg=GSGConfig(hidden_dim=8, epochs=1, contrastive_batch=4),
        ldg=LDGConfig(hidden_dim=8, epochs=1, num_slices=3, first_pool_clusters=4),
        calibration=CalibrationConfig())


def memoized(sample: AccountSubgraph) -> tuple[int, bool]:
    """``(sparse forms on the sample, whether its graph built a row index)``."""
    return len(sample._sparse_cache), sample.graph._adj_version >= 0


def test_score_memoizes_no_structure_on_cached_samples(small_ledger, small_dataset):
    samples, labels = small_dataset.binary_task("exchange", rng=np.random.default_rng(0))
    trainer = DeAnonymizer(small_ledger, DATASET_CONFIG)
    trainer.model_config = micro_config()
    fresh = [trainer.sample_for(sample.center) for sample in samples[:12]]
    assert {memoized(sample) for sample in fresh} == {(0, False)}
    trainer.fit_category("exchange", fresh, labels[:12])
    # Training reuses each sample's adjacency and time slices across epochs.
    assert {memoized(sample) for sample in fresh} == {(2, False)}

    facade = DeAnonymizer(small_ledger, DATASET_CONFIG).set_state(trainer.get_state())
    centres = [sample.center for sample in small_dataset]
    batch, alone = centres[:16], centres[-1]
    facade.score(batch)
    facade.score(alone)
    cached = [facade.sample_for(address) for address in batch + [alone]]
    assert all(sample.head_scores is not None for sample in cached)
    assert {memoized(sample) for sample in cached} == {(0, False)}
