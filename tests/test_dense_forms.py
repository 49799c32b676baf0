"""A group's dense forms equal each graph's seed forms, bit for bit.

Training minibatches and scoring chunks group their samples by node count
and build each form once per group from the group's concatenated edge
columns (:func:`~repro.data.slicing.adjacency_blocks`,
:func:`~repro.data.slicing.time_slice_blocks`), deriving the GAT mask
(:func:`~repro.gnn.layers.attention_mask`) and the normalised slices
(:func:`~repro.gnn.layers.normalize_adjacency`) on them.  The property here
pins every block of those forms to the seed's dense builders run on that
graph alone (``tests/_dense_reference.py``).  The last test pins where the
forms live: a fit and ``score()`` memoize nothing on a sample.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import DeAnonymizer
from repro.core import CalibrationConfig, DBG4ETHConfig, GSGConfig, LDGConfig
from repro.data import DatasetConfig, adjacency_blocks, time_slice_blocks
from repro.data.dataset import AccountSubgraph
from repro.gnn import attention_mask, normalize_adjacency
from repro.graph import TxGraph
from tests._dense_reference import (attention_mask_dense, dense_adjacency,
                                    normalize_adjacency_dense, time_slice_adjacency_dense)
from tests._dict_reference import add_rows, graph_with_nodes


def graph_descriptors(num_nodes: int):
    """One graph: (flat timestamps?, edges (src, dst, amount, time)).  Endpoints
    are reduced mod the node count, so self loops, reciprocal pairs and
    repeated pairs (merged into one edge) all occur; an empty edge list is an
    edgeless graph."""
    return st.tuples(st.booleans(), st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6),
                  st.floats(0.0, 50.0, allow_nan=False),
                  st.floats(0.0, 1000.0, allow_nan=False)), max_size=14))


groups = st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(graph_descriptors(n), min_size=1, max_size=6)))


def build_graph(num_nodes: int, flat: bool, edges) -> TxGraph:
    return add_rows(graph_with_nodes(f"n{i}" for i in range(num_nodes)), [
        (f"n{src % num_nodes}", f"n{dst % num_nodes}", amount, 1,
         7.0 if flat else timestamp) for src, dst, amount, timestamp in edges])


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@example(group=(1, [(False, []), (True, [(0, 0, 2.0, 5.0)])]), num_slices=3, weighted=False)
@example(group=(3, [(False, [(0, 1, 2.0, 1.0), (1, 0, 5.0, 9.0), (2, 2, 1.0, 4.0)]),
                    (True, [(0, 1, 1.0, 3.0), (1, 0, 1.0, 3.0)]), (False, [])]),
         num_slices=4, weighted=True)
@example(group=(2, [(False, [(0, 1, 1.0, 3.0), (1, 1, 2.0, 3.0)])]), num_slices=1,
         weighted=False)
@given(group=groups, num_slices=st.integers(1, 6), weighted=st.booleans())
def test_group_forms_are_each_graphs_seed_forms(group, num_slices, weighted):
    """1-node and edgeless graphs, reciprocal pairs, flat timestamps and all
    edges in one slot (``num_slices=1``) included."""
    n, descriptors = group
    graphs = [build_graph(n, flat, edges) for flat, edges in descriptors]
    adjacency = adjacency_blocks(graphs, weighted=weighted)
    mask = attention_mask(adjacency)
    slices = time_slice_blocks(graphs, num_slices)
    normalized = normalize_adjacency(slices)
    assert adjacency.shape == (len(graphs), n, n)
    assert slices.shape == (num_slices, len(graphs), n, n)
    for b, graph in enumerate(graphs):
        own = dense_adjacency(graph, weighted=weighted)
        assert same_bits(adjacency[b], own)
        assert same_bits(mask[b], attention_mask_dense(own))
        for t, reference in enumerate(time_slice_adjacency_dense(graph, num_slices)):
            assert same_bits(slices[t, b], reference)
            assert same_bits(normalized[t, b], normalize_adjacency_dense(reference))


def test_a_group_holds_one_node_count():
    with pytest.raises(ValueError, match="one node count"):
        adjacency_blocks([graph_with_nodes(["a"]), graph_with_nodes(["a", "b"])])


def test_an_empty_group_is_rejected():
    for build in (adjacency_blocks, lambda graphs: time_slice_blocks(graphs, 3)):
        with pytest.raises(ValueError, match="at least one graph"):
            build([])


def test_num_slices_below_one_is_rejected(toy_graph):
    with pytest.raises(ValueError, match="num_slices"):
        time_slice_blocks([toy_graph], 0)


DATASET_CONFIG = DatasetConfig(top_k=30, max_nodes_per_subgraph=20, seed=3)


def micro_config() -> DBG4ETHConfig:
    return DBG4ETHConfig(
        gsg=GSGConfig(hidden_dim=8, epochs=1, contrastive_batch=4),
        ldg=LDGConfig(hidden_dim=8, epochs=1, num_slices=3, first_pool_clusters=4),
        calibration=CalibrationConfig())


FIELDS = {field.name for field in dataclasses.fields(AccountSubgraph)}


def memoized(sample: AccountSubgraph) -> tuple[frozenset, bool]:
    """``(attributes beyond the sample's fields, whether its graph built a
    row index)``."""
    return frozenset(vars(sample)) - FIELDS, sample.graph._adj_version >= 0


def test_fit_and_score_memoize_nothing_on_samples(small_ledger, small_dataset):
    samples, labels = small_dataset.binary_task("exchange", rng=np.random.default_rng(0))
    trainer = DeAnonymizer(small_ledger, DATASET_CONFIG)
    trainer.model_config = micro_config()
    fresh = [trainer.sample_for(sample.center) for sample in samples[:12]]
    assert {memoized(sample) for sample in fresh} == {(frozenset(), False)}
    trainer.fit_category("exchange", fresh, labels[:12])
    assert {memoized(sample) for sample in fresh} == {(frozenset(), False)}

    facade = DeAnonymizer(small_ledger, DATASET_CONFIG).set_state(trainer.get_state())
    centres = [sample.center for sample in small_dataset]
    batch, alone = centres[:16], centres[-1]
    facade.score(batch)
    facade.score(alone)
    cached = [facade.sample_for(address) for address in batch + [alone]]
    assert all(sample.head_scores is not None for sample in cached)
    assert {memoized(sample) for sample in cached} == {(frozenset(), False)}
