"""Minibatch training on dense groups: modules, end-to-end parity, mixed sizes.

Every GSG/LDG fit runs one minibatch loop; each minibatch is grouped by node
count and each group forwards its ``(B, n, ...)`` dense forms, so a sample is
a one-sample group.  Three layers of pinning:

* module-level hypothesis properties pin the read-out, DiffPool and the
  hierarchical encoder on a group of equal-size graphs to the per-graph
  forwards: each block's outputs bit for bit, gradients bit for bit with
  one block and to ``1e-9`` with more; the GSG and LDG networks on a group
  give every sample the embedding (GSG) or pooled slice features (LDG) of
  its one-sample group bit for bit, and its logit to ``1e-9`` (the head is
  one product over the group's rows); GSG's contrastive views embed as
  they embed alone;
* end-to-end tests compare ``fit`` with the per-sample reference training
  in ``tests/_training_reference.py``: bit for bit at ``batch_size=1`` and
  within ``1e-9`` of its looped schedule above, on minibatches of one node
  count and on minibatches that mix several;
* a batch-trained branch scores every sample with the bits of its own
  one-sample ``_network`` forward.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GSGBranch, GSGConfig, LDGBranch, LDGConfig
from repro.core.augmentation import adaptive_augmentation
from repro.core.gsg import _GSGNetwork
from repro.core.inference import node_count_groups
from repro.core.ldg import _LDGNetwork
from repro.core.training import feature_stats
from repro.gnn import attention_mask, normalize_adjacency
from repro.gnn.hierarchical import GraphAttentionReadout, HierarchicalAttentionEncoder
from repro.gnn.pooling import DiffPool
from repro.nn import Tensor, concat
from tests._training_reference import reference_fit, reference_readout

PARITY_ATOL = 1e-9


def symmetric_blocks(rng: np.random.Generator, blocks: int, n: int) -> np.ndarray:
    """``(blocks, n, n)`` random symmetric 0/1 adjacencies, self loops included."""
    upper = np.triu(rng.random((blocks, n, n)) < 0.4)
    return (upper | upper.swapaxes(1, 2)).astype(np.float64)


def grads(module, *tensors) -> list[np.ndarray]:
    return [p.grad.copy() for p in module.parameters()] + [t.grad.copy() for t in tensors]


def assert_grads(got, expected, exact: bool) -> None:
    for g, e in zip(got, expected):
        if exact:
            np.testing.assert_array_equal(g, e)
        else:
            np.testing.assert_allclose(g, e, atol=PARITY_ATOL, rtol=0)


class TestGroupModules:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    def test_graph_attention_readout_matches_loop(self, n, blocks, seed):
        """Each block's read-out has the bits of the one-graph reference; with
        one block, so do the gradients (with more, they agree to 1e-9)."""
        rng = np.random.default_rng(seed)
        embeddings = rng.standard_normal((blocks, n, 6))
        readout = GraphAttentionReadout(6, rng=np.random.default_rng(seed % 7))

        x = Tensor(embeddings, requires_grad=True)
        grouped = readout(x)
        singles = [Tensor(block, requires_grad=True) for block in embeddings]
        looped = concat([reference_readout(readout, block) for block in singles], axis=0)
        np.testing.assert_array_equal(grouped.data, looped.data)

        upstream = Tensor(rng.standard_normal(grouped.data.shape))
        readout.zero_grad()
        (grouped * upstream).sum().backward()
        got = grads(readout, x)
        readout.zero_grad()
        (looped * upstream).sum().backward()
        expected = grads(readout) + [np.stack([block.grad for block in singles])]
        assert_grads(got, expected, exact=blocks == 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_diffpool_matches_loop(self, n, blocks, clusters, seed):
        rng = np.random.default_rng(seed)
        adjacency = symmetric_blocks(rng, blocks, n)
        features = rng.standard_normal((blocks, n, 5))
        pool = DiffPool(5, clusters, rng=np.random.default_rng(1))

        x = Tensor(features, requires_grad=True)
        pooled, coarse, assignment = pool(x, adjacency)
        assert pooled.shape == (blocks, clusters, 5)
        assert coarse.shape == (blocks, clusters, clusters)
        singles = [Tensor(block, requires_grad=True) for block in features]
        looped = [pool(single, adj) for single, adj in zip(singles, adjacency)]
        for b, (ref_pooled, ref_coarse, ref_assign) in enumerate(looped):
            np.testing.assert_array_equal(pooled.data[b], ref_pooled.data)
            np.testing.assert_array_equal(coarse[b], ref_coarse)
            np.testing.assert_array_equal(assignment.data[b], ref_assign.data)

        upstream = rng.standard_normal(pooled.data.shape)
        pool.zero_grad()
        (pooled * Tensor(upstream)).sum().backward()
        got = grads(pool, x)
        pool.zero_grad()
        sum((ref[0] * Tensor(upstream[b])).sum() for b, ref in enumerate(looped)).backward()
        expected = grads(pool) + [np.stack([single.grad for single in singles])]
        assert_grads(got, expected, exact=blocks == 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_hierarchical_encoder_matches_loop(self, n, blocks, seed):
        """Two two-head GAT layers and the read-out on a group: each block's
        embedding has the bits of its graph alone; gradients as for the
        read-out."""
        rng = np.random.default_rng(seed)
        mask = attention_mask(symmetric_blocks(rng, blocks, n))
        features = rng.standard_normal((blocks, n, 5))
        encoder = HierarchicalAttentionEncoder(5, 6, num_layers=2, num_heads=2,
                                               rng=np.random.default_rng(seed % 5))
        x = Tensor(features, requires_grad=True)
        grouped = encoder(x, mask)
        singles = [Tensor(block, requires_grad=True) for block in features]
        looped = [encoder(single, block_mask) for single, block_mask in zip(singles, mask)]
        for b, single in enumerate(looped):
            np.testing.assert_array_equal(grouped.data[b], single.data[0])

        upstream = rng.standard_normal(grouped.data.shape)
        encoder.zero_grad()
        (grouped * Tensor(upstream)).sum().backward()
        got = grads(encoder, x)
        encoder.zero_grad()
        sum((single * Tensor(upstream[b:b + 1])).sum()
            for b, single in enumerate(looped)).backward()
        expected = grads(encoder) + [np.stack([single.grad for single in singles])]
        assert_grads(got, expected, exact=blocks == 1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_gsg_network_matches_loop(self, n, blocks, seed):
        """A group's GSG embeddings are each sample's one-sample-group
        embedding, bit for bit; the head is one ``(B, d) @ (d, 1)`` product
        over the group's rows, so its logits agree to 1e-9."""
        rng = np.random.default_rng(seed)
        network = _GSGNetwork(5, 2, GSGConfig(hidden_dim=6, num_heads=2),
                              np.random.default_rng(seed % 5))
        features = rng.standard_normal((blocks, n, 5))
        edge_features = rng.standard_normal((blocks, n, 2))
        mask = attention_mask(symmetric_blocks(rng, blocks, n))
        embedded = network.embed(features, edge_features, mask)
        logits = network(features, edge_features, mask)
        assert logits.shape == (blocks, 1)
        for b in range(blocks):
            own = (features[b:b + 1], edge_features[b:b + 1], mask[b:b + 1])
            np.testing.assert_array_equal(embedded.data[b], network.embed(*own).data[0])
            np.testing.assert_allclose(logits.data[b], network(*own).data[0],
                                       atol=PARITY_ATOL, rtol=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_ldg_network_matches_loop(self, n, blocks, seed):
        """Per-slice GCN and GRU, both DiffPool layers and the dense coarse
        graph between them on a group: each sample's pooled slice features
        keep the bits of its one-sample group, and its logit (through the
        head's product over the group's rows) agrees to 1e-9."""
        rng = np.random.default_rng(seed)
        network = _LDGNetwork(5, LDGConfig(hidden_dim=6, num_slices=3, first_pool_clusters=3),
                              np.random.default_rng(seed % 5))
        features = rng.standard_normal((blocks, n, 5))
        counts = rng.integers(0, 3, size=(3, blocks, n, n)).astype(np.float64)
        slices = counts + counts.swapaxes(-1, -2)
        normalized = normalize_adjacency(slices)
        pooled = network.slice_representations(features, slices, normalized)
        logits = network(features, slices, normalized)
        assert logits.shape == (blocks, 1)
        for b in range(blocks):
            own_slices = np.ascontiguousarray(slices[:, b:b + 1])
            own = (features[b:b + 1], own_slices, normalize_adjacency(own_slices))
            for grouped, single in zip(pooled, network.slice_representations(*own)):
                np.testing.assert_array_equal(grouped.data[b], single.data[0])
            np.testing.assert_allclose(logits.data[b], network(*own).data[0],
                                       atol=PARITY_ATOL, rtol=0)

    def test_contrastive_views_embed_as_they_embed_alone(self, mixed_task):
        """``_embed_views`` forwards each minibatch's views one node count at a
        time; each view's row, in group order, has the bits of the view
        embedded alone."""
        samples, _labels = mixed_task
        branch = GSGBranch(tiny_gsg_config(batch_size=8))
        branch._feature_stats = feature_stats(samples)
        branch._network = _GSGNetwork(samples[0].node_features.shape[1], 2, branch.config,
                                      np.random.default_rng(0))
        rng = np.random.default_rng(4)
        views = []
        for sample in samples:
            features, edge_features, adjacency = branch._view(sample)
            adjacency, features = adaptive_augmentation(adjacency, features,
                                                        branch.config.view1, rng)
            views.append((features, edge_features, adjacency))
        chunk_groups = [[start + i for i in group] for start in range(0, len(views), 8)
                        for group in node_count_groups([len(v[0]) for v in views[start:start + 8]])]
        assert len(chunk_groups) > len(range(0, len(views), 8))   # some chunk mixes sizes
        order = [i for group in chunk_groups for i in group]
        embedded = branch._embed_views(views)
        assert embedded.shape[0] == len(order)
        for row, i in zip(embedded.data, order):
            features, edge_features, adjacency = views[i]
            alone = branch._network.embed(features[np.newaxis], edge_features[np.newaxis],
                                          attention_mask(adjacency[np.newaxis]))
            np.testing.assert_array_equal(row, alone.data[0])


def tiny_gsg_config(**overrides) -> GSGConfig:
    config = GSGConfig(hidden_dim=8, epochs=3, contrastive_batch=4)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def tiny_ldg_config(**overrides) -> LDGConfig:
    config = LDGConfig(hidden_dim=8, epochs=3, num_slices=3, first_pool_clusters=4)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def per_sample_forward(branch, samples) -> np.ndarray:
    """Raw scores of the branch's training forward, one sample at a time."""
    return np.array([branch._network(*branch._inputs([sample])).data.item()
                     for sample in samples])


def fit_pair(branch_cls, config_factory, samples, labels):
    """``(scores, weights)`` of ``fit`` and of the per-sample reference fit."""
    results = []
    for fit in (lambda branch: branch.fit(samples, labels),
                lambda branch: reference_fit(branch, samples, labels)):
        branch = fit(branch_cls(config_factory()))
        results.append((branch.predict_scores(samples),
                        [p.data.copy() for p in branch._network.parameters()]))
    return results


BRANCHES = {
    "gsg": (GSGBranch, tiny_gsg_config),
    "gsg-no-contrastive": (GSGBranch, lambda **kw: tiny_gsg_config(use_contrastive=False, **kw)),
    "ldg": (LDGBranch, tiny_ldg_config),
}


class TestEndToEndParity:
    """``fit`` vs the per-sample reference: bit for bit at ``batch_size=1``,
    ``<= 1e-9`` on the same minibatch schedule above it."""

    def test_default_batch_size_is_legacy_loop(self):
        assert GSGConfig().batch_size == 1
        assert LDGConfig().batch_size == 1

    @pytest.mark.parametrize("category", ["exchange", "ico-wallet", "phish/hack"])
    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_batch_size_one_fit_equals_reference(self, small_dataset, branch, category):
        samples, labels = small_dataset.binary_task(
            category, rng=np.random.default_rng(0))
        samples, labels = samples[:14], labels[:14]
        branch_cls, config_factory = BRANCHES[branch]
        (scores, weights), (ref_scores, ref_weights) = fit_pair(
            branch_cls, config_factory, samples, labels)
        for got, expected in zip(weights, ref_weights):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(scores, ref_scores)

    @pytest.mark.parametrize("batch_size", [5, 32])
    def test_gsg_batched_matches_looped_reference(self, tiny_task, batch_size):
        samples, labels = tiny_task
        (scores_b, weights_b), (scores_r, weights_r) = fit_pair(
            GSGBranch, lambda: tiny_gsg_config(batch_size=batch_size),
            samples, labels)
        for got, expected in zip(weights_b, weights_r):
            np.testing.assert_allclose(got, expected, atol=PARITY_ATOL, rtol=0)
        np.testing.assert_allclose(scores_b, scores_r, atol=PARITY_ATOL, rtol=0)

    @pytest.mark.parametrize("batch_size", [5, 32])
    def test_ldg_batched_matches_looped_reference(self, tiny_task, batch_size):
        samples, labels = tiny_task
        (scores_b, weights_b), (scores_r, weights_r) = fit_pair(
            LDGBranch, lambda: tiny_ldg_config(batch_size=batch_size),
            samples, labels)
        for got, expected in zip(weights_b, weights_r):
            np.testing.assert_allclose(got, expected, atol=PARITY_ATOL, rtol=0)
        np.testing.assert_allclose(scores_b, scores_r, atol=PARITY_ATOL, rtol=0)

    def test_gsg_batch_trained_predict_equals_forward(self, tiny_task):
        samples, labels = tiny_task
        branch = GSGBranch(tiny_gsg_config(batch_size=6)).fit(samples, labels)
        np.testing.assert_array_equal(branch.predict_scores(samples),
                                      per_sample_forward(branch, samples))

    def test_ldg_batch_trained_predict_equals_forward(self, tiny_task):
        samples, labels = tiny_task
        branch = LDGBranch(tiny_ldg_config(batch_size=6)).fit(samples, labels)
        np.testing.assert_array_equal(branch.predict_scores(samples),
                                      per_sample_forward(branch, samples))

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_mixed_size_minibatches_match_looped_reference(self, mixed_task, branch):
        """Minibatches of 32 that hold several node counts run one forward per
        count; the fit stays within 1e-9 of the looped schedule, and every
        sample scores with its one-sample forward's bits."""
        samples, labels = mixed_task
        branch_cls, config_factory = BRANCHES[branch]
        (scores_b, weights_b), (scores_r, weights_r) = fit_pair(
            branch_cls, lambda: config_factory(batch_size=32), samples, labels)
        for got, expected in zip(weights_b, weights_r):
            np.testing.assert_allclose(got, expected, atol=PARITY_ATOL, rtol=0)
        np.testing.assert_allclose(scores_b, scores_r, atol=PARITY_ATOL, rtol=0)
        fitted = branch_cls(config_factory(batch_size=32)).fit(samples, labels)
        np.testing.assert_array_equal(fitted.predict_scores(samples),
                                      per_sample_forward(fitted, samples))

    @pytest.mark.parametrize("batch_size", [0, -3])
    @pytest.mark.parametrize("branch", ["gsg", "ldg"])
    def test_batch_size_below_one_is_rejected(self, tiny_task, branch, batch_size):
        samples, labels = tiny_task
        branch_cls, config_factory = BRANCHES[branch]
        with pytest.raises(ValueError, match="batch_size"):
            branch_cls(config_factory(batch_size=batch_size)).fit(samples, labels)


@pytest.fixture(scope="module")
def tiny_task(small_dataset):
    samples, labels = small_dataset.binary_task(
        "exchange", rng=np.random.default_rng(0))
    return samples[:14], labels[:14]


@pytest.fixture(scope="module")
def mixed_task(small_dataset):
    """40 samples: every one under the 40-node cap (six node counts) and the
    first 34 at the cap, shuffled; labelled by whether the centre has a
    category."""
    small = [s for s in small_dataset if s.num_nodes < 40]
    capped = [s for s in small_dataset if s.num_nodes == 40][:40 - len(small)]
    order = np.random.default_rng(2).permutation(40)
    samples = [(small + capped)[i] for i in order]
    assert len({s.num_nodes for s in samples}) >= 3
    return samples, np.array([s.category is not None for s in samples], dtype=float)


def assert_same_dataset(a, b) -> None:
    assert len(a) == len(b)
    for left, right in zip(a.samples, b.samples):
        assert left.center == right.center
        assert left.category == right.category
        assert left.center_index == right.center_index
        assert left.graph.nodes == right.graph.nodes
        np.testing.assert_array_equal(left.node_features, right.node_features)
        for got, want in zip(left.graph.edge_arrays(), right.graph.edge_arrays()):
            np.testing.assert_array_equal(got, want)


class TestParallelBuild:
    """`build(workers=N)` must be bit-identical to the sequential build."""

    @pytest.fixture(scope="class")
    def builder_factory(self, small_ledger):
        from repro.data import DatasetConfig, SubgraphDatasetBuilder

        def factory():
            return SubgraphDatasetBuilder(
                small_ledger,
                DatasetConfig(top_k=40, max_nodes_per_subgraph=40, seed=3))
        return factory

    @pytest.mark.slow
    def test_process_mode_bit_identical(self, builder_factory, small_dataset):
        parallel = builder_factory().build(workers=2)
        assert_same_dataset(parallel, small_dataset)

    def test_single_worker_is_sequential_path(self, builder_factory, small_dataset):
        assert_same_dataset(builder_factory().build(workers=1), small_dataset)


class TestTaskIndexCache:
    """Repeated task extraction must return identical arrays (cached indices)."""

    def test_binary_task_repeated_calls_identical(self, small_dataset):
        first = small_dataset.binary_task("exchange", rng=np.random.default_rng(5))
        second = small_dataset.binary_task("exchange", rng=np.random.default_rng(5))
        assert [s.center for s in first[0]] == [s.center for s in second[0]]
        np.testing.assert_array_equal(first[1], second[1])

    def test_multiclass_task_repeated_calls_identical(self, small_dataset):
        first = small_dataset.multiclass_task()
        second = small_dataset.multiclass_task()
        assert [s.center for s in first[0]] == [s.center for s in second[0]]
        np.testing.assert_array_equal(first[1], second[1])

    def test_binary_task_missing_category_raises(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.binary_task("no-such-category")
