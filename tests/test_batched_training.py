"""Block-diagonal batched training: structure, segment ops, end-to-end parity.

Every GSG/LDG fit runs one minibatch loop over block-diagonal stacks; a
sample is a one-block stack.  Three layers of pinning:

* hypothesis property suites over arbitrary sample mixes (including 1-node and
  empty-edge subgraphs) check that :meth:`SparseAdjacency.block_diagonal`
  stacking, its block-wise derived forms and the segment ops agree with
  per-sample computation bit-for-bit / to machine precision;
* module-level tests pin the stacked GraphAttentionReadout (bit for bit per
  block) and DiffPool against the per-sample forwards, gradients included;
* end-to-end tests compare ``fit`` with the per-sample reference training
  in ``tests/_training_reference.py``: bit for bit at ``batch_size=1`` and
  within ``1e-9`` of its looped schedule above; a batch-trained branch
  scores every sample with the bits of its own one-sample ``_network``
  forward.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GSGBranch, GSGConfig, LDGBranch, LDGConfig
from repro.gnn.hierarchical import GraphAttentionReadout
from repro.gnn.pooling import DiffPool
from repro.gnn.sparse_ops import segment_matmul, segment_mean_batch
from repro.graph.sparse import BatchedAdjacency, SparseAdjacency
from repro.nn import Tensor, concat
from tests._training_reference import reference_fit, reference_readout

PARITY_ATOL = 1e-9

# Sample descriptors: (num_nodes, [(src, dst, value), ...]); endpoints are
# reduced mod num_nodes, so 1-node subgraphs (self-loop-only) and empty edge
# lists are both reachable.
sample_lists = st.lists(
    st.tuples(
        st.integers(1, 8),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                           st.floats(0.1, 10.0, allow_nan=False)),
                 max_size=16)),
    min_size=1, max_size=6)


def build_samples(descriptors) -> list[SparseAdjacency]:
    samples = []
    for n, edges in descriptors:
        rows = np.array([r % n for r, _, _ in edges], dtype=np.int64)
        cols = np.array([c % n for _, c, _ in edges], dtype=np.int64)
        vals = np.array([v for _, _, v in edges], dtype=np.float64)
        samples.append(SparseAdjacency.from_coo(rows, cols, vals, n))
    return samples


def assert_same_matrix(a: SparseAdjacency, b: SparseAdjacency) -> None:
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


class TestBlockDiagonal:
    @settings(max_examples=60, deadline=None)
    @given(sample_lists)
    def test_structure_and_blocks_roundtrip(self, descriptors):
        samples = build_samples(descriptors)
        stacked = SparseAdjacency.block_diagonal(samples)
        assert isinstance(stacked, BatchedAdjacency)
        assert stacked.num_graphs == len(samples)
        assert stacked.num_nodes == sum(s.num_nodes for s in samples)
        assert stacked.nnz == sum(s.nnz for s in samples)
        assert np.array_equal(stacked.node_counts(),
                              [s.num_nodes for s in samples])
        for original, block in zip(samples, stacked.blocks()):
            assert_same_matrix(original, block)

    @settings(max_examples=60, deadline=None)
    @given(sample_lists, st.integers(0, 2 ** 32 - 1))
    def test_stacked_matmul_equals_per_sample(self, descriptors, seed):
        samples = build_samples(descriptors)
        stacked = SparseAdjacency.block_diagonal(samples)
        x = np.random.default_rng(seed).standard_normal((stacked.num_nodes, 3))
        result = stacked.matmul(x)
        offsets = stacked.node_offsets
        for b, sample in enumerate(samples):
            lo, hi = offsets[b], offsets[b + 1]
            assert np.array_equal(result[lo:hi], sample.matmul(x[lo:hi]))

    @settings(max_examples=40, deadline=None)
    @given(sample_lists)
    def test_derived_forms_compose_blockwise(self, descriptors):
        samples = build_samples(descriptors)
        stacked = SparseAdjacency.block_diagonal(samples)
        for name in SparseAdjacency._BLOCKWISE_DERIVED:
            derived = getattr(stacked, name)()
            expected = SparseAdjacency.block_diagonal(
                [getattr(s, name)() for s in samples])
            assert_same_matrix(derived, expected)

    @settings(max_examples=40, deadline=None)
    @given(sample_lists)
    def test_memo_seeding_matches_direct_computation(self, descriptors):
        samples = build_samples(descriptors)
        seeded = SparseAdjacency.block_diagonal(
            samples, derived=("gcn_normalized", "attention_structure"))
        direct = SparseAdjacency.block_diagonal(samples)
        assert_same_matrix(seeded.gcn_normalized(), direct.gcn_normalized())
        assert_same_matrix(seeded.attention_structure(),
                           direct.attention_structure())

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError):
            SparseAdjacency.block_diagonal([])

    def test_pickle_preserves_offsets(self):
        import pickle

        samples = [SparseAdjacency.empty(2),
                   SparseAdjacency.from_dense(np.eye(3))]
        stacked = SparseAdjacency.block_diagonal(samples)
        clone = pickle.loads(pickle.dumps(stacked))
        assert isinstance(clone, BatchedAdjacency)
        assert np.array_equal(clone.node_offsets, stacked.node_offsets)
        assert np.array_equal(clone.edge_offsets, stacked.edge_offsets)
        assert_same_matrix(clone, stacked)


class TestSegmentReadouts:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 7), min_size=1, max_size=6),
           st.integers(0, 2 ** 32 - 1))
    def test_forward_and_grad_match_looped_reference(self, counts, seed):
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((offsets[-1], 4))

        x_batched = Tensor(values, requires_grad=True)
        out = segment_mean_batch(x_batched, offsets)
        x_looped = Tensor(values, requires_grad=True)
        ref = concat([x_looped[np.arange(offsets[b], offsets[b + 1])].mean(
            axis=0, keepdims=True) for b in range(len(counts))], axis=0)

        np.testing.assert_allclose(out.data, ref.data, atol=PARITY_ATOL, rtol=0)
        upstream = rng.standard_normal(out.data.shape)
        (out * Tensor(upstream)).sum().backward()
        (ref * Tensor(upstream)).sum().backward()
        np.testing.assert_allclose(x_batched.grad, x_looped.grad,
                                   atol=PARITY_ATOL, rtol=0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5),
           st.integers(0, 2 ** 32 - 1))
    def test_segment_matmul_matches_per_block(self, counts, seed):
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        rng = np.random.default_rng(seed)
        a_data = rng.standard_normal((offsets[-1], 3))
        b_data = rng.standard_normal((offsets[-1], 2))

        a1, b1 = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        out = segment_matmul(a1, b1, offsets)
        a2, b2 = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        ref = concat([
            a2[np.arange(offsets[g], offsets[g + 1])].T
            @ b2[np.arange(offsets[g], offsets[g + 1])]
            for g in range(len(counts))], axis=0)

        np.testing.assert_array_equal(out.data, ref.data)
        upstream = rng.standard_normal(out.data.shape)
        (out * Tensor(upstream)).sum().backward()
        (ref * Tensor(upstream)).sum().backward()
        np.testing.assert_allclose(a1.grad, a2.grad, atol=PARITY_ATOL, rtol=0)
        np.testing.assert_allclose(b1.grad, b2.grad, atol=PARITY_ATOL, rtol=0)


class TestBatchedModules:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=32),
           st.integers(0, 2 ** 32 - 1))
    def test_graph_attention_readout_matches_loop(self, counts, seed):
        """Each block's read-out has the bits of the one-graph reference; with
        one block, so do the gradients (with more, they agree to 1e-9)."""
        rng = np.random.default_rng(seed)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        embeddings = rng.standard_normal((offsets[-1], 6))
        readout = GraphAttentionReadout(6, rng=np.random.default_rng(seed % 7))
        # A plain adjacency is a one-block stack.
        stack = SparseAdjacency.empty(counts[0]) if len(counts) == 1 else \
            SparseAdjacency.block_diagonal([SparseAdjacency.empty(n) for n in counts])

        x = Tensor(embeddings, requires_grad=True)
        stacked = readout(x, stack)
        blocks = [Tensor(embeddings[offsets[b]:offsets[b + 1]], requires_grad=True)
                  for b in range(len(counts))]
        looped = concat([reference_readout(readout, block) for block in blocks], axis=0)
        np.testing.assert_array_equal(stacked.data, looped.data)

        upstream = rng.standard_normal(stacked.data.shape)
        for p in readout.parameters():
            p.zero_grad()
        (stacked * Tensor(upstream)).sum().backward()
        stacked_grads = [p.grad.copy() for p in readout.parameters()] + [x.grad]
        for p in readout.parameters():
            p.zero_grad()
        (looped * Tensor(upstream)).sum().backward()
        looped_grads = [p.grad for p in readout.parameters()] + [
            np.vstack([block.grad for block in blocks])]
        for got, expected in zip(stacked_grads, looped_grads):
            if len(counts) == 1:
                np.testing.assert_array_equal(got, expected)
            else:
                np.testing.assert_allclose(got, expected, atol=PARITY_ATOL, rtol=0)

    @settings(max_examples=25, deadline=None)
    @given(sample_lists, st.integers(0, 2 ** 32 - 1))
    def test_diffpool_matches_loop(self, descriptors, seed):
        samples = [s.symmetrized_max() for s in build_samples(descriptors)]
        stacked = SparseAdjacency.block_diagonal(samples)
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((stacked.num_nodes, 5))
        pool = DiffPool(5, 3, rng=np.random.default_rng(1))

        pooled, pooled_adj, assignment = pool.forward_batched(
            Tensor(features), stacked)
        assert isinstance(pooled_adj, BatchedAdjacency)
        assert pooled_adj.num_graphs == len(samples)
        offsets = stacked.node_offsets
        for b, sample in enumerate(samples):
            lo, hi = offsets[b], offsets[b + 1]
            ref_pooled, ref_adj, ref_assign = pool(Tensor(features[lo:hi]), sample)
            np.testing.assert_allclose(pooled.data[3 * b:3 * (b + 1)],
                                       ref_pooled.data, atol=PARITY_ATOL, rtol=0)
            np.testing.assert_allclose(assignment.data[lo:hi], ref_assign.data,
                                       atol=PARITY_ATOL, rtol=0)
            block = pooled_adj.blocks()[b]
            expected = SparseAdjacency.coerce(ref_adj)
            np.testing.assert_array_equal(block.indptr, expected.indptr)
            np.testing.assert_array_equal(block.indices, expected.indices)
            np.testing.assert_allclose(block.data, expected.data,
                                       atol=PARITY_ATOL, rtol=0)


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
    return np.array([branch._network(*branch._prepare(sample)).data.item()
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


def assert_same_dataset(a, b) -> None:
    assert len(a) == len(b)
    for left, right in zip(a.samples, b.samples):
        assert left.center == right.center
        assert left.category == right.category
        assert left.center_index == right.center_index
        assert left.graph.nodes == right.graph.nodes
        np.testing.assert_array_equal(left.node_features, right.node_features)
        np.testing.assert_array_equal(left.adjacency(weighted=True),
                                      right.adjacency(weighted=True))


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

    def test_thread_mode_bit_identical(self, builder_factory, small_dataset):
        parallel = builder_factory().build(workers=4, mode="thread")
        assert_same_dataset(parallel, small_dataset)

    @pytest.mark.slow
    def test_process_mode_bit_identical(self, builder_factory, small_dataset):
        parallel = builder_factory().build(workers=2, mode="process")
        assert_same_dataset(parallel, small_dataset)

    def test_single_worker_is_sequential_path(self, builder_factory, small_dataset):
        assert_same_dataset(builder_factory().build(workers=1), small_dataset)

    def test_unknown_mode_rejected(self, builder_factory):
        with pytest.raises(ValueError, match="mode"):
            builder_factory().build(workers=2, mode="bogus")


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
