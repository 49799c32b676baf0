"""Tests for pooling operators, DiffPool, the GRU cell and the hierarchical encoder."""

import numpy as np
import pytest

from repro.gnn import (
    DiffPool,
    attention_mask,
    GRUCell,
    GraphAttentionReadout,
    HierarchicalAttentionEncoder,
    global_max_pool,
    global_mean_pool,
    global_sum_pool,
)
from repro.nn import Tensor


class TestGlobalPooling:
    def test_mean_pool(self, rng):
        x = rng.normal(size=(5, 3))
        np.testing.assert_allclose(global_mean_pool(Tensor(x)).data, x.mean(axis=0, keepdims=True))

    def test_max_pool(self, rng):
        x = rng.normal(size=(5, 3))
        np.testing.assert_allclose(global_max_pool(Tensor(x)).data, x.max(axis=0, keepdims=True))

    def test_sum_pool(self, rng):
        x = rng.normal(size=(5, 3))
        np.testing.assert_allclose(global_sum_pool(Tensor(x)).data, x.sum(axis=0, keepdims=True))

    def test_pool_outputs_are_row_vectors(self, rng):
        x = Tensor(rng.normal(size=(7, 4)))
        for pool in (global_mean_pool, global_max_pool, global_sum_pool):
            assert pool(x).shape == (1, 4)


class TestDiffPool:
    def test_shapes(self, rng):
        adjacency = (rng.random((8, 8)) > 0.5).astype(float)
        adjacency = np.maximum(adjacency, adjacency.T)
        pool = DiffPool(in_dim=5, num_clusters=3, rng=rng)
        features, pooled_adj, assignment = pool(Tensor(rng.normal(size=(8, 5))), adjacency)
        assert features.shape == (3, 5)
        assert pooled_adj.shape == (3, 3)
        assert assignment.shape == (8, 3)

    def test_assignment_rows_are_distributions(self, rng):
        adjacency = np.eye(6)
        pool = DiffPool(in_dim=4, num_clusters=2, rng=rng)
        _f, _a, assignment = pool(Tensor(rng.normal(size=(6, 4))), adjacency)
        np.testing.assert_allclose(assignment.data.sum(axis=1), np.ones(6), atol=1e-9)

    def test_group_pools_each_block(self, rng):
        adjacency = (rng.random((4, 6, 6)) > 0.5).astype(float)
        pool = DiffPool(in_dim=3, num_clusters=2, rng=rng)
        features, pooled_adj, assignment = pool(Tensor(rng.normal(size=(4, 6, 3))), adjacency)
        assert features.shape == (4, 2, 3)
        assert pooled_adj.shape == (4, 2, 2)
        assert assignment.shape == (4, 6, 2)

    def test_single_cluster_collapses_graph(self, rng):
        adjacency = np.ones((5, 5)) - np.eye(5)
        pool = DiffPool(in_dim=4, num_clusters=1, rng=rng)
        features, pooled_adj, _ = pool(Tensor(rng.normal(size=(5, 4))), adjacency)
        assert features.shape == (1, 4)
        assert pooled_adj.shape == (1, 1)

    def test_invalid_cluster_count_raises(self):
        with pytest.raises(ValueError):
            DiffPool(in_dim=4, num_clusters=0)

    def test_gradient_flows_through_pooled_features(self, rng):
        adjacency = np.ones((4, 4)) - np.eye(4)
        pool = DiffPool(in_dim=3, num_clusters=2, rng=rng)
        features, _adj, _assign = pool(Tensor(rng.normal(size=(4, 3))), adjacency)
        features.sum().backward()
        assert all(p.grad is not None for p in pool.parameters())


class TestGRUCell:
    def test_output_shape(self, rng):
        gru = GRUCell(4, 6, rng=rng)
        out = gru(Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(5, 6))))
        assert out.shape == (5, 6)

    def test_initial_state_is_zero(self):
        gru = GRUCell(4, 6)
        np.testing.assert_allclose(gru.initial_state(3).data, np.zeros((3, 6)))

    def test_output_bounded_by_tanh_dynamics(self, rng):
        gru = GRUCell(4, 4, rng=rng)
        hidden = gru.initial_state(5)
        for _ in range(10):
            hidden = gru(Tensor(rng.normal(size=(5, 4))), hidden)
        assert np.all(np.abs(hidden.data) <= 1.0 + 1e-9)

    def test_state_carries_information(self, rng):
        gru = GRUCell(3, 3, rng=rng)
        inputs = Tensor(rng.normal(size=(2, 3)))
        from_zero = gru(inputs, gru.initial_state(2)).data
        from_nonzero = gru(inputs, Tensor(np.ones((2, 3)))).data
        assert not np.allclose(from_zero, from_nonzero)

    def test_gradients_reach_all_parameters(self, rng):
        gru = GRUCell(3, 3, rng=rng)
        out = gru(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3))))
        out.sum().backward()
        assert all(p.grad is not None for p in gru.parameters())

    def test_parameter_count(self):
        gru = GRUCell(4, 6)
        # 3 input matrices (4x6) + 3 hidden matrices (6x6) + 3 biases (6).
        assert gru.num_parameters() == 3 * 24 + 3 * 36 + 3 * 6


class TestHierarchicalAttention:
    def test_readout_shape(self, rng):
        readout = GraphAttentionReadout(8, rng=rng)
        assert readout(Tensor(rng.normal(size=(6, 8)))).shape == (1, 8)

    def test_encoder_shape(self, rng):
        adjacency = (rng.random((7, 7)) > 0.5).astype(float)
        adjacency = np.maximum(adjacency, adjacency.T)
        encoder = HierarchicalAttentionEncoder(5, 8, num_layers=2, rng=rng)
        out = encoder(Tensor(rng.normal(size=(7, 5))), attention_mask(adjacency))
        assert out.shape == (1, 8)

    def test_group_encoder_shape(self, rng):
        adjacency = (rng.random((3, 7, 7)) > 0.5).astype(float)
        encoder = HierarchicalAttentionEncoder(5, 8, num_layers=2, rng=rng)
        out = encoder(Tensor(rng.normal(size=(3, 7, 5))), attention_mask(adjacency))
        assert out.shape == (3, 8)

    def test_node_embeddings_shape(self, rng):
        adjacency = np.ones((4, 4)) - np.eye(4)
        encoder = HierarchicalAttentionEncoder(3, 6, num_layers=2, rng=rng)
        mask = attention_mask(adjacency)
        assert encoder.node_embeddings(Tensor(rng.normal(size=(4, 3))), mask).shape == (4, 6)

    def test_zero_layers_raises(self):
        with pytest.raises(ValueError):
            HierarchicalAttentionEncoder(3, 6, num_layers=0)

    def test_different_graphs_get_different_embeddings(self, rng):
        encoder = HierarchicalAttentionEncoder(3, 6, num_layers=2, rng=np.random.default_rng(0))
        features = rng.normal(size=(5, 3))
        dense = np.ones((5, 5)) - np.eye(5)
        sparse = np.zeros((5, 5))
        out_dense = encoder(Tensor(features), attention_mask(dense)).data
        out_sparse = encoder(Tensor(features), attention_mask(sparse)).data
        assert not np.allclose(out_dense, out_sparse)

    def test_gradients_reach_every_parameter(self, rng):
        adjacency = np.ones((4, 4)) - np.eye(4)
        encoder = HierarchicalAttentionEncoder(3, 6, num_layers=2, rng=rng)
        encoder(Tensor(rng.normal(size=(4, 3))), attention_mask(adjacency)).sum().backward()
        assert all(p.grad is not None for p in encoder.parameters())
