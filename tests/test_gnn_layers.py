"""Tests for the dense GNN layers."""

import numpy as np
import pytest

from repro.gnn import (
    APPNPPropagation,
    GATLayer,
    GCNLayer,
    GINLayer,
    GraphSAGELayer,
    attention_mask,
    normalize_adjacency,
)
from repro.nn import Adam, Tensor

# The adjacency form each layer aggregates with.
FORMS = {GCNLayer: normalize_adjacency, GATLayer: attention_mask,
         GINLayer: np.asarray, GraphSAGELayer: np.asarray}


@pytest.fixture()
def small_graph(rng):
    adjacency = np.array([
        [0, 1, 1, 0],
        [1, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ], dtype=float)
    features = rng.normal(size=(4, 6))
    return adjacency, features


class TestNormalizeAdjacency:
    def test_symmetric_output(self, small_graph):
        adjacency, _ = small_graph
        normalized = normalize_adjacency(adjacency)
        np.testing.assert_allclose(normalized, normalized.T)

    def test_self_loops_added(self):
        normalized = normalize_adjacency(np.zeros((3, 3)))
        np.testing.assert_allclose(normalized, np.eye(3))

    def test_rows_of_regular_graph(self):
        # A 3-cycle plus self loops has every node at degree 3.
        adjacency = np.ones((3, 3)) - np.eye(3)
        normalized = normalize_adjacency(adjacency)
        np.testing.assert_allclose(normalized, np.full((3, 3), 1 / 3))

    def test_isolated_node_stays_finite(self):
        adjacency = np.zeros((2, 2))
        adjacency[0, 1] = adjacency[1, 0] = 0.0
        assert np.all(np.isfinite(normalize_adjacency(adjacency)))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            normalize_adjacency(np.zeros((2, 3)))

    def test_stack_normalises_each_block(self, small_graph):
        adjacency, _ = small_graph
        stack = np.stack([adjacency, np.zeros((4, 4))])
        normalized = normalize_adjacency(stack)
        np.testing.assert_array_equal(normalized[0], normalize_adjacency(adjacency))
        np.testing.assert_array_equal(normalized[1], np.eye(4))


class TestAttentionMask:
    def test_zero_on_edges_and_diagonal(self, small_graph):
        adjacency, _ = small_graph
        mask = attention_mask(adjacency)
        attends = (adjacency > 0) | np.eye(4, dtype=bool)
        np.testing.assert_array_equal(mask[attends], 0.0)
        np.testing.assert_array_equal(mask[~attends], -1e9)


class TestLayerShapes:
    @pytest.mark.parametrize("layer_cls", [GCNLayer, GATLayer, GINLayer, GraphSAGELayer])
    def test_output_shape(self, layer_cls, small_graph, rng):
        adjacency, features = small_graph
        layer = layer_cls(6, 5, rng=rng)
        out = layer(Tensor(features), FORMS[layer_cls](adjacency))
        assert out.shape == (4, 5)

    @pytest.mark.parametrize("layer_cls", [GCNLayer, GATLayer, GINLayer, GraphSAGELayer])
    def test_group_output_shape(self, layer_cls, small_graph, rng):
        adjacency, features = small_graph
        layer = layer_cls(6, 5, rng=rng)
        group = FORMS[layer_cls](np.stack([adjacency, adjacency.T, np.zeros((4, 4))]))
        assert layer(Tensor(np.stack([features] * 3)), group).shape == (3, 4, 5)

    @pytest.mark.parametrize("layer_cls", [GCNLayer, GATLayer, GINLayer, GraphSAGELayer])
    def test_gradients_reach_parameters(self, layer_cls, small_graph, rng):
        adjacency, features = small_graph
        layer = layer_cls(6, 5, rng=rng)
        layer(Tensor(features), FORMS[layer_cls](adjacency)).sum().backward()
        assert all(p.grad is not None for p in layer.parameters())

    def test_gat_multi_head_shape(self, small_graph, rng):
        adjacency, features = small_graph
        layer = GATLayer(6, 5, num_heads=3, rng=rng)
        assert layer(Tensor(features), attention_mask(adjacency)).shape == (4, 5)

    def test_appnp_preserves_shape(self, small_graph, rng):
        adjacency, features = small_graph
        out = APPNPPropagation(k=3, alpha=0.2)(Tensor(features),
                                              normalize_adjacency(adjacency))
        assert out.shape == features.shape


class TestLayerSemantics:
    def test_gcn_isolated_node_depends_only_on_itself(self, rng):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        layer = GCNLayer(4, 4, activation=None, rng=rng)
        features = rng.normal(size=(3, 4))
        normalized = normalize_adjacency(adjacency)
        base = layer(Tensor(features), normalized).data.copy()
        perturbed = features.copy()
        perturbed[0] += 10.0   # change node 0; node 2 is isolated from it
        out = layer(Tensor(perturbed), normalized).data
        np.testing.assert_allclose(out[2], base[2])
        assert not np.allclose(out[0], base[0])

    def test_gat_attention_restricted_to_neighbours(self, rng):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        layer = GATLayer(4, 4, rng=rng)
        features = rng.normal(size=(3, 4))
        mask = attention_mask(adjacency)
        base = layer(Tensor(features), mask).data.copy()
        perturbed = features.copy()
        perturbed[0] += 5.0
        out = layer(Tensor(perturbed), mask).data
        np.testing.assert_allclose(out[2], base[2])

    def test_gin_permutation_equivariance(self, rng):
        adjacency = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        features = rng.normal(size=(3, 4))
        layer = GINLayer(4, 4, rng=np.random.default_rng(1))
        out = layer(Tensor(features), adjacency).data
        perm = np.array([2, 1, 0])
        out_perm = layer(Tensor(features[perm]), adjacency[np.ix_(perm, perm)]).data
        np.testing.assert_allclose(out[perm], out_perm, atol=1e-10)

    def test_appnp_alpha_one_is_identity(self, small_graph):
        adjacency, features = small_graph
        out = APPNPPropagation(k=5, alpha=1.0)(Tensor(features),
                                              normalize_adjacency(adjacency))
        np.testing.assert_allclose(out.data, features)

    def test_appnp_invalid_alpha_raises(self):
        with pytest.raises(ValueError):
            APPNPPropagation(alpha=2.0)

    def test_sage_aggregates_neighbour_mean(self, rng):
        adjacency = np.array([[0, 1], [1, 0]], dtype=float)
        layer = GraphSAGELayer(2, 2, activation=None, rng=rng)
        features = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = layer(Tensor(features), adjacency).data
        expected0 = features[0] @ layer.self_linear.weight.data \
            + features[1] @ layer.neighbor_linear.weight.data \
            + layer.self_linear.bias.data + layer.neighbor_linear.bias.data
        np.testing.assert_allclose(out[0], expected0, atol=1e-10)


class TestTrainability:
    def test_gcn_learns_to_separate_two_graph_classes(self, rng):
        """A tiny end-to-end sanity check that gradients actually train a GCN.

        Node 2's output should become high when it is connected to the feature-
        carrying nodes (dense graph) and low when it is isolated (sparse graph).
        """
        layer = GCNLayer(2, 1, activation=None, rng=rng)
        optimizer = Adam(layer.parameters(), lr=0.05)
        dense = normalize_adjacency(np.ones((4, 4)) - np.eye(4))
        sparse = normalize_adjacency(np.zeros((4, 4)))
        features = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        for _ in range(150):
            optimizer.zero_grad()
            pos = layer(Tensor(features), dense)[2].sum()
            neg = layer(Tensor(features), sparse)[2].sum()
            loss = (1.0 - pos) ** 2 + (neg + 1.0) ** 2
            loss.backward()
            optimizer.step()
        final_pos = layer(Tensor(features), dense)[2].sum().item()
        final_neg = layer(Tensor(features), sparse)[2].sum().item()
        assert final_pos > final_neg
