"""Tests for the 14 baseline classifiers behind the common interface.

The GNN baselines build each sample's dense forms when they forward it;
``TestSeedForwards`` pins every such forward to the seed's per-sample layer
code on the seed's dense forms (``tests/_dense_reference.py``), bit for bit.
"""

import numpy as np
import pytest

from repro.baselines import (
    BERT4ETHClassifier,
    BaselineClassifier,
    GCNClassifier,
    baseline_registry,
)
from repro.metrics import accuracy
from repro.nn import Tensor
from repro.nn.functional import relu, softmax
from tests import _dense_reference as dense_ref
from tests._dict_reference import graph_with_nodes

FAST_GNN_KWARGS = dict(hidden_dim=8, epochs=3)


@pytest.fixture(scope="module")
def baseline_task(small_dataset):
    samples, labels = small_dataset.binary_task("exchange", rng=np.random.default_rng(5))
    return samples[:16], labels[:16]


def fast_registry():
    """The full registry re-parameterised for test speed."""
    registry = baseline_registry(seed=0)
    for model in registry.values():
        if hasattr(model, "hidden_dim"):
            model.hidden_dim = 8
        if hasattr(model, "epochs") and not hasattr(model, "walk_length"):
            model.epochs = 3
        if hasattr(model, "walk_length"):
            model.walk_length = 6
            model.walks_per_node = 1
            model.dim = 8
    return registry


def seed_stacked(layer_forward, pooling="mean", weighted=False):
    """The seed's layer stack, pooling and head on the dense adjacency (TSGN:
    ``log1p`` of the amount-weighted one)."""
    def forward(network, features, graph):
        adjacency = dense_ref.dense_adjacency(graph, weighted=weighted)
        if weighted:
            adjacency = np.log1p(adjacency)
        h = Tensor(features)
        for layer in network.layers:
            h = layer_forward(layer, h, adjacency)
        pooled = h.max(axis=0, keepdims=True) if pooling == "max" else h.mean(axis=0, keepdims=True)
        return network.head(pooled)
    return forward


def seed_appnp(network, features, graph):
    h0 = relu(network.fc2(relu(network.fc1(Tensor(features)))))
    propagated = dense_ref.appnp_forward(network.propagation, h0,
                                         dense_ref.dense_adjacency(graph))
    return network.head(propagated.mean(axis=0, keepdims=True))


def seed_ethident(network, features, graph):
    aligned = relu(network.align(Tensor(features)))
    return network.head(dense_ref.hierarchical_encode(network.encoder, aligned,
                                                      dense_ref.dense_adjacency(graph)))


def seed_tegdetector(network, features, graph):
    hidden = relu(network.input_proj(Tensor(features)))
    weights = softmax(network.time_logits.reshape(1, -1), axis=1)
    pooled_sum = None
    for t, adjacency in enumerate(dense_ref.time_slice_adjacency_dense(graph, network.num_slices)):
        hidden = network.gru(dense_ref.gcn_forward(network.gcn, hidden, adjacency), hidden)
        pooled = hidden.mean(axis=0, keepdims=True) * weights[0, t].reshape(1, 1)
        pooled_sum = pooled if pooled_sum is None else pooled_sum + pooled
    return network.head(pooled_sum)


SEED_FORWARDS = {
    "GCN": seed_stacked(dense_ref.gcn_forward),
    "GAT": seed_stacked(dense_ref.gat_forward),
    "GIN": seed_stacked(dense_ref.gin_forward),
    "GraphSAGE": seed_stacked(dense_ref.sage_forward),
    "I2BGNN": seed_stacked(dense_ref.gin_forward, pooling="max"),
    "TSGN": seed_stacked(dense_ref.gcn_forward, weighted=True),
    "APPNP": seed_appnp,
    "Ethident": seed_ethident,
    "TEGDetector": seed_tegdetector,
}


class TestSeedForwards:
    @pytest.mark.parametrize("name", sorted(SEED_FORWARDS))
    def test_forward_matches_seed(self, name, baseline_task):
        samples, _labels = baseline_task
        model = fast_registry()[name]
        in_dim = samples[0].node_features.shape[1]
        network = model._build_network(in_dim, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for sample in samples[:4]:
            features = rng.standard_normal((sample.num_nodes, in_dim))
            got = network(features, sample)
            want = SEED_FORWARDS[name](network, features, sample.graph)
            assert got.shape == want.shape == (1, 1)
            assert got.data.tobytes() == want.data.tobytes()


class TestRegistry:
    def test_fourteen_baselines(self):
        assert len(baseline_registry()) == 14

    def test_names_match_keys(self):
        for key, model in baseline_registry().items():
            assert model.name == key

    def test_base_class_interface_is_abstract(self):
        with pytest.raises(NotImplementedError):
            BaselineClassifier().fit([], [])
        with pytest.raises(NotImplementedError):
            BaselineClassifier().predict_proba([])


@pytest.mark.slow
class TestAllBaselines:
    """Trains all 14 baselines end to end — the slow tail of the tier-1 suite."""

    @pytest.mark.parametrize("name", sorted(baseline_registry()))
    def test_fit_predict_evaluate(self, name, baseline_task):
        samples, labels = baseline_task
        model = fast_registry()[name]
        model.fit(samples, labels)
        probs = model.predict_proba(samples)
        assert probs.shape == (len(samples),)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
        predictions = model.predict(samples)
        assert set(np.unique(predictions)) <= {0, 1}
        report = model.evaluate(samples, labels)
        assert set(report) == {"precision", "recall", "f1", "accuracy"}

    def test_gnn_baseline_learns_training_set(self, baseline_task):
        samples, labels = baseline_task
        model = GCNClassifier(hidden_dim=16, epochs=10, seed=0)
        model.fit(samples, labels)
        assert accuracy(labels, model.predict(samples)) >= 0.7

    def test_unfitted_gnn_baseline_raises(self, baseline_task):
        samples, _labels = baseline_task
        with pytest.raises(RuntimeError):
            GCNClassifier(**FAST_GNN_KWARGS).predict_proba(samples)

    def test_label_length_mismatch_raises(self, baseline_task):
        samples, labels = baseline_task
        with pytest.raises(ValueError):
            GCNClassifier(**FAST_GNN_KWARGS).fit(samples, labels[:-1])

    def test_structure_only_variant_runs(self, baseline_task):
        samples, labels = baseline_task
        model = GCNClassifier(hidden_dim=8, epochs=3, use_node_features=False, seed=0)
        model.fit(samples, labels)
        assert model.predict(samples).shape == (len(samples),)

    def test_bert4eth_tokenizer_shapes(self, baseline_task):
        samples, _labels = baseline_task
        model = BERT4ETHClassifier(**FAST_GNN_KWARGS)
        tokens = model._tokenize(samples[0])
        assert tokens.ndim == 2 and tokens.shape[1] == 4
        assert tokens.shape[0] <= model.max_sequence_length

    def test_bert4eth_handles_center_with_no_edges(self, baseline_task, small_dataset):
        model = BERT4ETHClassifier(**FAST_GNN_KWARGS)
        # Construct a degenerate sample graph with an isolated centre.
        from repro.data.dataset import AccountSubgraph

        graph = graph_with_nodes(["0xlonely"])
        sample = AccountSubgraph(center="0xlonely", category=None, graph=graph,
                                 node_features=np.zeros((1, 15)), center_index=0)
        tokens = model._tokenize(sample)
        assert tokens.shape == (1, 4)

    def test_deterministic_given_seed(self, baseline_task):
        samples, labels = baseline_task
        a = GCNClassifier(**FAST_GNN_KWARGS, seed=1).fit(samples, labels).predict_proba(samples)
        b = GCNClassifier(**FAST_GNN_KWARGS, seed=1).fit(samples, labels).predict_proba(samples)
        np.testing.assert_allclose(a, b)
