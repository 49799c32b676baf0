"""Dense-vs-sparse parity suite pinning the CSR message-passing refactor.

Every sparse code path is compared against the faithful seed implementations
preserved in ``tests/_dense_reference.py``, on randomized Erdős–Rényi
adjacencies, hand-built corner cases (isolated nodes, self loops, empty
graphs) and real ego-subgraph samples, to an absolute tolerance of 1e-9.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.augmentation import AugmentationConfig, adaptive_augmentation
from repro.core.gsg import GSGConfig, _GSGNetwork
from repro.core.ldg import LDGConfig, _LDGNetwork
from repro.data.slicing import time_slice_csr
from repro.gnn import (
    APPNPPropagation,
    GATLayer,
    GCNLayer,
    GINLayer,
    GraphSAGELayer,
    HierarchicalAttentionEncoder,
    SparseAdjacency,
    normalize_adjacency,
)
from repro.gnn.pooling import DiffPool
from repro.nn import Adam, Tensor
from repro.nn.losses import binary_cross_entropy_with_logits
from tests import _dense_reference as dense_ref
from tests._dict_reference import build_graph, graph_with_nodes

ATOL = 1e-9

LAYER_REFS = [
    (GCNLayer, dense_ref.gcn_forward),
    (GATLayer, dense_ref.gat_forward),
    (GINLayer, dense_ref.gin_forward),
    (GraphSAGELayer, dense_ref.sage_forward),
]


def erdos_renyi(n: int, p: float, rng: np.random.Generator, weighted: bool = True,
                self_loops: bool = False) -> np.ndarray:
    """Symmetric random adjacency with optional weights and self loops."""
    adj = (rng.random((n, n)) < p).astype(float)
    if weighted:
        adj *= rng.lognormal(0.0, 1.0, size=(n, n))
    adj = np.maximum(adj, adj.T)
    if not self_loops:
        np.fill_diagonal(adj, 0.0)
    return adj


def random_cases(rng):
    """A spread of adjacency corner cases: ER graphs, isolated nodes, loops."""
    cases = []
    for n, p in [(1, 0.0), (2, 1.0), (6, 0.4), (13, 0.25), (30, 0.12)]:
        cases.append(erdos_renyi(n, p, rng))
    cases.append(erdos_renyi(9, 0.3, rng, self_loops=True))       # self loops
    cases.append(np.zeros((5, 5)))                                # empty graph
    isolated = erdos_renyi(8, 0.5, rng)
    isolated[3, :] = isolated[:, 3] = 0.0                         # isolated node
    cases.append(isolated)
    return cases


@pytest.fixture()
def ego_adjacencies(small_dataset):
    """Unweighted symmetric adjacencies of real sampled ego subgraphs."""
    samples = sorted(small_dataset.samples, key=lambda s: -s.num_nodes)[:3]
    return [dense_ref.dense_adjacency(s.graph) for s in samples]


class TestSparseAdjacencyType:
    def test_dense_roundtrip(self, rng):
        for adj in random_cases(rng):
            sp = SparseAdjacency.from_dense(adj)
            np.testing.assert_array_equal(sp.to_dense(), adj)

    def test_from_graph_matches_dense_adjacency(self, toy_graph):
        for weighted in (False, True):
            for symmetric in (False, True):
                sp = SparseAdjacency.from_graph(toy_graph, weighted=weighted,
                                                symmetric=symmetric)
                dense = dense_ref.dense_adjacency(toy_graph, weighted=weighted,
                                                  symmetric=symmetric)
                np.testing.assert_array_equal(sp.to_dense(), dense)

    def test_from_coo_sums_duplicates(self):
        sp = SparseAdjacency.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0], 2)
        np.testing.assert_array_equal(sp.to_dense(), [[0.0, 5.0], [4.0, 0.0]])

    def test_with_self_loops_and_binarized(self, rng):
        adj = erdos_renyi(7, 0.4, rng)
        sp = SparseAdjacency.from_dense(adj)
        np.testing.assert_allclose(sp.with_self_loops().to_dense(),
                                   adj + np.eye(7), atol=ATOL, rtol=0)
        np.testing.assert_array_equal(sp.binarized().to_dense(),
                                      (adj > 0).astype(float))

    def test_matmul_and_rmatmul(self, rng):
        adj = erdos_renyi(11, 0.3, rng)
        adj[2, 5] = 0.7   # break symmetry so matmul vs rmatmul differ
        sp = SparseAdjacency.from_dense(adj)
        x = rng.normal(size=(11, 4))
        np.testing.assert_allclose(sp.matmul(x), adj @ x, atol=ATOL, rtol=0)
        np.testing.assert_allclose(sp.rmatmul(x), adj.T @ x, atol=ATOL, rtol=0)
        v = rng.normal(size=11)
        np.testing.assert_allclose(sp.matmul(v), adj @ v, atol=ATOL, rtol=0)
        np.testing.assert_allclose(sp.rmatmul(v), adj.T @ v, atol=ATOL, rtol=0)

    def test_symmetrized_max(self, rng):
        adj = np.triu(erdos_renyi(6, 0.5, rng), k=1)
        sp = SparseAdjacency.from_dense(adj)
        np.testing.assert_allclose(sp.symmetrized_max().to_dense(),
                                   np.maximum(adj, adj.T), atol=ATOL, rtol=0)

    def test_pruned_drops_explicit_zeros(self):
        sp = SparseAdjacency(np.array([0, 2, 2]), np.array([0, 1]),
                             np.array([0.0, 3.0]))
        pruned = sp.pruned()
        assert pruned.nnz == 1
        np.testing.assert_array_equal(pruned.to_dense(), sp.to_dense())


class TestNormalizeAdjacencyParity:
    def test_randomized_parity(self, rng):
        for adj in random_cases(rng):
            expected = dense_ref.normalize_adjacency_dense(adj)
            got = normalize_adjacency(SparseAdjacency.from_dense(adj))
            assert isinstance(got, SparseAdjacency)
            np.testing.assert_allclose(got.to_dense(), expected, atol=ATOL, rtol=0)

    def test_dense_input_keeps_dense_output(self, rng):
        adj = erdos_renyi(6, 0.4, rng)
        got = normalize_adjacency(adj)
        assert isinstance(got, np.ndarray)
        np.testing.assert_allclose(got, dense_ref.normalize_adjacency_dense(adj))

    @pytest.mark.parametrize("add_self_loops", [True, False])
    def test_zero_degree_rows_guarded(self, add_self_loops):
        """Satellite fix: isolated rows must yield zeros, not divide-by-zero."""
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[1, 0] = 2.0   # rows 2 and 3 are zero-degree
        with np.errstate(divide="raise", invalid="raise"):
            dense_out = normalize_adjacency(adj, add_self_loops=add_self_loops)
            sparse_out = normalize_adjacency(SparseAdjacency.from_dense(adj),
                                             add_self_loops=add_self_loops)
        assert np.all(np.isfinite(dense_out))
        assert np.all(np.isfinite(sparse_out.data))
        np.testing.assert_allclose(sparse_out.to_dense(), dense_out,
                                   atol=ATOL, rtol=0)
        if not add_self_loops:
            np.testing.assert_array_equal(dense_out[2], np.zeros(4))


class TestLayerParity:
    @pytest.mark.parametrize("layer_cls,ref", LAYER_REFS,
                             ids=[cls.__name__ for cls, _ in LAYER_REFS])
    def test_randomized_forward_and_grad_parity(self, layer_cls, ref, rng):
        for case, adj in enumerate(random_cases(rng)):
            layer = layer_cls(6, 5, rng=np.random.default_rng(case))
            x = rng.normal(size=(adj.shape[0], 6))
            xs, xd = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
            out_sparse = layer(xs, SparseAdjacency.from_dense(adj))
            out_dense = ref(layer, xd, adj)
            np.testing.assert_allclose(out_sparse.data, out_dense.data,
                                       atol=ATOL, rtol=0)
            layer.zero_grad()
            out_sparse.sum().backward()
            grads_sparse = [p.grad.copy() for p in layer.parameters()]
            layer.zero_grad()
            out_dense.sum().backward()
            for gs, gd in zip(grads_sparse, (p.grad for p in layer.parameters())):
                np.testing.assert_allclose(gs, gd, atol=ATOL, rtol=0)
            np.testing.assert_allclose(xs.grad, xd.grad, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("layer_cls,ref", LAYER_REFS,
                             ids=[cls.__name__ for cls, _ in LAYER_REFS])
    def test_ego_subgraph_parity(self, layer_cls, ref, ego_adjacencies, rng):
        for adj in ego_adjacencies:
            layer = layer_cls(6, 5, rng=np.random.default_rng(1))
            x = Tensor(rng.normal(size=(adj.shape[0], 6)))
            np.testing.assert_allclose(
                layer(x, SparseAdjacency.from_dense(adj)).data,
                ref(layer, x, adj).data, atol=ATOL, rtol=0)

    def test_dense_input_matches_sparse_input(self, rng):
        """Dense arrays keep working through the coercion path."""
        adj = erdos_renyi(10, 0.3, rng)
        for layer_cls, _ in LAYER_REFS:
            layer = layer_cls(6, 5, rng=np.random.default_rng(0))
            x = Tensor(rng.normal(size=(10, 6)))
            np.testing.assert_array_equal(
                layer(x, adj).data,
                layer(x, SparseAdjacency.from_dense(adj)).data)

    def test_multi_head_gat_parity(self, rng):
        adj = erdos_renyi(12, 0.3, rng)
        layer = GATLayer(6, 5, num_heads=3, rng=np.random.default_rng(2))
        x = Tensor(rng.normal(size=(12, 6)))
        np.testing.assert_allclose(
            layer(x, SparseAdjacency.from_dense(adj)).data,
            dense_ref.gat_forward(layer, x, adj).data, atol=ATOL, rtol=0)

    def test_appnp_parity(self, rng):
        for adj in random_cases(rng):
            module = APPNPPropagation(k=6, alpha=0.15)
            h0 = Tensor(rng.normal(size=(adj.shape[0], 4)))
            np.testing.assert_allclose(
                module(h0, SparseAdjacency.from_dense(adj)).data,
                dense_ref.appnp_forward(module, h0, adj).data, atol=ATOL, rtol=0)

    def test_diffpool_parity(self, rng):
        adj = erdos_renyi(14, 0.3, rng)
        pool = DiffPool(5, 3, rng=np.random.default_rng(4))
        x = Tensor(rng.normal(size=(14, 5)))
        feat_s, adj_s, assign_s = pool(x, SparseAdjacency.from_dense(adj))
        feat_d, adj_d, assign_d = dense_ref.diffpool_forward(pool, x, adj)
        np.testing.assert_allclose(feat_s.data, feat_d.data, atol=ATOL, rtol=0)
        np.testing.assert_allclose(adj_s, adj_d, atol=ATOL, rtol=0)
        np.testing.assert_allclose(assign_s.data, assign_d.data, atol=ATOL, rtol=0)

    def test_hierarchical_encoder_parity(self, rng):
        adj = erdos_renyi(16, 0.25, rng)
        encoder = HierarchicalAttentionEncoder(6, 8, num_layers=2,
                                               rng=np.random.default_rng(5))
        x = Tensor(rng.normal(size=(16, 6)))
        np.testing.assert_allclose(
            encoder(x, SparseAdjacency.from_dense(adj)).data,
            dense_ref.hierarchical_encode(encoder, x, adj).data, atol=ATOL, rtol=0)


class TestTimeSliceParity:
    def slicer_cases(self, small_dataset, toy_graph):
        samples = sorted(small_dataset.samples, key=lambda s: -s.num_edges)[:3]
        return [toy_graph] + [s.graph for s in samples]

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("cumulative", [False, True])
    def test_csr_slicer_matches_dense(self, small_dataset, toy_graph,
                                      weighted, cumulative):
        for graph in self.slicer_cases(small_dataset, toy_graph):
            dense = dense_ref.time_slice_adjacency_dense(
                graph, 5, weighted=weighted, cumulative=cumulative)
            sparse = time_slice_csr(graph, 5, weighted=weighted,
                                    cumulative=cumulative)
            assert len(sparse) == len(dense) == 5
            for sp, dn in zip(sparse, dense):
                assert sp.shape == dn.shape
                np.testing.assert_allclose(sp.to_dense(), dn, atol=ATOL, rtol=0)

    def test_all_edges_in_one_slice(self):
        """Uniform timestamps put every edge in slot 0; later slices are empty."""
        graph = build_graph([("a", "b", 1.0, 1, 50.0), ("b", "c", 2.0, 1, 50.0)])
        dense = dense_ref.time_slice_adjacency_dense(graph, 4)
        sparse = time_slice_csr(graph, 4)
        assert sparse[0].nnz == 4   # two undirected edges, both directions
        for sp, dn in zip(sparse, dense):
            np.testing.assert_allclose(sp.to_dense(), dn, atol=ATOL, rtol=0)
        for sp in sparse[1:]:
            assert sp.nnz == 0

    def test_empty_graph_slices(self):
        graph = graph_with_nodes(["solo"])
        sparse = time_slice_csr(graph, 3)
        assert [sp.shape for sp in sparse] == [(1, 1)] * 3
        assert all(sp.nnz == 0 for sp in sparse)

    def test_self_loop_counts_twice(self):
        """The seed slicer adds a self loop to [i, i] twice; the CSR twin must too."""
        graph = build_graph([("a", "a", 3.0, 1, 1.0), ("a", "b", 1.0, 1, 2.0)])
        dense = dense_ref.time_slice_adjacency_dense(graph, 2)
        sparse = time_slice_csr(graph, 2)
        assert dense[0][0, 0] == pytest.approx(6.0)
        for sp, dn in zip(sparse, dense):
            np.testing.assert_allclose(sp.to_dense(), dn, atol=ATOL, rtol=0)

    def test_num_slices_validation(self, toy_graph):
        with pytest.raises(ValueError):
            time_slice_csr(toy_graph, 0)

    def test_sample_sparse_slices_cached(self, small_dataset):
        sample = small_dataset[0]
        first = sample.time_slices(4, weighted=False)
        assert first is sample.time_slices(4, weighted=False)
        dense = dense_ref.time_slice_adjacency_dense(sample.graph, 4, weighted=False)
        for sp, dn in zip(first, dense):
            np.testing.assert_allclose(sp.to_dense(), dn, atol=ATOL, rtol=0)


class TestAugmentationParity:
    def test_sparse_matches_dense_with_same_seed(self, rng):
        adj = erdos_renyi(15, 0.3, rng)
        features = rng.normal(size=(15, 7))
        for measure in ("degree", "eigenvector", "pagerank"):
            config = AugmentationConfig(0.4, 0.2, centrality_measure=measure)
            dense_adj, dense_feat = adaptive_augmentation(
                adj, features, config, np.random.default_rng(3))
            sparse_adj, sparse_feat = adaptive_augmentation(
                SparseAdjacency.from_dense(adj), features, config,
                np.random.default_rng(3))
            assert isinstance(sparse_adj, SparseAdjacency)
            np.testing.assert_allclose(sparse_adj.to_dense(), dense_adj,
                                       atol=ATOL, rtol=0)
            np.testing.assert_allclose(sparse_feat, dense_feat, atol=ATOL, rtol=0)

    def test_sparse_zero_probabilities_identity(self, rng):
        adj = erdos_renyi(8, 0.4, rng)
        sp = SparseAdjacency.from_dense(adj)
        aug, _ = adaptive_augmentation(sp, rng.normal(size=(8, 3)),
                                       AugmentationConfig(0.0, 0.0), rng)
        np.testing.assert_array_equal(aug.to_dense(), adj)


def _train_one_step_gsg(samples, labels, prepare_dense: bool):
    """One seeded GSG epoch; dense path runs the preserved seed forward."""
    cfg = GSGConfig(epochs=1, use_contrastive=False, seed=0)
    rng = np.random.default_rng(cfg.seed)
    stacked = np.vstack([s.node_features for s in samples])
    mean, std = stacked.mean(axis=0), stacked.std(axis=0)
    std = std.copy()
    std[std < 1e-12] = 1.0
    network = _GSGNetwork(samples[0].node_features.shape[1], 2, cfg, rng)
    optimizer = Adam(network.parameters(), lr=cfg.learning_rate)
    indices = np.arange(len(samples))
    rng.shuffle(indices)
    losses = []
    for idx in indices:
        sample = samples[idx]
        features = (sample.node_features - mean) / std
        edge_features = np.log1p(np.abs(sample.node_edge_features()))
        optimizer.zero_grad()
        if prepare_dense:
            logit = dense_ref.gsg_forward(network, features, edge_features,
                                          dense_ref.dense_adjacency(sample.graph))
        else:
            logit = network(features, edge_features, sample.adjacency_sparse())
        loss = binary_cross_entropy_with_logits(logit.reshape(1),
                                                [float(labels[idx])])
        losses.append(loss.item())
        loss.backward()
        optimizer.step()
    logits = []
    for sample in samples:
        features = (sample.node_features - mean) / std
        edge_features = np.log1p(np.abs(sample.node_edge_features()))
        if prepare_dense:
            out = dense_ref.gsg_forward(network, features, edge_features,
                                        dense_ref.dense_adjacency(sample.graph))
        else:
            out = network(features, edge_features, sample.adjacency_sparse())
        logits.append(out.data.item())
    return np.array(losses), np.array(logits)


def _train_one_step_ldg(samples, labels, prepare_dense: bool):
    """One seeded LDG epoch; dense path runs the preserved seed forward."""
    cfg = LDGConfig(epochs=1, num_slices=4, seed=0)
    rng = np.random.default_rng(cfg.seed)
    stacked = np.vstack([s.node_features for s in samples])
    mean, std = stacked.mean(axis=0), stacked.std(axis=0).copy()
    std[std < 1e-12] = 1.0
    network = _LDGNetwork(samples[0].node_features.shape[1], cfg, rng)
    optimizer = Adam(network.parameters(), lr=cfg.learning_rate)
    indices = np.arange(len(samples))
    rng.shuffle(indices)
    losses = []

    def forward(sample):
        features = (sample.node_features - mean) / std
        if prepare_dense:
            slices = dense_ref.time_slice_adjacency_dense(
                sample.graph, cfg.num_slices, weighted=False)
            return dense_ref.ldg_forward(network, features, slices)
        slices = sample.time_slices(cfg.num_slices, weighted=False)
        return network(features, slices)

    for idx in indices:
        optimizer.zero_grad()
        logit = forward(samples[idx])
        loss = binary_cross_entropy_with_logits(logit.reshape(1),
                                                [float(labels[idx])])
        losses.append(loss.item())
        loss.backward()
        optimizer.step()
    logits = np.array([forward(s).data.item() for s in samples])
    return np.array(losses), logits


class TestEndToEndRegression:
    """Seeded one-epoch training parity on a small generated ledger."""

    def test_gsg_training_step_dense_vs_sparse(self, exchange_task):
        samples, labels = exchange_task
        samples, labels = samples[:6], labels[:6]
        losses_dense, logits_dense = _train_one_step_gsg(samples, labels, True)
        losses_sparse, logits_sparse = _train_one_step_gsg(samples, labels, False)
        np.testing.assert_allclose(losses_sparse, losses_dense, atol=ATOL, rtol=0)
        np.testing.assert_allclose(logits_sparse, logits_dense, atol=ATOL, rtol=0)

    def test_ldg_training_step_dense_vs_sparse(self, exchange_task):
        samples, labels = exchange_task
        samples, labels = samples[:6], labels[:6]
        losses_dense, logits_dense = _train_one_step_ldg(samples, labels, True)
        losses_sparse, logits_sparse = _train_one_step_ldg(samples, labels, False)
        np.testing.assert_allclose(losses_sparse, losses_dense, atol=ATOL, rtol=0)
        np.testing.assert_allclose(logits_sparse, logits_dense, atol=ATOL, rtol=0)
