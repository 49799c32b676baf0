"""Dense-layer parity suite: the production layers against the seed's per-sample code.

The layers in :mod:`repro.gnn` take precomputed forms (``Â``, the attention
mask) of ``(..., n, n)`` blocks; ``tests/_dense_reference.py`` keeps the
seed's per-sample forwards, which build those forms themselves on one raw
``(n, n)`` adjacency.  On randomized Erdős–Rényi adjacencies, hand-built
corner cases (isolated nodes, self loops, empty graphs) and real ego-subgraph
samples, the op sequences are the seed's, so forwards and gradients are
compared bit for bit.  On a ``(B, n, n)`` group every block's forward keeps
its sample's bits; gradients summed over a group's blocks agree to 1e-9.
The group's batched matmuls and reductions are pinned block by block, the
time slices and the adjacency forms to the seed's builders on hand-built
graphs and real samples, and the contrastive views to the views the seed
drew on its dense adjacency.  Seeded training steps of the GSG and LDG
branches match the seed's dense forward per sample, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.augmentation import AugmentationConfig, adaptive_augmentation
from repro.core.gsg import GSGBranch, GSGConfig, _GSGNetwork
from repro.core.inference import node_count_groups
from repro.core.ldg import LDGConfig, _LDGNetwork
from repro.core.training import feature_stats
from repro.data import adjacency_blocks, time_slice_blocks
from repro.gnn import (
    APPNPPropagation,
    GATLayer,
    GCNLayer,
    GINLayer,
    GraphSAGELayer,
    HierarchicalAttentionEncoder,
    attention_mask,
    normalize_adjacency,
)
from repro.gnn.pooling import DiffPool
from repro.nn import Adam, Tensor
from repro.nn.functional import softmax, softmax_array
from repro.nn.losses import binary_cross_entropy_with_logits
from tests import _dense_reference as dense_ref
from tests._dict_reference import build_graph, graph_with_nodes

ATOL = 1e-9


def identity(adjacency):
    return adjacency


# (layer class, seed forward, the form the layer takes).
LAYER_REFS = [
    (GCNLayer, dense_ref.gcn_forward, normalize_adjacency),
    (GATLayer, dense_ref.gat_forward, attention_mask),
    (GINLayer, dense_ref.gin_forward, identity),
    (GraphSAGELayer, dense_ref.sage_forward, identity),
]
LAYER_IDS = [cls.__name__ for cls, _, _ in LAYER_REFS]


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


class TestNormalizeAdjacencyParity:
    def test_randomized_parity(self, rng):
        for adj in random_cases(rng):
            np.testing.assert_array_equal(normalize_adjacency(adj),
                                          dense_ref.normalize_adjacency_dense(adj))

    def test_group_blocks_match_each_matrix(self, rng):
        group = np.stack([erdos_renyi(7, 0.4, rng) for _ in range(5)])
        got = normalize_adjacency(group)
        for block, adj in zip(got, group):
            np.testing.assert_array_equal(block, dense_ref.normalize_adjacency_dense(adj))

    def test_zero_degree_rows_guarded(self):
        """A row whose ``A + I`` sums to zero gets zeros, not a division by zero."""
        adj = np.zeros((3, 3))
        adj[2, 2] = -1.0
        with np.errstate(divide="raise", invalid="raise"):
            out = normalize_adjacency(adj)
        np.testing.assert_array_equal(out[2], np.zeros(3))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            normalize_adjacency(np.zeros((2, 3)))


class TestLayerParity:
    @pytest.mark.parametrize("layer_cls,ref,form", LAYER_REFS, ids=LAYER_IDS)
    def test_randomized_forward_and_grad_parity(self, layer_cls, ref, form, rng):
        for case, adj in enumerate(random_cases(rng)):
            layer = layer_cls(6, 5, rng=np.random.default_rng(case))
            x = rng.normal(size=(adj.shape[0], 6))
            xs, xd = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
            out = layer(xs, form(adj))
            out_seed = ref(layer, xd, adj)
            np.testing.assert_array_equal(out.data, out_seed.data)
            layer.zero_grad()
            out.sum().backward()
            grads = [p.grad.copy() for p in layer.parameters()]
            layer.zero_grad()
            out_seed.sum().backward()
            for got, want in zip(grads, (p.grad for p in layer.parameters())):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(xs.grad, xd.grad)

    @pytest.mark.parametrize("layer_cls,ref,form", LAYER_REFS, ids=LAYER_IDS)
    def test_ego_subgraph_parity(self, layer_cls, ref, form, ego_adjacencies, rng):
        for adj in ego_adjacencies:
            layer = layer_cls(6, 5, rng=np.random.default_rng(1))
            x = Tensor(rng.normal(size=(adj.shape[0], 6)))
            np.testing.assert_array_equal(layer(x, form(adj)).data, ref(layer, x, adj).data)

    @pytest.mark.parametrize("layer_cls,ref,form", LAYER_REFS, ids=LAYER_IDS)
    def test_group_blocks_keep_each_samples_bits(self, layer_cls, ref, form, rng):
        group = np.stack([erdos_renyi(9, 0.3, rng, weighted=False) for _ in range(4)])
        layer = layer_cls(6, 5, rng=np.random.default_rng(3))
        x = rng.normal(size=(4, 9, 6))
        xg = Tensor(x, requires_grad=True)
        out = layer(xg, form(group))
        singles = [Tensor(block, requires_grad=True) for block in x]
        seeded = [ref(layer, single, adj) for single, adj in zip(singles, group)]
        for block, want in zip(out.data, seeded):
            np.testing.assert_array_equal(block, want.data)
        layer.zero_grad()
        out.sum().backward()
        grads = [p.grad.copy() for p in layer.parameters()]
        layer.zero_grad()
        sum(want.sum() for want in seeded).backward()
        for got, want in zip(grads, (p.grad for p in layer.parameters())):
            np.testing.assert_allclose(got, want, atol=ATOL, rtol=0)
        np.testing.assert_allclose(xg.grad, np.stack([s.grad for s in singles]),
                                   atol=ATOL, rtol=0)

    def test_multi_head_gat_parity(self, rng):
        adj = erdos_renyi(12, 0.3, rng)
        layer = GATLayer(6, 5, num_heads=3, rng=np.random.default_rng(2))
        x = Tensor(rng.normal(size=(12, 6)))
        np.testing.assert_array_equal(layer(x, attention_mask(adj)).data,
                                      dense_ref.gat_forward(layer, x, adj).data)

    def test_appnp_parity(self, rng):
        for adj in random_cases(rng):
            module = APPNPPropagation(k=6, alpha=0.15)
            h0 = Tensor(rng.normal(size=(adj.shape[0], 4)))
            np.testing.assert_array_equal(module(h0, normalize_adjacency(adj)).data,
                                          dense_ref.appnp_forward(module, h0, adj).data)

    def test_diffpool_parity(self, rng):
        adj = erdos_renyi(14, 0.3, rng)
        pool = DiffPool(5, 3, rng=np.random.default_rng(4))
        x = Tensor(rng.normal(size=(14, 5)))
        for got, want in zip(pool(x, adj), dense_ref.diffpool_forward(pool, x, adj)):
            np.testing.assert_array_equal(getattr(got, "data", got), getattr(want, "data", want))

    def test_hierarchical_encoder_parity(self, rng):
        adj = erdos_renyi(16, 0.25, rng)
        encoder = HierarchicalAttentionEncoder(6, 8, num_layers=2,
                                               rng=np.random.default_rng(5))
        x = Tensor(rng.normal(size=(16, 6)))
        np.testing.assert_array_equal(encoder(x, attention_mask(adj)).data,
                                      dense_ref.hierarchical_encode(encoder, x, adj).data)



def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestGroupOps:
    """The bit contract of a group rests on two numpy facts: a matmul over
    leading axes issues each block's 2-D product, and a reduction over the
    last axes runs within each block."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 24), st.integers(1, 5),
           st.integers(0, 2 ** 32 - 1))
    def test_group_matmul_equals_per_block(self, blocks, n, dim, seed):
        """``form @ x`` over a ``(B, n, n)`` group keeps every block's bits,
        and so does the gradient it sends to ``x``."""
        rng = np.random.default_rng(seed)
        forms = rng.standard_normal((blocks, n, n))
        x = rng.standard_normal((blocks, n, dim))
        upstream = rng.standard_normal((blocks, n, dim))
        xg = Tensor(x, requires_grad=True)
        out = Tensor(forms) @ xg
        (out * Tensor(upstream)).sum().backward()
        for b in range(blocks):
            xs = Tensor(x[b], requires_grad=True)
            single = Tensor(forms[b]) @ xs
            (single * Tensor(upstream[b])).sum().backward()
            assert same_bits(out.data[b], single.data)
            assert same_bits(xg.grad[b], xs.grad)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 6), st.integers(1, 40),
           st.integers(0, 2 ** 32 - 1))
    def test_blockwise_reductions_keep_each_blocks_bits(self, heads, blocks, n, seed):
        """Softmax, sums and node means over an ``(H, B, n, n)`` stack give each
        block the bits of the block alone."""
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal((heads, blocks, n, n)) * 10.0
        soft = softmax_array(scores, axis=-1)
        grouped = softmax(Tensor(scores[0]), axis=-1).data
        row_sums, node_means = scores.sum(axis=-1), Tensor(scores[0]).mean(axis=-2).data
        for h in range(heads):
            for b in range(blocks):
                block = scores[h, b]
                assert same_bits(soft[h, b], softmax_array(block, axis=-1))
                assert same_bits(row_sums[h, b], block.sum(axis=-1))
        for b in range(blocks):
            assert same_bits(grouped[b], softmax(Tensor(scores[0, b]), axis=-1).data)
            assert same_bits(node_means[b], Tensor(scores[0, b]).mean(axis=-2).data)


class TestAdjacencyForms:
    """The symmetric adjacency and the GAT mask on hand-built graphs."""

    def test_repeated_transfers_merge_into_one_edge(self):
        """Two transfers a -> b are one merged edge: 1 in the adjacency, their
        summed amount in the weighted one, a single count in the slices."""
        graph = build_graph([("a", "b", 2.0, 1, 1.0), ("a", "b", 3.0, 1, 3.0)])
        np.testing.assert_array_equal(adjacency_blocks([graph])[0], [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(adjacency_blocks([graph], weighted=True)[0],
                                      [[0.0, 5.0], [5.0, 0.0]])
        np.testing.assert_array_equal(time_slice_blocks([graph], 2)[:, 0].sum(axis=0),
                                      [[0.0, 1.0], [1.0, 0.0]])

    def test_reciprocal_pair_keeps_the_larger_amount(self):
        """``max(A, A.T)``: a reciprocal pair is one undirected edge with the
        larger amount, while the slices count both of its edges."""
        graph = build_graph([("a", "b", 2.0, 1, 1.0), ("b", "a", 7.0, 1, 2.0),
                             ("b", "c", 4.0, 1, 3.0)])
        weighted = adjacency_blocks([graph], weighted=True)[0]
        np.testing.assert_array_equal(weighted, [[0.0, 7.0, 0.0], [7.0, 0.0, 4.0],
                                                 [0.0, 4.0, 0.0]])
        np.testing.assert_array_equal(weighted, dense_ref.dense_adjacency(graph, weighted=True))
        np.testing.assert_array_equal(time_slice_blocks([graph], 1)[0, 0],
                                      [[0.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

    def test_mask_reads_only_the_support(self, rng):
        """Amounts do not reach the GAT mask: every node attends along its
        edges and to itself, with or without a self loop."""
        weighted = erdos_renyi(9, 0.4, rng)
        mask = attention_mask(weighted)
        np.testing.assert_array_equal(mask, attention_mask((weighted > 0).astype(float)))
        np.testing.assert_array_equal(mask == 0, (weighted > 0) | np.eye(9, dtype=bool))
        np.testing.assert_array_equal(mask, dense_ref.attention_mask_dense(weighted))


class TestTimeSliceParity:
    """``time_slice_blocks`` against the seed's per-graph slicer (Eq. 1)."""

    @pytest.mark.parametrize("num_slices", [1, 2, 5, 8])
    def test_slicer_matches_dense(self, small_dataset, toy_graph, num_slices):
        """The toy graph and the three densest samples alone, then the largest
        set of equal-size samples as one group."""
        densest = sorted(small_dataset.samples, key=lambda s: -s.num_edges)[:3]
        for graph in [toy_graph] + [sample.graph for sample in densest]:
            blocks = time_slice_blocks([graph], num_slices)[:, 0]
            for got, want in zip(blocks, dense_ref.time_slice_adjacency_dense(graph, num_slices)):
                assert same_bits(got, want)
        sizes = [sample.num_nodes for sample in small_dataset.samples]
        graphs = [small_dataset.samples[i].graph
                  for i in max(node_count_groups(sizes), key=len)[:8]]
        blocks = time_slice_blocks(graphs, num_slices)
        for b, graph in enumerate(graphs):
            for t, want in enumerate(dense_ref.time_slice_adjacency_dense(graph, num_slices)):
                assert same_bits(blocks[t, b], want)

    def test_all_edges_in_one_slice(self):
        """One shared timestamp puts every edge in slot 0; later slices are empty."""
        graph = build_graph([("a", "b", 1.0, 1, 50.0), ("b", "c", 2.0, 1, 50.0)])
        slices = time_slice_blocks([graph], 4)[:, 0]
        assert np.count_nonzero(slices[0]) == 4   # two edges, both directions
        assert not slices[1:].any()
        for got, want in zip(slices, dense_ref.time_slice_adjacency_dense(graph, 4)):
            assert same_bits(got, want)

    def test_empty_graph_slices(self):
        slices = time_slice_blocks([graph_with_nodes(["solo"])], 3)
        assert slices.shape == (3, 1, 1, 1)
        assert not slices.any()

    def test_self_loop_counts_twice(self):
        """The seed slicer adds a self loop to ``[i, i]`` twice; so do the blocks."""
        graph = build_graph([("a", "a", 3.0, 1, 1.0), ("a", "b", 1.0, 1, 2.0)])
        slices = time_slice_blocks([graph], 2)[:, 0]
        assert slices[0, 0, 0] == 2.0
        for got, want in zip(slices, dense_ref.time_slice_adjacency_dense(graph, 2)):
            assert same_bits(got, want)

    def test_each_graph_keeps_its_own_time_span(self):
        """A group's graphs are sliced over their own evolution-time spans, not
        the group's: the same edges shifted in time land in the same slots,
        and a graph whose edges share a timestamp puts them all in slot 0."""
        rows = [("a", "b", 1.0, 1, 0.0), ("b", "c", 1.0, 1, 4.0), ("c", "a", 1.0, 1, 10.0)]
        graphs = [build_graph(rows),
                  build_graph([row[:4] + (row[4] + 1000.0,) for row in rows]),
                  build_graph([row[:4] + (5.0,) for row in rows])]
        blocks = time_slice_blocks(graphs, 3)
        assert same_bits(blocks[:, 0], blocks[:, 1])
        assert blocks[0, 2].sum() == 6.0 and not blocks[1:, 2].any()
        for b, graph in enumerate(graphs):
            for t, want in enumerate(dense_ref.time_slice_adjacency_dense(graph, 3)):
                assert same_bits(blocks[t, b], want)


class TestAugmentationParity:
    @pytest.mark.parametrize("measure", ["degree", "eigenvector", "pagerank"])
    def test_sample_view_matches_seed_view(self, small_dataset, measure):
        """The view GSG's contrastive step draws on a sample's form
        (``GSGBranch._view``) is the view drawn on the seed's dense adjacency
        with the same generator, bit for bit."""
        samples = sorted(small_dataset.samples, key=lambda s: -s.num_edges)[:3]
        branch = GSGBranch(GSGConfig())
        branch._feature_stats = feature_stats(samples)
        config = AugmentationConfig(0.4, 0.2, centrality_measure=measure)
        for sample in samples:
            features, _edge_features, adjacency = branch._view(sample)
            got = adaptive_augmentation(adjacency, features, config, np.random.default_rng(3))
            want = adaptive_augmentation(dense_ref.dense_adjacency(sample.graph), features,
                                         config, np.random.default_rng(3))
            for g, w in zip(got, want):
                assert same_bits(g, w)


def _train_one_epoch(network, forward, inputs, labels):
    """Seeded per-sample steps over ``inputs``: the losses, then every logit."""
    optimizer = Adam(network.parameters(), lr=0.01)
    losses = []
    for idx in np.random.default_rng(0).permutation(len(inputs)):
        optimizer.zero_grad()
        loss = binary_cross_entropy_with_logits(forward(*inputs[idx]).reshape(1),
                                                [float(labels[idx])])
        losses.append(loss.item())
        loss.backward()
        optimizer.step()
    return np.array(losses), np.array([forward(*args).data.item() for args in inputs])


def _scaled(samples):
    stacked = np.vstack([s.node_features for s in samples])
    std = stacked.std(axis=0)
    std[std < 1e-12] = 1.0
    return [(s.node_features - stacked.mean(axis=0)) / std for s in samples]


class TestEndToEndRegression:
    """A seeded epoch of one-sample steps: the branch networks on their
    one-sample dense forms against the seed's dense forward, bit for bit."""

    def test_gsg_training_step_matches_seed(self, exchange_task):
        samples, labels = exchange_task[0][:6], exchange_task[1][:6]
        cfg = GSGConfig(epochs=1, use_contrastive=False, seed=0)
        features = _scaled(samples)
        edges = [np.log1p(np.abs(s.node_edge_features())) for s in samples]
        production = [(f[None], e[None], attention_mask(adjacency_blocks([s.graph])))
                      for f, e, s in zip(features, edges, samples)]
        seed = [(f, e, dense_ref.dense_adjacency(s.graph))
                for f, e, s in zip(features, edges, samples)]
        in_dim = samples[0].node_features.shape[1]
        got = _train_one_epoch(net := _GSGNetwork(in_dim, 2, cfg, np.random.default_rng(0)),
                               net, production, labels)
        ref_net = _GSGNetwork(in_dim, 2, cfg, np.random.default_rng(0))
        want = _train_one_epoch(ref_net, lambda *args: dense_ref.gsg_forward(ref_net, *args),
                                seed, labels)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_ldg_training_step_matches_seed(self, exchange_task):
        samples, labels = exchange_task[0][:6], exchange_task[1][:6]
        cfg = LDGConfig(epochs=1, num_slices=4, seed=0)
        features = _scaled(samples)
        production = []
        for f, s in zip(features, samples):
            slices = time_slice_blocks([s.graph], cfg.num_slices)
            production.append((f[None], slices, normalize_adjacency(slices)))
        seed = [(f, dense_ref.time_slice_adjacency_dense(s.graph, cfg.num_slices))
                for f, s in zip(features, samples)]
        in_dim = samples[0].node_features.shape[1]
        got = _train_one_epoch(net := _LDGNetwork(in_dim, cfg, np.random.default_rng(0)),
                               net, production, labels)
        ref_net = _LDGNetwork(in_dim, cfg, np.random.default_rng(0))
        want = _train_one_epoch(ref_net, lambda *args: dense_ref.ldg_forward(ref_net, *args),
                                seed, labels)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
