"""Per-sample reference training of the GSG and LDG branches for parity testing.

The branches once trained with a per-sample loop at ``batch_size=1`` (one
subgraph forward per optimizer step) and kept, for ``batch_size > 1``, a
looped twin of the minibatch schedule that forwarded each sample on its
own.  Both forwarded one sample through per-sample network code on the
seed's 2-D shapes: the graph-attention read-out on an ``(n + 1, d)``
candidate matrix and the LDG slice representations through
:meth:`DiffPool.forward <repro.gnn.pooling.DiffPool.forward>` and a mean over
the sample's rows.  That code is kept here, reading the networks' parameters
and their layers (GAT stack, GCN, GRU, DiffPool) on one ``(n, ·)`` sample,
with the sample's forms built by the seed builders of
``tests/_dense_reference.py``.

``tests/test_batched_training.py`` requires ``fit`` at ``batch_size=1`` to
equal :func:`reference_fit` bit for bit, and at larger batch sizes to stay
within ``1e-9`` of its looped schedule.
"""

from __future__ import annotations

import numpy as np

from repro.core.augmentation import adaptive_augmentation
from repro.core.gsg import GSGBranch, _GSGNetwork
from repro.core.ldg import _LDGNetwork
from repro.gnn.pooling import global_max_pool
from repro.nn import Adam, Tensor, concat, nt_xent_loss
from repro.nn.functional import elu, leaky_relu, relu, softmax
from repro.nn.losses import binary_cross_entropy_with_logits
from tests._dense_reference import (attention_mask_dense, dense_adjacency,
                                    normalize_adjacency_dense, time_slice_adjacency_dense)

__all__ = ["reference_readout", "reference_gsg_embed", "reference_gsg_forward",
           "reference_ldg_slice_representations", "reference_ldg_forward",
           "reference_inputs", "reference_fit"]


def reference_readout(readout, node_embeddings: Tensor) -> Tensor:
    """``(1, d)`` embedding of one graph (Eq. 10-13), on its own candidates."""
    summary = global_max_pool(node_embeddings)                     # (1, d) — Eq. 10
    candidates = concat([node_embeddings, summary], axis=0)        # nodes ∪ {c}
    n_candidates = candidates.shape[0]
    summary_repeated = Tensor(np.ones((n_candidates, 1))) @ summary
    scores = leaky_relu(readout.score_linear(
        concat([summary_repeated, candidates], axis=1)), 0.2)      # Eq. 11
    weights = softmax(scores, axis=0)                              # Eq. 12
    projected = readout.out_linear(candidates)
    graph_embedding = (weights * projected).sum(axis=0, keepdims=True)
    return elu(graph_embedding)                                    # Eq. 13


def reference_gsg_embed(network, features: np.ndarray, edge_features: np.ndarray,
                        adjacency: np.ndarray) -> Tensor:
    """``(1, hidden)`` embedding of one sample with raw ``(n, n)`` adjacency."""
    aligned = leaky_relu(network.align(Tensor(np.hstack([features, edge_features]))))
    encoder = network.encoder
    return reference_readout(encoder.readout, encoder.node_embeddings(
        aligned, attention_mask_dense(adjacency)))


def reference_gsg_forward(network, features: np.ndarray, edge_features: np.ndarray,
                          adjacency: np.ndarray) -> Tensor:
    return network.head(reference_gsg_embed(network, features, edge_features, adjacency))


def reference_ldg_slice_representations(network, features: np.ndarray,
                                        slices) -> list[Tensor]:
    """One sample's per-slice pooled features ``h^pool_t``, ``(1, hidden)`` each."""
    projected = relu(network.input_proj(Tensor(features)))
    hidden = projected
    pooled_per_slice: list[Tensor] = []
    for adjacency in slices:
        topo = network.gcn(hidden, normalize_adjacency_dense(adjacency))   # Eq. 14
        hidden = network.gru(topo, hidden)               # Eq. 15-18
        pooled, pooled_adj = hidden, adjacency
        for pool in network.pools:
            pooled, pooled_adj, _assign = pool(pooled, pooled_adj)   # Eq. 19-21
        pooled_per_slice.append(pooled.mean(axis=0, keepdims=True))
    return pooled_per_slice


def reference_ldg_forward(network, features: np.ndarray, slices) -> Tensor:
    pooled_per_slice = reference_ldg_slice_representations(network, features, slices)
    weights = softmax(network.slice_logits.reshape(1, -1), axis=1)
    representation = None
    for t, pooled in enumerate(pooled_per_slice):
        weighted = pooled * weights[0, t].reshape(1, 1)
        representation = weighted if representation is None else representation + weighted
    return network.head(relu(representation))            # Eq. 23


def reference_inputs(branch, sample) -> tuple:
    """One sample's 2-D forward inputs: ``(features, edge_features, adjacency)``
    for a GSG branch, ``(features, slices)`` for an LDG branch."""
    mean, std = branch._feature_stats
    features = (sample.node_features - mean) / std
    if isinstance(branch, GSGBranch):
        return (features, np.log1p(np.abs(sample.node_edge_features())),
                dense_adjacency(sample.graph))
    return features, time_slice_adjacency_dense(sample.graph, branch.config.num_slices)


def _contrastive_step(branch, network, samples, rng, optimizer) -> None:
    """One contrastive step, each augmented view embedded on its own."""
    cfg = branch.config
    batch_size = min(cfg.contrastive_batch, len(samples))
    if batch_size < 2:
        return
    batch_idx = rng.choice(len(samples), size=batch_size, replace=False)
    view1, view2 = [], []
    for idx in batch_idx:
        features, edge_features, adjacency = reference_inputs(branch, samples[idx])
        adj1, feat1 = adaptive_augmentation(adjacency, features, cfg.view1, rng)
        adj2, feat2 = adaptive_augmentation(adjacency, features, cfg.view2, rng)
        view1.append((feat1, edge_features, adj1))
        view2.append((feat2, edge_features, adj2))
    optimizer.zero_grad()
    z1 = concat([reference_gsg_embed(network, *view) for view in view1], axis=0)
    z2 = concat([reference_gsg_embed(network, *view) for view in view2], axis=0)
    loss = nt_xent_loss(z1, z2) * cfg.contrastive_weight
    loss.backward()
    optimizer.step()


def reference_fit(branch, samples, labels):
    """Fit ``branch`` (a :class:`GSGBranch` or :class:`LDGBranch`) per sample.

    At ``batch_size=1``: one shuffle of the sample order per epoch, one
    optimizer step per sample.  Above: one seeded shuffle fixes the minibatch
    compositions, each epoch shuffles their visit order, and every step
    concatenates its samples' one-sample logits.
    """
    cfg = branch.config
    gsg = isinstance(branch, GSGBranch)
    rng = np.random.default_rng(cfg.seed)
    stacked = np.vstack([s.node_features for s in samples])
    std = stacked.std(axis=0)
    std[std < 1e-12] = 1.0
    branch._feature_stats = (stacked.mean(axis=0), std)
    in_dim = samples[0].node_features.shape[1]
    network = _GSGNetwork(in_dim, 2, cfg, rng) if gsg else _LDGNetwork(in_dim, cfg, rng)
    branch._network = network
    forward = reference_gsg_forward if gsg else reference_ldg_forward
    optimizer = Adam(network.parameters(), lr=cfg.learning_rate)
    labels = np.asarray(labels, dtype=float)
    indices = np.arange(len(samples))
    if cfg.batch_size > 1:
        rng.shuffle(indices)
        chunks = [indices[start:start + cfg.batch_size]
                  for start in range(0, len(indices), cfg.batch_size)]
        order = np.arange(len(chunks))
    for _epoch in range(cfg.epochs):
        if cfg.batch_size == 1:
            rng.shuffle(indices)
            for idx in indices:
                optimizer.zero_grad()
                logit = forward(network, *reference_inputs(branch, samples[idx]))
                loss = binary_cross_entropy_with_logits(logit.reshape(1), [labels[idx]])
                loss.backward()
                optimizer.step()
        else:
            rng.shuffle(order)
            for j in order:
                optimizer.zero_grad()
                logits = concat([forward(network, *reference_inputs(branch, samples[i]))
                                 .reshape(1) for i in chunks[j]], axis=0)
                loss = binary_cross_entropy_with_logits(logits, labels[chunks[j]])
                loss.backward()
                optimizer.step()
        if gsg and cfg.use_contrastive and cfg.contrastive_weight > 0.0:
            _contrastive_step(branch, network, samples, rng, optimizer)
    return branch
