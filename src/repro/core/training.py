"""The one training loop of the GSG and LDG branches.

Every optimizer step forwards one minibatch of subgraphs and averages the
BCE loss over its samples.  The minibatch is grouped by node count, and each
group runs one forward on its dense ``(B, n, ...)`` forms (see
:mod:`repro.core.inference`); a batch of one is a one-sample group, so
``batch_size=1`` is one subgraph per optimizer step.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.inference import node_count_groups
from repro.nn import Adam, concat
from repro.nn.losses import binary_cross_entropy_with_logits

__all__ = ["feature_stats", "fit_branch"]


def feature_stats(samples) -> tuple[np.ndarray, np.ndarray]:
    """Per-column ``(mean, std)`` of the samples' node features (std 0 -> 1)."""
    stacked = np.vstack([s.node_features for s in samples])
    std = stacked.std(axis=0)
    std[std < 1e-12] = 1.0
    return stacked.mean(axis=0), std


def fit_branch(branch, build_network: Callable, samples, labels,
               after_epoch: Callable | None = None) -> None:
    """Fit a GSG or LDG ``branch`` for ``branch.config.epochs`` epochs.

    The branch gets its feature scaler and a fresh network
    ``build_network(in_dim, rng)``.  ``branch._inputs`` gives the forward
    arguments of samples with one node count.  One seeded shuffle, drawn
    only when ``batch_size > 1``, fixes the minibatch compositions, and every
    minibatch's groups and their forms are built once per fit and dropped
    with it.  Each epoch shuffles the visit order in place (at
    ``batch_size=1``, one shuffle of the sample order), then calls
    ``after_epoch(samples, rng, optimizer)``.
    """
    if len(samples) != len(labels):
        raise ValueError("samples and labels must have the same length")
    config = branch.config
    if config.batch_size < 1:
        raise ValueError(f"{type(config).__name__}.batch_size must be >= 1, "
                         f"got {config.batch_size}")
    rng = np.random.default_rng(config.seed)
    branch._feature_stats = feature_stats(samples)
    network = branch._network = build_network(samples[0].node_features.shape[1], rng)
    optimizer = Adam(network.parameters(), lr=config.learning_rate)
    labels = np.asarray(labels, dtype=float)
    indices = np.arange(len(samples))
    if config.batch_size > 1:
        rng.shuffle(indices)
    batches = []
    for start in range(0, len(indices), config.batch_size):
        chunk = indices[start:start + config.batch_size]
        groups = [chunk[positions] for positions
                  in node_count_groups([samples[i].num_nodes for i in chunk])]
        # The loss pairs each group's logits with its targets, so the
        # targets follow the groups' order.
        batches.append(([branch._inputs([samples[i] for i in group]) for group in groups],
                        labels[np.concatenate(groups)]))
    order = np.arange(len(batches))
    for _epoch in range(config.epochs):
        rng.shuffle(order)
        for j in order:
            inputs, targets = batches[j]
            optimizer.zero_grad()
            logits = [network(*group) for group in inputs]
            logits = logits[0] if len(logits) == 1 else concat(logits, axis=0)
            loss = binary_cross_entropy_with_logits(logits.reshape(len(targets)), targets)
            loss.backward()
            optimizer.step()
        if after_epoch is not None:
            after_epoch(samples, rng, optimizer)
