"""The one training loop of the GSG and LDG branches.

Every optimizer step forwards one minibatch of subgraphs as a single
block-diagonal stack and averages the BCE loss over its samples.  A batch of
one is a one-block stack, the sample's own arrays and adjacency, so
``batch_size=1`` is one subgraph per optimizer step.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn import Adam
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
    ``build_network(in_dim, rng)``.  ``branch._prepare`` gives each sample's
    network inputs and ``branch._stack`` turns a list of them into one
    forward's arguments.  One seeded shuffle, drawn only when ``batch_size >
    1``, fixes the minibatch compositions, and every minibatch's stack is
    built once per fit.  Each epoch shuffles the visit order in place (at
    ``batch_size=1``, one shuffle of the sample order), then calls
    ``after_epoch(prepared, rng, optimizer)``.
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
    prepared = [branch._prepare(sample) for sample in samples]
    labels = np.asarray(labels, dtype=float)
    indices = np.arange(len(samples))
    if config.batch_size > 1:
        rng.shuffle(indices)
    chunks = [indices[start:start + config.batch_size]
              for start in range(0, len(indices), config.batch_size)]
    stacks = [branch._stack([prepared[i] for i in chunk]) for chunk in chunks]
    targets = [labels[chunk] for chunk in chunks]
    order = np.arange(len(chunks))
    for _epoch in range(config.epochs):
        rng.shuffle(order)
        for j in order:
            optimizer.zero_grad()
            logits = network(*stacks[j]).reshape(len(targets[j]))
            loss = binary_cross_entropy_with_logits(logits, targets[j])
            loss.backward()
            optimizer.step()
        if after_epoch is not None:
            after_epoch(prepared, rng, optimizer)
