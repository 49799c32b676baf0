"""Transformer-style baselines: GRIT (graph transformer) and BERT4ETH-lite."""

from __future__ import annotations

import numpy as np

from repro.baselines.gnn_models import _TrainedGNNBaseline
from repro.data.dataset import AccountSubgraph
from repro.data.slicing import adjacency_blocks
from repro.gnn.pooling import global_mean_pool
from repro.nn import Linear, Module, Tensor
from repro.nn.functional import relu, softmax

__all__ = ["GRITClassifier", "BERT4ETHClassifier"]


class _SelfAttention(Module):
    """Single-head scaled dot-product self-attention with an optional score bias."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.out = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor, bias: np.ndarray | None = None) -> Tensor:
        scale = 1.0 / np.sqrt(self.dim)
        scores = (self.query(x) @ self.key(x).T) * scale
        if bias is not None:
            scores = scores + Tensor(bias)
        attention = softmax(scores, axis=1)
        return self.out(attention @ self.value(x))


class _GRITNetwork(Module):
    """Graph transformer: self-attention over nodes with an adjacency score bias.

    GRIT injects graph inductive biases into a transformer without message
    passing; here the bias is a (log-)adjacency term added to the attention
    scores plus degree features appended to the node inputs.
    """

    def __init__(self, in_dim: int, hidden_dim: int, num_layers: int,
                 rng: np.random.Generator):
        super().__init__()
        self.input_proj = Linear(in_dim + 2, hidden_dim, rng=rng)
        self.attention_layers = [_SelfAttention(hidden_dim, rng) for _ in range(num_layers)]
        self.ffn_layers = [Linear(hidden_dim, hidden_dim, rng=rng) for _ in range(num_layers)]
        self.head = Linear(hidden_dim, 1, rng=rng)

    def forward(self, features: np.ndarray, sample: AccountSubgraph) -> Tensor:
        adjacency = adjacency_blocks([sample.graph])[0]
        degrees = adjacency.sum(axis=1, keepdims=True)
        scaled_degrees = degrees / max(degrees.max(), 1.0)
        inputs = np.hstack([features, scaled_degrees, (degrees > 0).astype(float)])
        bias = np.log1p(adjacency)
        h = relu(self.input_proj(Tensor(inputs)))
        for attention, ffn in zip(self.attention_layers, self.ffn_layers):
            h = h + attention(h, bias)
            h = h + relu(ffn(h))
        return self.head(global_mean_pool(h))


class GRITClassifier(_TrainedGNNBaseline):
    """GRIT: graph inductive biases in a transformer without message passing."""

    name = "GRIT"

    def _build_network(self, in_dim: int, rng: np.random.Generator) -> Module:
        return _GRITNetwork(in_dim, self.hidden_dim, self.num_layers, rng)


class _BERT4ETHNetwork(Module):
    """Transformer encoder over the centre account's transaction sequence."""

    def __init__(self, token_dim: int, hidden_dim: int, num_layers: int,
                 rng: np.random.Generator):
        super().__init__()
        self.input_proj = Linear(token_dim, hidden_dim, rng=rng)
        self.attention_layers = [_SelfAttention(hidden_dim, rng) for _ in range(num_layers)]
        self.ffn_layers = [Linear(hidden_dim, hidden_dim, rng=rng) for _ in range(num_layers)]
        self.head = Linear(hidden_dim, 1, rng=rng)

    def forward(self, tokens: np.ndarray, sample: AccountSubgraph | None = None) -> Tensor:
        del sample  # the sequence model only consumes the tokenised transactions
        h = relu(self.input_proj(Tensor(tokens)))
        for attention, ffn in zip(self.attention_layers, self.ffn_layers):
            h = h + attention(h)
            h = h + relu(ffn(h))
        return self.head(global_mean_pool(h))


class BERT4ETHClassifier(_TrainedGNNBaseline):
    """BERT4ETH-lite: a transaction-sequence transformer for the centre account.

    The published BERT4ETH pre-trains a large Transformer on millions of
    transaction sequences; this laptop-scale equivalent trains the same
    architecture (token projection + self-attention blocks + pooled head) from
    scratch on the edge sequence incident to the centre account, tokenised as
    ``[amount, count, direction, normalised time]``.
    """

    name = "BERT4ETH"

    def __init__(self, max_sequence_length: int = 32, **kwargs):
        super().__init__(**kwargs)
        self.max_sequence_length = max_sequence_length

    def _tokenize(self, sample: AccountSubgraph) -> np.ndarray:
        graph = sample.graph
        center = graph.node_index(sample.center)
        src, dst, amount, count, stamps = graph.edge_arrays()
        slots = np.flatnonzero((src == center) | (dst == center))
        slots = slots[np.argsort(stamps[slots], kind="stable")]
        slots = slots[-self.max_sequence_length:]
        if not len(slots):
            return np.zeros((1, 4))
        timestamps = stamps[slots]
        span = (timestamps.max() - timestamps.min()) or 1.0
        return np.column_stack([
            np.log1p(amount[slots]),
            np.log1p(count[slots]),
            np.where(src[slots] == center, 1.0, -1.0),
            (timestamps - timestamps.min()) / span,
        ])

    def _build_network(self, in_dim: int, rng: np.random.Generator) -> Module:
        del in_dim  # tokens have a fixed width of 4
        return _BERT4ETHNetwork(4, self.hidden_dim, self.num_layers, rng)

    def _features(self, sample: AccountSubgraph) -> np.ndarray:
        return self._tokenize(sample)

    def fit(self, samples: list[AccountSubgraph], labels) -> "BERT4ETHClassifier":
        # Token statistics do not need standardisation; reuse the parent loop
        # with ``use_node_features`` disabled so it skips feature-stat fitting.
        self.use_node_features = False
        return super().fit(samples, labels)
