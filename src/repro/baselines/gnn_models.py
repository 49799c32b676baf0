"""GNN graph-classification baselines: GCN, GAT, GIN, GraphSAGE, APPNP and the
Ethereum-specific GNN methods (I2BGNN, TSGN, Ethident, TEGDetector).

Each network builds its sample's dense ``(n, n)`` forms from the sample's
edge columns when it forwards the sample (:mod:`repro.data.slicing`)."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineClassifier
from repro.data.dataset import AccountSubgraph
from repro.data.slicing import adjacency_blocks, time_slice_blocks
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
from repro.gnn.pooling import global_max_pool, global_mean_pool
from repro.gnn.recurrent import GRUCell
from repro.nn import Adam, Linear, Module, Parameter, Tensor
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.functional import relu, softmax

__all__ = [
    "GCNClassifier",
    "GATClassifier",
    "GINClassifier",
    "GraphSAGEClassifier",
    "APPNPClassifier",
    "I2BGNNClassifier",
    "TSGNClassifier",
    "EthidentClassifier",
    "TEGDetectorClassifier",
]


class _TrainedGNNBaseline(BaselineClassifier):
    """Shared training loop: per-sample forward, BCE loss, Adam updates.

    Subclasses implement :meth:`_build_network` returning a module whose
    ``forward(features, sample)`` yields a scalar logit tensor.
    """

    def __init__(self, hidden_dim: int = 32, num_layers: int = 2, epochs: int = 15,
                 learning_rate: float = 0.01, use_node_features: bool = True, seed: int = 0):
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.use_node_features = use_node_features
        self.seed = seed
        self._network: Module | None = None
        self._feature_stats: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ inputs
    def _features(self, sample: AccountSubgraph) -> np.ndarray:
        if self.use_node_features:
            mean, std = self._feature_stats
            return (sample.node_features - mean) / std
        # Structure-only variant ("w/o node feature" rows): degree + constant.
        degrees = adjacency_blocks([sample.graph])[0].sum(axis=1).reshape(-1, 1)
        return np.hstack([np.ones_like(degrees), degrees / max(degrees.max(), 1.0)])

    def _input_dim(self, sample: AccountSubgraph) -> int:
        return sample.node_features.shape[1] if self.use_node_features else 2

    # ---------------------------------------------------------------- training
    def _build_network(self, in_dim: int, rng: np.random.Generator) -> Module:
        raise NotImplementedError

    def fit(self, samples: list[AccountSubgraph], labels) -> "_TrainedGNNBaseline":
        labels = np.asarray(labels, dtype=float)
        if len(samples) != len(labels):
            raise ValueError("samples and labels must have the same length")
        rng = np.random.default_rng(self.seed)
        if self.use_node_features:
            self._feature_stats = self._standardize([s.node_features for s in samples])
        self._network = self._build_network(self._input_dim(samples[0]), rng)
        optimizer = Adam(self._network.parameters(), lr=self.learning_rate)
        indices = np.arange(len(samples))
        for _epoch in range(self.epochs):
            rng.shuffle(indices)
            for idx in indices:
                sample = samples[idx]
                optimizer.zero_grad()
                logit = self._network(self._features(sample), sample)
                loss = binary_cross_entropy_with_logits(logit.reshape(1), [labels[idx]])
                loss.backward()
                optimizer.step()
        return self

    def predict_proba(self, samples: list[AccountSubgraph]) -> np.ndarray:
        if self._network is None:
            raise RuntimeError(f"{self.name} has not been fitted")
        logits = np.array([float(self._network(self._features(s), s).data.item()) for s in samples])
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))


class _StackedGNN(Module):
    """Generic layer stack + pooling + linear head used by most GNN baselines.

    ``form`` maps the sample's symmetric adjacency to what the layers
    aggregate with: :func:`~repro.gnn.layers.normalize_adjacency` for GCN,
    :func:`~repro.gnn.layers.attention_mask` for GAT, the adjacency itself
    for GIN and GraphSAGE.  ``weighted_adjacency`` reads the edge amounts,
    damped with ``log1p`` as the seed's TSGN did.
    """

    def __init__(self, layers: list[Module], hidden_dim: int, pooling: str,
                 rng: np.random.Generator, form=None, weighted_adjacency: bool = False):
        super().__init__()
        self.layers = layers
        self.pooling = pooling
        self.form = form
        self.weighted_adjacency = weighted_adjacency
        self.head = Linear(hidden_dim, 1, rng=rng)

    def forward(self, features: np.ndarray, sample: AccountSubgraph) -> Tensor:
        adjacency = adjacency_blocks([sample.graph], weighted=self.weighted_adjacency)[0]
        if self.weighted_adjacency:
            adjacency = np.log1p(adjacency)
        if self.form is not None:
            adjacency = self.form(adjacency)
        h = Tensor(features)
        for layer in self.layers:
            h = layer(h, adjacency)
        pooled = global_max_pool(h) if self.pooling == "max" else global_mean_pool(h)
        return self.head(pooled)


class GCNClassifier(_TrainedGNNBaseline):
    """Two-layer GCN with mean pooling."""

    name = "GCN"

    def _build_network(self, in_dim: int, rng: np.random.Generator) -> Module:
        dims = [in_dim] + [self.hidden_dim] * self.num_layers
        layers = [GCNLayer(dims[i], dims[i + 1], rng=rng) for i in range(self.num_layers)]
        return _StackedGNN(layers, self.hidden_dim, "mean", rng, form=normalize_adjacency)


class GATClassifier(_TrainedGNNBaseline):
    """Two-layer GAT (multi-head) with mean pooling."""

    name = "GAT"

    def __init__(self, num_heads: int = 2, **kwargs):
        super().__init__(**kwargs)
        self.num_heads = num_heads

    def _build_network(self, in_dim: int, rng: np.random.Generator) -> Module:
        dims = [in_dim] + [self.hidden_dim] * self.num_layers
        layers = [GATLayer(dims[i], dims[i + 1], num_heads=self.num_heads, rng=rng)
                  for i in range(self.num_layers)]
        return _StackedGNN(layers, self.hidden_dim, "mean", rng, form=attention_mask)


class GINClassifier(_TrainedGNNBaseline):
    """Two-layer GIN with mean pooling."""

    name = "GIN"

    def _build_network(self, in_dim: int, rng: np.random.Generator) -> Module:
        dims = [in_dim] + [self.hidden_dim] * self.num_layers
        layers = [GINLayer(dims[i], dims[i + 1], rng=rng) for i in range(self.num_layers)]
        return _StackedGNN(layers, self.hidden_dim, "mean", rng)


class GraphSAGEClassifier(_TrainedGNNBaseline):
    """Two-layer GraphSAGE (mean aggregator) with mean pooling."""

    name = "GraphSAGE"

    def _build_network(self, in_dim: int, rng: np.random.Generator) -> Module:
        dims = [in_dim] + [self.hidden_dim] * self.num_layers
        layers = [GraphSAGELayer(dims[i], dims[i + 1], rng=rng) for i in range(self.num_layers)]
        return _StackedGNN(layers, self.hidden_dim, "mean", rng)


class _APPNPNetwork(Module):
    """MLP prediction followed by personalised-PageRank propagation."""

    def __init__(self, in_dim: int, hidden_dim: int, k: int, alpha: float,
                 rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(in_dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, hidden_dim, rng=rng)
        self.propagation = APPNPPropagation(k=k, alpha=alpha)
        self.head = Linear(hidden_dim, 1, rng=rng)

    def forward(self, features: np.ndarray, sample: AccountSubgraph) -> Tensor:
        h0 = relu(self.fc2(relu(self.fc1(Tensor(features)))))
        propagated = self.propagation(
            h0, normalize_adjacency(adjacency_blocks([sample.graph])[0]))
        return self.head(global_mean_pool(propagated))


class APPNPClassifier(_TrainedGNNBaseline):
    """APPNP: MLP + personalised-PageRank propagation."""

    name = "APPNP"

    def __init__(self, k: int = 5, alpha: float = 0.1, **kwargs):
        super().__init__(**kwargs)
        self.k = k
        self.alpha = alpha

    def _build_network(self, in_dim: int, rng: np.random.Generator) -> Module:
        return _APPNPNetwork(in_dim, self.hidden_dim, self.k, self.alpha, rng)


class I2BGNNClassifier(_TrainedGNNBaseline):
    """I2BGNN: GIN-style subgraph encoder with max pooling (Shen et al. 2021)."""

    name = "I2BGNN"

    def _build_network(self, in_dim: int, rng: np.random.Generator) -> Module:
        dims = [in_dim] + [self.hidden_dim] * self.num_layers
        layers = [GINLayer(dims[i], dims[i + 1], rng=rng) for i in range(self.num_layers)]
        return _StackedGNN(layers, self.hidden_dim, "max", rng)


class TSGNClassifier(_TrainedGNNBaseline):
    """TSGN: transaction-subgraph network operating on amount-weighted adjacency."""

    name = "TSGN"

    def _build_network(self, in_dim: int, rng: np.random.Generator) -> Module:
        dims = [in_dim] + [self.hidden_dim] * self.num_layers
        layers = [GCNLayer(dims[i], dims[i + 1], rng=rng) for i in range(self.num_layers)]
        return _StackedGNN(layers, self.hidden_dim, "mean", rng, form=normalize_adjacency,
                           weighted_adjacency=True)


class _EthidentNetwork(Module):
    """Hierarchical graph attention encoder + head (Ethident without augmentation)."""

    def __init__(self, in_dim: int, hidden_dim: int, num_layers: int,
                 rng: np.random.Generator):
        super().__init__()
        self.align = Linear(in_dim, hidden_dim, rng=rng)
        self.encoder = HierarchicalAttentionEncoder(hidden_dim, hidden_dim,
                                                    num_layers=num_layers, rng=rng)
        self.head = Linear(hidden_dim, 1, rng=rng)

    def forward(self, features: np.ndarray, sample: AccountSubgraph) -> Tensor:
        aligned = relu(self.align(Tensor(features)))
        return self.head(self.encoder(
            aligned, attention_mask(adjacency_blocks([sample.graph])[0])))


class EthidentClassifier(_TrainedGNNBaseline):
    """Ethident: hierarchical graph attention for account de-anonymization."""

    name = "Ethident"

    def _build_network(self, in_dim: int, rng: np.random.Generator) -> Module:
        return _EthidentNetwork(in_dim, self.hidden_dim, self.num_layers, rng)


class _TEGDetectorNetwork(Module):
    """Time-sliced GCN + GRU with learned time coefficients (TEGDetector-style)."""

    def __init__(self, in_dim: int, hidden_dim: int, num_slices: int,
                 rng: np.random.Generator):
        super().__init__()
        self.num_slices = num_slices
        self.input_proj = Linear(in_dim, hidden_dim, rng=rng)
        self.gcn = GCNLayer(hidden_dim, hidden_dim, rng=rng)
        self.gru = GRUCell(hidden_dim, hidden_dim, rng=rng)
        self.time_logits = Parameter(np.zeros(num_slices))
        self.head = Linear(hidden_dim, 1, rng=rng)

    def forward(self, features: np.ndarray, sample: AccountSubgraph) -> Tensor:
        slices = normalize_adjacency(time_slice_blocks([sample.graph], self.num_slices)[:, 0])
        hidden = relu(self.input_proj(Tensor(features)))
        weights = softmax(self.time_logits.reshape(1, -1), axis=1)
        pooled_sum = None
        for t, normalized in enumerate(slices):
            topo = self.gcn(hidden, normalized)
            hidden = self.gru(topo, hidden)
            pooled = global_mean_pool(hidden) * weights[0, t].reshape(1, 1)
            pooled_sum = pooled if pooled_sum is None else pooled_sum + pooled
        return self.head(pooled_sum)


class TEGDetectorClassifier(_TrainedGNNBaseline):
    """TEGDetector: learns transaction behaviours across time slices."""

    name = "TEGDetector"

    def __init__(self, num_slices: int = 5, **kwargs):
        super().__init__(**kwargs)
        self.num_slices = num_slices

    def _build_network(self, in_dim: int, rng: np.random.Generator) -> Module:
        return _TEGDetectorNetwork(in_dim, self.hidden_dim, self.num_slices, rng)
