"""Head-stacked inference: every head's GSG or LDG encoder in one pass per sample.

A facade scores each address with one DBG4ETH head per category, and every
head runs both encoders.  Heads whose branch networks share one architecture
are scored together here: their weights are stacked along a leading head
axis, and one no-grad forward per sample computes all ``H`` raw branch
scores in plain numpy, without the autograd bookkeeping of
:class:`~repro.nn.Tensor`.  A single branch is the ``H = 1`` case
(:meth:`GSGBranch.predict_scores <repro.core.gsg.GSGBranch.predict_scores>`,
:meth:`LDGBranch.predict_scores <repro.core.ldg.LDGBranch.predict_scores>`).

Every score is bit-identical to the head's own per-sample training forward
(``_network.forward``), because each stacked op does, per head, exactly the
float operations of the per-head op:

* ``np.matmul`` over a leading head axis issues the same BLAS call per head
  slice as the 2-D product, since slices keep the per-head shape and strides;
* elementwise ops are position-independent;
* reductions keep a **head-major** layout: each head's operand is one
  contiguous block of the per-head shape, so numpy picks the same pairwise or
  sequential summation for it.  A node-major ``(n, H)`` layout would not: a
  contiguous ``(n, 1)`` column is summed pairwise, a strided column of
  ``(n, H)`` sequentially;
* sparse message passing gathers along the node axis and reduces with
  ``reduceat``, whose per-column result does not depend on the columns beside
  it (``SparseAdjacency.matmul(x, axis=1)``);
* past the first DiffPool layer every head has its own coarse graph; the
  heads' graphs are laid out as one block-diagonal CSR, in which every row
  keeps its own entries in the same order.

Samples are never stacked block-diagonally here: a reduction over a stacked
batch sums in another order than the per-sample forward, so scores would
depend on how samples are grouped.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.graph.sparse import BatchedAdjacency, SparseAdjacency
from repro.nn.functional import (elu_array, leaky_relu_array, relu_array, sigmoid_array,
                                 softmax_array)

__all__ = ["StackedGSG", "StackedLDG", "StackedHeads", "stacks_samples"]


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """``arrays`` on a new leading head axis (a view of the array for one head)."""
    return arrays[0][np.newaxis] if len(arrays) == 1 else np.stack(arrays)


class _Affine:
    """``x @ W + b`` for every head: ``W`` is ``(H, in, out)``, ``b`` ``(H, 1, out)``."""

    __slots__ = ("weight", "bias")

    def __init__(self, layers: list):
        self.weight = _stack([layer.weight.data for layer in layers])
        self.bias = (None if layers[0].bias is None
                     else _stack([layer.bias.data for layer in layers])[:, np.newaxis])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight
        return out if self.bias is None else out + self.bias


class _SliceGraph:
    """A time slice: one sparse graph that every head propagates over."""

    __slots__ = ("adjacency",)

    def __init__(self, adjacency: SparseAdjacency):
        self.adjacency = adjacency

    def gcn(self, x: np.ndarray) -> np.ndarray:
        """``D^-1/2 (A + I) D^-1/2 x`` per head (the GCN propagation)."""
        return self.adjacency.gcn_normalized().matmul(x, axis=1)

    def rmatmul(self, x: np.ndarray) -> np.ndarray:
        """``A.T @ x`` per head."""
        return self.adjacency.rmatmul(x, axis=1)


class _CoarseGraphs:
    """Each head's coarse graph ``M^T A M`` past the first DiffPool layer.

    The per-head path converts its dense ``(c, c)`` coarse graph to CSR
    (:meth:`SparseAdjacency.from_dense`); the heads' graphs are laid out as
    one block-diagonal CSR of those rows, which keeps every row's entries and
    their order.
    """

    def __init__(self, dense: np.ndarray):
        self.adjacency = BatchedAdjacency.from_dense_blocks(dense)

    def _blockwise(self, product, x: np.ndarray) -> np.ndarray:
        size, _, dim = x.shape
        return product(x.reshape(-1, dim)).reshape(size, -1, dim)

    def gcn(self, x: np.ndarray) -> np.ndarray:
        return self._blockwise(self.adjacency.gcn_normalized().matmul, x)

    def rmatmul(self, x: np.ndarray) -> np.ndarray:
        return self._blockwise(self.adjacency.rmatmul, x)


class _Stacked:
    """Shared part of the stacked branches: feature scaling and the score loop."""

    def __init__(self, branches: Sequence):
        self.size = len(branches)
        self.mean = _stack([b._feature_stats[0] for b in branches])[:, np.newaxis]
        self.std = _stack([b._feature_stats[1] for b in branches])[:, np.newaxis]

    def _features(self, sample) -> np.ndarray:
        """``(H, n, F)``: the sample's node features under each head's scaler."""
        return (sample.node_features - self.mean) / self.std

    def logits(self, sample) -> np.ndarray:
        raise NotImplementedError

    def scores(self, samples: Sequence) -> np.ndarray:
        """``(H, len(samples))`` raw scores, one forward per sample."""
        out = np.empty((self.size, len(samples)), dtype=np.float64)
        for j, sample in enumerate(samples):
            out[:, j] = self.logits(sample)
        return out


class StackedGSG(_Stacked):
    """The GSG networks of ``H`` same-architecture branches (Eq. 6-13)."""

    def __init__(self, branches: Sequence):
        super().__init__(branches)
        nets = [b._network for b in branches]
        self.align = _Affine([net.align for net in nets])
        self.layers = []
        for i, layer in enumerate(nets[0].encoder.layers):
            gats = [net.encoder.layers[i] for net in nets]
            heads = [(_Affine([gat.projections[k] for gat in gats]),
                      _stack([gat.attn_src[k].data for gat in gats]),
                      _stack([gat.attn_dst[k].data for gat in gats]))
                     for k in range(layer.num_heads)]
            self.layers.append((heads, layer.negative_slope))
        readouts = [net.encoder.readout for net in nets]
        self.score_linear = _Affine([r.score_linear for r in readouts])
        self.out_linear = _Affine([r.out_linear for r in readouts])
        self.head = _Affine([net.head for net in nets])

    def logits(self, sample) -> np.ndarray:
        """``(H,)`` raw scores of one sample: ``_GSGNetwork.forward`` per head."""
        edge_features = np.log1p(np.abs(sample.node_edge_features()))
        features = self._features(sample)
        x = np.concatenate([features, np.broadcast_to(
            edge_features, (self.size,) + edge_features.shape)], axis=2)
        h = leaky_relu_array(self.align(x), 0.01)                     # Eq. 6
        structure = sample.adjacency_sparse().attention_structure()
        rows, cols = structure.rows, structure.indices
        for heads, negative_slope in self.layers:                     # Eq. 7-9
            outputs = []
            for project, attn_src, attn_dst in heads:
                z = project(h)
                scores = leaky_relu_array(
                    (z @ attn_src)[:, rows] + (z @ attn_dst)[:, cols], negative_slope)
                shift = structure.reduce_rows(scores, np.maximum, axis=1)[:, rows]
                exp = np.exp(scores - shift)
                attn = exp / structure.reduce_rows(exp, axis=1)[:, rows]
                outputs.append(structure.reduce_rows(attn * z[:, cols], axis=1))
            out = (outputs[0] if len(outputs) == 1
                   else np.stack(outputs, axis=2).sum(axis=2) * (1.0 / len(outputs)))
            h = elu_array(out)
        # Graph-level attention read-out (Eq. 10-13).
        summary = h.max(axis=1, keepdims=True)
        candidates = np.concatenate([h, summary], axis=1)
        repeated = np.ones((self.size, candidates.shape[1], 1)) @ summary
        scores = leaky_relu_array(self.score_linear(
            np.concatenate([repeated, candidates], axis=2)), 0.2)
        weights = softmax_array(scores, axis=1)
        embedding = elu_array((weights * self.out_linear(candidates)).sum(axis=1, keepdims=True))
        return self.head(embedding).reshape(self.size)


class StackedLDG(_Stacked):
    """The LDG networks of ``H`` same-architecture branches (Eq. 14-23)."""

    _GRU = ("w_update", "v_update", "w_reset", "v_reset", "w_candidate", "v_candidate")
    _GRU_BIAS = ("bias_update", "bias_reset", "bias_candidate")

    def __init__(self, branches: Sequence):
        super().__init__(branches)
        nets = [b._network for b in branches]
        self.num_slices = branches[0].config.num_slices
        self.input_proj = _Affine([net.input_proj for net in nets])
        self.gcn = _Affine([net.gcn.linear for net in nets])
        self.gru = {name: _stack([getattr(net.gru, name).data for net in nets])
                    for name in self._GRU}
        self.gru.update({name: _stack([getattr(net.gru, name).data for net in nets])
                         [:, np.newaxis] for name in self._GRU_BIAS})
        self.pools = [(_Affine([net.pools[i].assign_gnn.linear for net in nets]),
                       _Affine([net.pools[i].embed_gnn.linear for net in nets]))
                      for i in range(len(nets[0].pools))]
        # Sample-independent: the adaptive time-slice weights (Eq. 22).
        logits = _stack([net.slice_logits.data for net in nets])[:, np.newaxis]
        self.slice_weights = softmax_array(logits, axis=2)            # (H, 1, T)
        self.head = _Affine([net.head for net in nets])

    def _gru_step(self, x: np.ndarray, hidden: np.ndarray) -> np.ndarray:
        """Eq. 15-18, as :meth:`GRUCell.forward <repro.gnn.recurrent.GRUCell.forward>`."""
        g = self.gru
        update = sigmoid_array(x @ g["w_update"] + hidden @ g["v_update"] + g["bias_update"])
        reset = sigmoid_array(x @ g["w_reset"] + hidden @ g["v_reset"] + g["bias_reset"])
        candidate = np.tanh(x @ g["w_candidate"] + (reset * hidden) @ g["v_candidate"]
                            + g["bias_candidate"])
        return (1.0 - update) * hidden + update * candidate

    def _pool(self, x: np.ndarray, graph: _SliceGraph) -> np.ndarray:
        """The DiffPool stack (Eq. 19-21) down to one cluster: ``(H, 1, d)``."""
        for i, (assign_linear, embed_linear) in enumerate(self.pools):
            assignment = softmax_array(graph.gcn(assign_linear(x)), axis=2)
            embedded = relu_array(graph.gcn(embed_linear(x)))
            if i < len(self.pools) - 1:
                graph = _CoarseGraphs(
                    graph.rmatmul(assignment).transpose(0, 2, 1) @ assignment)
            x = assignment.transpose(0, 2, 1) @ embedded
        return x

    def logits(self, sample) -> np.ndarray:
        """``(H,)`` raw scores of one sample: ``_LDGNetwork.forward`` per head."""
        hidden = relu_array(self.input_proj(self._features(sample)))
        representation = None
        slices = sample.time_slices(self.num_slices, weighted=False, sparse=True)
        for t, adjacency in enumerate(slices):
            graph = _SliceGraph(adjacency)
            hidden = self._gru_step(relu_array(graph.gcn(self.gcn(hidden))),
                                    hidden)                           # Eq. 14-18
            pooled = self._pool(hidden, graph)
            pooled = pooled.sum(axis=1, keepdims=True) * (1.0 / pooled.shape[1])
            weighted = pooled * self.slice_weights[:, :, t:t + 1]
            representation = weighted if representation is None else representation + weighted
        return self.head(relu_array(representation)).reshape(self.size)  # Eq. 23


def stacks_samples(branch) -> bool:
    """Whether ``branch`` predicts on block-diagonal stacks of samples.

    A branch trained with ``batch_size > 1`` does, and its scores then depend
    on how samples are chunked, so it keeps its own predict path.
    """
    return branch.config.batch_size > 1 and branch._batched_kernel


def _architecture(kind: str, branch) -> tuple:
    """Branches with equal keys stack: the parameter shapes fix every layer size."""
    return (kind,) + tuple(p.data.shape for p in branch._network.parameters())


def _sources(heads: Mapping) -> list:
    """The objects the stacked arrays are copied from, compared by identity."""
    sources = []
    for name, head in heads.items():
        sources += [name, head]
        for branch in (head.gsg_branch, head.ldg_branch):
            if branch is not None:
                sources += [branch._network, branch._feature_stats]
    return sources


class StackedHeads:
    """Fitted heads with their same-architecture branches stacked for scoring.

    ``heads`` maps names to fitted :class:`~repro.core.model.DBG4ETH` heads.
    GSG and LDG branches are grouped separately, by architecture, so an
    ablated head (``use_gsg=False``) still joins the LDG group and a head
    with another ``hidden_dim`` forms groups of its own.  Each group runs one
    forward per sample for all its heads; feature scaling happens inside the
    group, calibration and the classifier stay per head.  Branches that
    :func:`stack samples <stacks_samples>` predict on their own.

    The stacked arrays are copies: :meth:`serves` tells whether they still
    belong to a given head set.
    """

    def __init__(self, heads: Mapping):
        self.heads = dict(heads)
        self._sources = _sources(self.heads)
        grouped: dict[tuple, list[tuple[str, str, object]]] = {}
        self._solo: list[tuple[str, str, object]] = []
        for name, head in self.heads.items():
            for kind, branch in (("gsg", head.gsg_branch), ("ldg", head.ldg_branch)):
                if branch is None:
                    continue
                if stacks_samples(branch):
                    self._solo.append((name, kind, branch))
                else:
                    grouped.setdefault(_architecture(kind, branch), []).append(
                        (name, kind, branch))
        stacked = {"gsg": StackedGSG, "ldg": StackedLDG}
        self._groups = [([(name, kind) for name, kind, _ in members],
                         stacked[key[0]]([branch for _, _, branch in members]))
                        for key, members in grouped.items()]

    @property
    def passes_per_sample(self) -> int:
        """Stacked forward passes per scored sample: one per group."""
        return len(self._groups)

    def serves(self, heads: Mapping) -> bool:
        """True while ``heads`` holds the same head and branch objects."""
        sources = _sources(heads)
        return (len(sources) == len(self._sources)
                and all(a is b for a, b in zip(sources, self._sources)))

    def branch_scores(self, samples: Sequence) -> dict[str, tuple]:
        """``{name: (gsg_scores, ldg_scores)}`` raw scores, ``None`` for a disabled branch."""
        raw: dict[str, dict[str, np.ndarray]] = {name: {} for name in self.heads}
        for members, stack in self._groups:
            for (name, kind), scores in zip(members, stack.scores(samples)):
                raw[name][kind] = scores
        for name, kind, branch in self._solo:
            raw[name][kind] = branch.predict_scores(samples)
        return {name: (scores.get("gsg"), scores.get("ldg")) for name, scores in raw.items()}

    def predict_proba(self, samples: Sequence) -> dict[str, np.ndarray]:
        """``{name: (len(samples),) probabilities}`` over every head."""
        return {name: self.heads[name].proba_from_scores(*scores)
                for name, scores in self.branch_scores(samples).items()}
