"""Stacked inference: every head's GSG or LDG encoder on a chunk of samples at once.

A facade scores each address with one DBG4ETH head per category, and every
head runs both encoders.  Heads whose branch networks share one architecture
are scored together here: their weights are stacked along a leading head
axis, and samples with the same node count along a second, sample axis.  One
no-grad forward per chunk of such samples computes all ``H x B`` raw branch
scores in plain numpy, without the autograd bookkeeping of
:class:`~repro.nn.Tensor`.  A single branch is the ``H = 1`` case
(:meth:`GSGBranch.predict_scores <repro.core.gsg.GSGBranch.predict_scores>`,
:meth:`LDGBranch.predict_scores <repro.core.ldg.LDGBranch.predict_scores>`),
a single sample the ``B = 1`` case.  Every fitted branch scores here,
whatever ``batch_size`` it was trained with.

Every score is bit-identical to the head's own training forward on that one
sample (``_network.forward`` on a one-block stack), whatever else the batch
holds, because each stacked op does, per (head, sample) block, exactly the
float operations of the per-sample op:

* dense arrays are ``(H, B, n, d)``, so every block keeps the per-sample
  shape and is contiguous.  ``np.matmul`` over the two leading axes issues
  per block the BLAS call of the 2-D product; the weights carry a unit
  sample axis (``(H, 1, in, out)``) that broadcasts over the chunk;
* elementwise ops are position-independent;
* reductions run within a block, so numpy picks the same pairwise or
  sequential summation for it as for the per-sample array.  A layout that
  merges blocks would not: a read-out or softmax sum over ``(H, B*n, ...)``,
  over a padded block or down one column of a node-major ``(n, H)`` array
  reduces in another order.  Samples of different sizes therefore never
  share an array and are never padded: they are grouped by node count, and
  each group is scored in chunks of at most ``_CHUNK`` samples
  (:func:`_chunks`);
* sparse message passing runs on the block-diagonal of the chunk's graphs,
  in which every row keeps its own entries in the same order.  It gathers
  along the node axis and reduces with ``reduceat``, whose per-column result
  does not depend on the columns beside it
  (``SparseAdjacency.matmul(x, axis=1)``).  A chunk of one uses the sample's
  own graph, whose memoized normalisations serve every later request; a
  larger chunk derives them on its block-diagonal, which gives the same bits
  as composing the samples' forms (pinned in ``tests/test_batched_training.py``);
* past the first DiffPool layer every (head, sample) pair has its own coarse
  graph; those graphs are laid out as one block-diagonal CSR in the same way.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.graph.sparse import BatchedAdjacency, SparseAdjacency
from repro.nn.functional import (elu_array, leaky_relu_array, relu_array, sigmoid_array,
                                 softmax_array)

__all__ = ["StackedGSG", "StackedLDG", "StackedHeads"]

#: Most samples in one stacked forward.  On perfbench serve's held-out
#: batches of 64 addresses, scored cold by 3 heads on a 2-vCPU x86-64 host
#: (seeds 1-3), bounds of 16 and 32 ran the heads equally fast (median per
#: batch 152, 115 and 122 ms at 16; 142, 116 and 132 ms at 32; 225 ms one
#: sample at a time), and 16 halves the transient peak (tracemalloc: 6.9 MB
#: at 16, 13.4 MB at 32, 22.4 MB with one chunk per node count).
_CHUNK = 16


def _chunks(samples: Sequence) -> list[list[int]]:
    """Positions of ``samples`` per stacked forward.

    Samples with the same node count are stacked, in order, at most
    ``_CHUNK`` at a time; a repeated sample takes its own slot.
    """
    by_size: dict[int, list[int]] = {}
    for position, sample in enumerate(samples):
        by_size.setdefault(sample.num_nodes, []).append(position)
    return [positions[start:start + _CHUNK] for positions in by_size.values()
            for start in range(0, len(positions), _CHUNK)]


def _stack(arrays: list[np.ndarray], unit_axes: int = 1) -> np.ndarray:
    """``arrays`` on a new leading head axis, then ``unit_axes`` axes of length 1.

    The unit axes broadcast over the sample (and node) axes of a chunk.  For
    one head the result is a view of its array.
    """
    stacked = arrays[0][np.newaxis] if len(arrays) == 1 else np.stack(arrays)
    return stacked.reshape(stacked.shape[:1] + (1,) * unit_axes + stacked.shape[1:])


def _nodes(x: np.ndarray) -> np.ndarray:
    """``(H, B*n, d)`` view of an ``(H, B, n, d)`` array: the chunk's nodes in
    block-diagonal order, for gathers and sparse products only."""
    return x.reshape(x.shape[0], -1, x.shape[-1])


def _block_diagonal(adjacencies: list[SparseAdjacency]) -> SparseAdjacency:
    """A chunk's graphs side by side: one sample's own graph, or a fresh
    block-diagonal whose derived forms are computed on the stack."""
    return adjacencies[0] if len(adjacencies) == 1 else \
        SparseAdjacency.block_diagonal(adjacencies)


class _Affine:
    """``x @ W + b`` for every head: ``W`` is ``(H, 1, in, out)``, ``b`` ``(H, 1, 1, out)``."""

    __slots__ = ("weight", "bias")

    def __init__(self, layers: list):
        self.weight = _stack([layer.weight.data for layer in layers])
        self.bias = (None if layers[0].bias is None
                     else _stack([layer.bias.data for layer in layers], 2))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight
        return out if self.bias is None else out + self.bias


class _Graphs:
    """Sparse products over a chunk's graphs, laid out as one block-diagonal CSR.

    ``x`` is ``(H, B, n, d)``.  ``axis`` is the node axis of the flattened
    operand: 1 when every head shares the graphs (``(H, B*n, d)``, one block
    per sample), 0 when every (head, sample) pair has its own
    (``(H*B*n, d)``, one block per pair).
    """

    __slots__ = ("adjacency",)
    axis = 1

    def __init__(self, adjacency: SparseAdjacency):
        self.adjacency = adjacency

    def _apply(self, product, x: np.ndarray) -> np.ndarray:
        rows = x.reshape(x.shape[:self.axis] + (-1, x.shape[-1]))
        return product(rows, axis=self.axis).reshape(x.shape)

    def gcn(self, x: np.ndarray) -> np.ndarray:
        """``D^-1/2 (A + I) D^-1/2 x`` per block (the GCN propagation)."""
        return self._apply(self.adjacency.gcn_normalized().matmul, x)

    def rmatmul(self, x: np.ndarray) -> np.ndarray:
        """``A.T @ x`` per block."""
        return self._apply(self.adjacency.rmatmul, x)


class _CoarseGraphs(_Graphs):
    """Each (head, sample) pair's coarse graph ``M^T A M`` past the first DiffPool layer.

    The per-sample path converts its dense ``(c, c)`` coarse graph to CSR
    (:meth:`SparseAdjacency.from_dense`); the ``(H, B, c, c)`` stack is laid
    out as one block-diagonal CSR of those rows
    (:meth:`BatchedAdjacency.from_dense_blocks`).
    """

    __slots__ = ()
    axis = 0

    def __init__(self, dense: np.ndarray):
        super().__init__(BatchedAdjacency.from_dense_blocks(
            dense.reshape((-1,) + dense.shape[-2:])))


class _Stacked:
    """Shared part of the stacked branches: feature scaling and the score loop."""

    def __init__(self, branches: Sequence):
        self.size = len(branches)
        self.mean = _stack([b._feature_stats[0] for b in branches], 2)
        self.std = _stack([b._feature_stats[1] for b in branches], 2)

    def _features(self, chunk: Sequence) -> np.ndarray:
        """``(H, B, n, F)``: the chunk's node features under each head's scaler."""
        return (np.array([sample.node_features for sample in chunk]) - self.mean) / self.std

    def logits(self, chunk: Sequence) -> np.ndarray:
        """``(H, B)`` raw scores of a chunk of samples with one node count."""
        raise NotImplementedError

    def scores(self, samples: Sequence) -> np.ndarray:
        """``(H, len(samples))`` raw scores, one forward per :func:`chunk <_chunks>`."""
        out = np.empty((self.size, len(samples)), dtype=np.float64)
        for positions in _chunks(samples):
            out[:, positions] = self.logits([samples[i] for i in positions])
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

    def logits(self, chunk: Sequence) -> np.ndarray:
        """``(H, B)`` raw scores: ``_GSGNetwork.forward`` per head and sample."""
        edge_features = np.log1p(np.abs(np.array(
            [sample.node_edge_features() for sample in chunk])))
        features = self._features(chunk)
        x = np.concatenate([features, np.broadcast_to(
            edge_features, (self.size,) + edge_features.shape)], axis=3)
        h = leaky_relu_array(self.align(x), 0.01)                     # Eq. 6
        structure = _block_diagonal(
            [sample.adjacency_sparse() for sample in chunk]).attention_structure()
        rows, cols = structure.rows, structure.indices
        for heads, negative_slope in self.layers:                     # Eq. 7-9
            outputs = []
            for project, attn_src, attn_dst in heads:
                z = project(h)
                scores = leaky_relu_array(_nodes(z @ attn_src)[:, rows]
                                          + _nodes(z @ attn_dst)[:, cols], negative_slope)
                shift = structure.reduce_rows(scores, np.maximum, axis=1)[:, rows]
                exp = np.exp(scores - shift)
                attn = exp / structure.reduce_rows(exp, axis=1)[:, rows]
                outputs.append(structure.reduce_rows(
                    attn * _nodes(z)[:, cols], axis=1).reshape(z.shape))
            out = (outputs[0] if len(outputs) == 1
                   else np.stack(outputs, axis=3).sum(axis=3) * (1.0 / len(outputs)))
            h = elu_array(out)
        # Graph-level attention read-out (Eq. 10-13).
        summary = h.max(axis=2, keepdims=True)
        candidates = np.concatenate([h, summary], axis=2)
        repeated = np.ones(candidates.shape[:3] + (1,)) @ summary
        scores = leaky_relu_array(self.score_linear(
            np.concatenate([repeated, candidates], axis=3)), 0.2)
        weights = softmax_array(scores, axis=2)
        embedding = elu_array((weights * self.out_linear(candidates)).sum(axis=2, keepdims=True))
        return self.head(embedding).reshape(self.size, len(chunk))


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
        self.gru.update({name: _stack([getattr(net.gru, name).data for net in nets], 2)
                         for name in self._GRU_BIAS})
        self.pools = [(_Affine([net.pools[i].assign_gnn.linear for net in nets]),
                       _Affine([net.pools[i].embed_gnn.linear for net in nets]))
                      for i in range(len(nets[0].pools))]
        # Sample-independent: the adaptive time-slice weights (Eq. 22).
        logits = _stack([net.slice_logits.data for net in nets], 2)
        self.slice_weights = softmax_array(logits, axis=3)            # (H, 1, 1, T)
        self.head = _Affine([net.head for net in nets])

    def _gru_step(self, x: np.ndarray, hidden: np.ndarray) -> np.ndarray:
        """Eq. 15-18, as :meth:`GRUCell.forward <repro.gnn.recurrent.GRUCell.forward>`."""
        g = self.gru
        update = sigmoid_array(x @ g["w_update"] + hidden @ g["v_update"] + g["bias_update"])
        reset = sigmoid_array(x @ g["w_reset"] + hidden @ g["v_reset"] + g["bias_reset"])
        candidate = np.tanh(x @ g["w_candidate"] + (reset * hidden) @ g["v_candidate"]
                            + g["bias_candidate"])
        return (1.0 - update) * hidden + update * candidate

    def _pool(self, x: np.ndarray, graph: _Graphs) -> np.ndarray:
        """The DiffPool stack (Eq. 19-21) down to one cluster: ``(H, B, 1, d)``."""
        for i, (assign_linear, embed_linear) in enumerate(self.pools):
            assignment = softmax_array(graph.gcn(assign_linear(x)), axis=3)
            embedded = relu_array(graph.gcn(embed_linear(x)))
            if i < len(self.pools) - 1:
                graph = _CoarseGraphs(
                    graph.rmatmul(assignment).swapaxes(2, 3) @ assignment)
            x = assignment.swapaxes(2, 3) @ embedded
        return x

    def logits(self, chunk: Sequence) -> np.ndarray:
        """``(H, B)`` raw scores: ``_LDGNetwork.forward`` per head and sample."""
        hidden = relu_array(self.input_proj(self._features(chunk)))
        representation = None
        slices = [sample.time_slices(self.num_slices, weighted=False, sparse=True)
                  for sample in chunk]
        for t in range(self.num_slices):
            graph = _Graphs(_block_diagonal([own[t] for own in slices]))
            hidden = self._gru_step(relu_array(graph.gcn(self.gcn(hidden))),
                                    hidden)                           # Eq. 14-18
            pooled = self._pool(hidden, graph)
            pooled = pooled.sum(axis=2, keepdims=True) * (1.0 / pooled.shape[2])
            weighted = pooled * self.slice_weights[..., t:t + 1]
            representation = weighted if representation is None else representation + weighted
        return self.head(relu_array(representation)).reshape(self.size, len(chunk))  # Eq. 23


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
    forward per :func:`chunk <_chunks>` of equal-size samples for all its
    heads; feature scaling happens inside the group, calibration and the
    classifier stay per head.

    The stacked arrays are copies: :meth:`serves` tells whether they still
    belong to a given head set.
    """

    def __init__(self, heads: Mapping):
        self.heads = dict(heads)
        self._sources = _sources(self.heads)
        grouped: dict[tuple, list[tuple[str, str, object]]] = {}
        for name, head in self.heads.items():
            for kind, branch in (("gsg", head.gsg_branch), ("ldg", head.ldg_branch)):
                if branch is not None:
                    grouped.setdefault(_architecture(kind, branch), []).append(
                        (name, kind, branch))
        stacked = {"gsg": StackedGSG, "ldg": StackedLDG}
        self._groups = [([(name, kind) for name, kind, _ in members],
                         stacked[key[0]]([branch for _, _, branch in members]))
                        for key, members in grouped.items()]

    def passes(self, samples: Sequence) -> int:
        """Stacked forwards that scoring ``samples`` runs: one per group and chunk."""
        return len(self._groups) * len(_chunks(samples))

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
        return {name: (scores.get("gsg"), scores.get("ldg")) for name, scores in raw.items()}

    def predict_proba(self, samples: Sequence) -> dict[str, np.ndarray]:
        """``{name: (len(samples),) probabilities}`` over every head."""
        return {name: self.heads[name].proba_from_scores(*scores)
                for name, scores in self.branch_scores(samples).items()}
