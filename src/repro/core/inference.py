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
sample (``_network.forward`` on a one-sample group), whatever else the batch
holds, because each stacked op does, per (head, sample) block, exactly the
float operations of the per-sample op:

* arrays are ``(H, B, n, ...)``, so every block keeps the per-sample shape
  and is contiguous.  ``np.matmul`` over the leading axes issues per block
  the BLAS call of the 2-D product.  The weights carry a unit sample axis
  (``(H, 1, in, out)``) that broadcasts over the chunk; the chunk's dense
  forms carry no head axis (``(B, n, n)``) and broadcast over the heads;
* elementwise ops are position-independent;
* reductions run within a block, so numpy picks the same pairwise or
  sequential summation for it as for the per-sample array.  A layout that
  merges blocks would not: a softmax or read-out sum over a padded block
  reduces in another order.  Samples of different sizes therefore never
  share an array and are never padded: they are grouped by node count, and
  each group is scored in chunks of at most ``_CHUNK`` samples
  (:func:`_chunks`);
* every chunk, a chunk of one included, builds its dense forms once from
  its samples' edge columns (:func:`~repro.data.slicing.adjacency_blocks`,
  :func:`~repro.data.slicing.time_slice_blocks`: one scatter each) and
  derives the GAT mask and the normalised slices on them.  Each block equals
  the form a training forward builds for that sample alone, and nothing is
  memoized on the sample: a scored sample is answered from its score memo
  from then on;
* past the first DiffPool layer every (head, sample) pair has its own dense
  coarse graph ``M^T A M``, an ``(H, B, c, c)`` array.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.data.slicing import adjacency_blocks, time_slice_blocks
from repro.gnn.layers import attention_mask, normalize_adjacency
from repro.gnn.pooling import coarsen
from repro.nn.functional import (elu_array, leaky_relu_array, relu_array, sigmoid_array,
                                 softmax_array)

__all__ = ["StackedGSG", "StackedLDG", "StackedHeads"]

#: Most samples in one stacked forward.  Timed in-process on cold batches of
#: 64 addresses scored by 3 heads on a 2-vCPU x86-64 host (perfbench seed 1:
#: serve's 5 held-out batches and 8 fresh batches from follow_chain's 1M-tx
#: graph; bounds alternated over 10 reps), the median heads time per batch
#: was 49.6, 47.7 and 48.2 ms at bounds 8, 16 and 32 on serve, and 52.2, 50.3
#: and 51.0 ms on follow_chain.  32 beat 16 in 3 of the 10 reps on each and
#: doubles the transient peak (tracemalloc per batch: 2.9, 5.8 and 11.7 MB on
#: both, set by a full chunk at the 50-node cap), so the bound stays 16.  At
#: the default cap of 200 one chunk of 16 peaks at 83.4 MB: a (3, 16, 200,
#: 200) array is 15.4 MB, and the attention holds about five.
_CHUNK = 16


def node_count_groups(sizes: Sequence[int]) -> list[list[int]]:
    """Positions of ``sizes`` grouped by value, groups in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for position, size in enumerate(sizes):
        groups.setdefault(size, []).append(position)
    return list(groups.values())


def _chunks(samples: Sequence) -> list[list[int]]:
    """Positions of ``samples`` per stacked forward.

    Samples with the same node count are stacked, in order, at most
    ``_CHUNK`` at a time; a repeated sample takes its own slot.
    """
    return [positions[start:start + _CHUNK]
            for positions in node_count_groups([sample.num_nodes for sample in samples])
            for start in range(0, len(positions), _CHUNK)]


def _stack(arrays: list[np.ndarray], unit_axes: int = 1) -> np.ndarray:
    """``arrays`` on a new leading head axis, then ``unit_axes`` axes of length 1.

    The unit axes broadcast over the sample (and node) axes of a chunk.  For
    one head the result is a view of its array.
    """
    stacked = arrays[0][np.newaxis] if len(arrays) == 1 else np.stack(arrays)
    return stacked.reshape(stacked.shape[:1] + (1,) * unit_axes + stacked.shape[1:])


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
        mask = attention_mask(adjacency_blocks([sample.graph for sample in chunk]))
        for heads, negative_slope in self.layers:                     # Eq. 7-9
            outputs = []
            for project, attn_src, attn_dst in heads:
                z = project(h)
                scores = leaky_relu_array(z @ attn_src + (z @ attn_dst).swapaxes(2, 3),
                                          negative_slope)
                outputs.append(softmax_array(scores + mask, axis=3) @ z)
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

    def _pool(self, x: np.ndarray, adjacency: np.ndarray,
              normalized: np.ndarray) -> np.ndarray:
        """The DiffPool stack (Eq. 19-21) down to one cluster: ``(H, B, 1, d)``.

        ``adjacency`` and ``normalized`` are the slice's ``A`` and ``Â``,
        ``(B, n, n)``; the coarse graphs past the first layer are
        ``(H, B, c, c)``.
        """
        for i, (assign_linear, embed_linear) in enumerate(self.pools):
            assignment = softmax_array(normalized @ assign_linear(x), axis=3)
            embedded = relu_array(normalized @ embed_linear(x))
            if i < len(self.pools) - 1:
                adjacency = coarsen(assignment, adjacency)
                normalized = normalize_adjacency(adjacency)
            x = assignment.swapaxes(2, 3) @ embedded
        return x

    def logits(self, chunk: Sequence) -> np.ndarray:
        """``(H, B)`` raw scores: ``_LDGNetwork.forward`` per head and sample."""
        hidden = relu_array(self.input_proj(self._features(chunk)))
        slices = time_slice_blocks([sample.graph for sample in chunk], self.num_slices)
        normalized = normalize_adjacency(slices)
        representation = None
        for t in range(self.num_slices):
            hidden = self._gru_step(relu_array(normalized[t] @ self.gcn(hidden)),
                                    hidden)                           # Eq. 14-18
            pooled = self._pool(hidden, slices[t], normalized[t])
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
