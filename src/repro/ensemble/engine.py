"""Flat, array-backed histogram-GBDT engine.

Every tree-based head in the ensemble fits and predicts on this module:

* **Split finding** — features are pre-binned once into quantile buckets
  (:class:`HistogramBinner`), after which the per-node gradient/hessian (or
  per-class count) sums over *all bins of all candidate features* come from a
  single ``np.bincount`` pass over the node's rows.  Cumulative sums along the
  bin axis then score every candidate threshold at once, so the best split of
  a node is one vectorised reduction.
* **Prediction** — fitted trees are stored as parallel preorder arrays
  (``feature`` / ``threshold`` / ``left`` / ``right`` / ``values``,
  :class:`FlatTree`) and predicted by *iterative* descent of all rows at
  once; :class:`FlatTreeStack` concatenates the arrays of a whole ensemble so
  every tree of every row advances one level per numpy step.

The array layout is the preorder ``get_state`` format of every saved model
directory, including those written before this engine existed, so a
:class:`FlatTree` loads them bit-for-bit; descent routes ``x <= threshold``
to the left child, the comparison those trees were fitted with.

Split thresholds are mapped back from bin space to raw feature space
(``threshold = edges[bin]``; ``np.searchsorted(edges, x) <= bin`` iff
``x <= edges[bin]`` with the default ``side='left'``), so fitted trees
predict directly on unbinned inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import heapq

import numpy as np

__all__ = [
    "HistogramBinner",
    "FlatTree",
    "FlatClassifierTree",
    "FlatTreeStack",
    "GrowthParams",
    "grow_regression_tree",
    "grow_classification_tree",
    "best_histogram_split",
    "newton_gain",
]

#: Gains below this are treated as "no usable split" (a guard against
#: splitting on floating-point noise).
MIN_GAIN = 1e-12


# --------------------------------------------------------------------------- binning
class HistogramBinner:
    """Quantile feature binning shared by every histogram-grown tree.

    ``fit`` computes at most ``max_bins - 1`` interior bin edges per feature
    (deduplicated quantiles, so constant or low-cardinality columns get fewer
    bins); ``transform`` maps values to integer codes with
    ``np.searchsorted(edges, x)`` — code ``c <= b``  iff  ``x <= edges[b]``,
    which is what lets split thresholds be expressed in raw feature space.
    """

    def __init__(self, max_bins: int = 32):
        if max_bins < 2:
            raise ValueError("max_bins must be at least 2")
        self.max_bins = max_bins
        self.edges_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "HistogramBinner":
        X = np.asarray(X, dtype=float)
        quantiles = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        self.edges_ = [np.unique(np.quantile(X[:, j], quantiles))
                       for j in range(X.shape[1])]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("binner has not been fitted")
        X = np.asarray(X, dtype=float)
        codes = np.empty(X.shape, dtype=np.int64)
        for j, edges in enumerate(self.edges_):
            codes[:, j] = np.searchsorted(edges, X[:, j])
        return codes

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


# --------------------------------------------------------------------------- flat trees
class FlatTree:
    """A decision tree as parallel preorder arrays with batched predict.

    ``feature[i] == -1`` marks a leaf (``threshold`` is NaN there, children
    are ``-1``); internal nodes route ``x[feature] <= threshold`` to ``left``.
    ``values`` holds one row per node — a scalar for regression trees, a
    class-probability row for classification trees — with internal rows zero,
    matching the PR-3 ``get_state`` layout byte for byte.
    """

    __slots__ = ("feature", "threshold", "left", "right", "values", "n_features")

    def __init__(self, feature, threshold, left, right, values, n_features: int):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.n_features = int(n_features)

    # ----------------------------------------------------------------- state
    def get_state(self) -> dict:
        """The preorder-array state contract shared with PR-3-era models."""
        return {
            "n_features": self.n_features,
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "values": self.values,
        }

    @classmethod
    def from_state(cls, state: dict) -> "FlatTree":
        return cls(state["feature"], state["threshold"], state["left"],
                   state["right"], state["values"], state["n_features"])

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def depth(self) -> int:
        """Depth of the tree (0 for a single leaf), computed iteratively."""
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        best = 0
        for idx in range(self.n_nodes):          # parents precede children in preorder
            if self.feature[idx] >= 0:
                child_depth = depths[idx] + 1
                depths[self.left[idx]] = child_depth
                depths[self.right[idx]] = child_depth
                best = max(best, int(child_depth))
        return best

    # --------------------------------------------------------------- predict
    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by every row (batched iterative descent)."""
        X = np.asarray(X, dtype=float)
        node = np.zeros(len(X), dtype=np.int64)
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            current = node[active]
            go_left = X[active, self.feature[current]] <= self.threshold[current]
            node[active] = np.where(go_left, self.left[current], self.right[current])
            active = active[self.feature[node[active]] >= 0]
        return node

    def predict_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value (row of ``values``) for every input row."""
        return self.values[self.apply(np.atleast_2d(np.asarray(X, dtype=float)))]


class FlatClassifierTree:
    """A fitted classification tree: a :class:`FlatTree` of class-probability
    rows plus the class labels its columns stand for.

    The state is the tree's node arrays plus ``classes``.
    """

    __slots__ = ("_flat", "classes_")

    def __init__(self, flat: FlatTree, classes):
        self._flat = flat
        self.classes_ = np.asarray(classes)

    @classmethod
    def from_state(cls, state: dict) -> "FlatClassifierTree":
        return cls(FlatTree.from_state(state), state["classes"])

    def get_state(self) -> dict:
        state = dict(self._flat.get_state())
        state["classes"] = np.asarray(self.classes_)
        return state

    @property
    def flat(self) -> FlatTree:
        return self._flat

    def predict_proba(self, X) -> np.ndarray:
        return self._flat.predict_values(X)

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


class FlatTreeStack:
    """All trees of an ensemble concatenated into one set of node arrays.

    Descent advances *every (tree, row) pair* one level per numpy step, so a
    whole ensemble's ``decision_function`` is ``O(depth)`` array operations
    regardless of tree count.  ``leaf_values`` returns the per-tree leaf rows
    so callers can accumulate them in exactly the same left-to-right order as
    the sequential per-tree loop (keeping results bit-identical to it).
    """

    __slots__ = ("feature", "threshold", "left", "right", "values", "roots", "n_trees")

    def __init__(self, trees: list[FlatTree]):
        if not trees:
            raise ValueError("cannot stack an empty tree list")
        offsets = np.cumsum([0] + [tree.n_nodes for tree in trees[:-1]])
        self.roots = np.asarray(offsets, dtype=np.int64)
        self.n_trees = len(trees)
        self.feature = np.concatenate([tree.feature for tree in trees])
        self.threshold = np.concatenate([tree.threshold for tree in trees])
        self.left = np.concatenate([tree.left + off
                                    for tree, off in zip(trees, offsets)])
        self.right = np.concatenate([tree.right + off
                                     for tree, off in zip(trees, offsets)])
        values = [np.atleast_1d(tree.values) for tree in trees]
        self.values = np.concatenate(values, axis=0)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_rows) global node index reached by every pair."""
        X = np.asarray(X, dtype=float)
        n_rows = len(X)
        node = np.repeat(self.roots, n_rows)
        row = np.tile(np.arange(n_rows), self.n_trees)
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            current = node[active]
            go_left = X[row[active], self.feature[current]] <= self.threshold[current]
            node[active] = np.where(go_left, self.left[current], self.right[current])
            active = active[self.feature[node[active]] >= 0]
        return node.reshape(self.n_trees, n_rows)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values: shape (n_trees, n_rows) or (n_trees, n_rows, k)."""
        return self.values[self.apply(np.atleast_2d(np.asarray(X, dtype=float)))]


# --------------------------------------------------------------------------- split finding
def newton_gain(g_sum: np.ndarray, h_sum: np.ndarray, g_total: float,
                h_total: float, reg_lambda: float) -> np.ndarray:
    """Second-order split gain: GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ).

    With unit hessians and λ=0 this reduces to the sum-of-squares reduction,
    which orders splits as the variance-reduction gain does.
    """
    g_right = g_total - g_sum
    h_right = h_total - h_sum
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (g_sum ** 2 / (h_sum + reg_lambda)
                + g_right ** 2 / (h_right + reg_lambda)
                - g_total ** 2 / (h_total + reg_lambda))
    return np.where(np.isfinite(gain), gain, -np.inf)


@dataclass
class GrowthParams:
    """Hyperparameters shared by the histogram tree growers."""

    max_depth: int = 3
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: int | None = None
    reg_lambda: float = 0.0
    #: Grow leaf-wise (best-gain-first, LightGBM style) instead of depth-wise.
    leaf_wise: bool = False
    #: Leaf budget for leaf-wise growth; ``None`` means bounded by depth only.
    max_leaves: int | None = None


def _node_histograms(codes: np.ndarray, rows: np.ndarray, features: np.ndarray,
                     max_bins: int, weights: list[np.ndarray]) -> list[np.ndarray]:
    """Per-(feature, bin) sums of each weight array over ``rows``.

    One ``np.bincount`` per weight array covers every candidate feature at
    once: codes are offset into disjoint ``max_bins``-wide slots per feature
    and the flattened counts reshaped to ``(len(features), max_bins)``.
    """
    sub = codes[np.ix_(rows, features)]
    flat = (sub + np.arange(len(features), dtype=np.int64) * max_bins).ravel()
    length = len(features) * max_bins
    out = []
    for w in weights:
        if w is None:
            hist = np.bincount(flat, minlength=length).astype(np.float64)
        else:
            expanded = np.broadcast_to(w[rows, None], sub.shape).ravel()
            hist = np.bincount(flat, weights=expanded, minlength=length)
        out.append(hist.reshape(len(features), max_bins))
    return out


def best_histogram_split(codes: np.ndarray, rows: np.ndarray, g: np.ndarray,
                         h: np.ndarray, n_edges: np.ndarray, max_bins: int,
                         params: GrowthParams,
                         features: np.ndarray | None = None
                         ) -> tuple[int, int, float] | None:
    """Best (feature, bin, gain) over all bins of all candidate features.

    Returns ``None`` when no candidate satisfies ``min_samples_leaf`` on both
    sides with a positive gain.  ``features`` restricts the candidate set
    (per-node feature subsampling); bins at or past a feature's edge count are
    invalid because they have no raw-space threshold.
    """
    if features is None:
        features = np.arange(codes.shape[1])
    cnt, g_hist, h_hist = _node_histograms(codes, rows, features, max_bins,
                                           [None, g, h])
    cum_cnt = np.cumsum(cnt, axis=1)
    cum_g = np.cumsum(g_hist, axis=1)
    cum_h = np.cumsum(h_hist, axis=1)
    n = len(rows)
    g_total = float(cum_g[0, -1]) if len(features) else 0.0
    h_total = float(cum_h[0, -1]) if len(features) else 0.0
    gain = newton_gain(cum_g, cum_h, g_total, h_total, params.reg_lambda)
    left_n = cum_cnt
    valid = ((left_n >= params.min_samples_leaf)
             & (n - left_n >= params.min_samples_leaf)
             & (np.arange(max_bins) < n_edges[features, None]))
    gain = np.where(valid, gain, -np.inf)
    flat_best = int(np.argmax(gain))
    feat_pos, bin_idx = divmod(flat_best, max_bins)
    best_gain = float(gain[feat_pos, bin_idx])
    if not np.isfinite(best_gain) or best_gain <= MIN_GAIN:
        return None
    return int(features[feat_pos]), int(bin_idx), best_gain


def _best_gini_split(codes: np.ndarray, rows: np.ndarray, y_idx: np.ndarray,
                     n_classes: int, n_edges: np.ndarray, max_bins: int,
                     params: GrowthParams, features: np.ndarray | None
                     ) -> tuple[int, int, float] | None:
    """Gini-gain analogue of :func:`best_histogram_split` for classification.

    Per-(feature, bin, class) counts come from one bincount over
    ``slot * n_classes + class``; maximising ``Σc nL_c²/nL + Σc nR_c²/nR`` is
    equivalent to maximising the Gini gain.
    """
    if features is None:
        features = np.arange(codes.shape[1])
    sub = codes[np.ix_(rows, features)]
    slots = sub + np.arange(len(features), dtype=np.int64) * max_bins
    flat = slots.ravel() * n_classes + np.broadcast_to(
        y_idx[rows, None], sub.shape).ravel()
    counts = np.bincount(flat, minlength=len(features) * max_bins * n_classes)
    counts = counts.reshape(len(features), max_bins, n_classes).astype(np.float64)
    cum = np.cumsum(counts, axis=1)                       # left class counts
    total = cum[:, -1:, :]
    n = float(len(rows))
    left_n = cum.sum(axis=2)
    right_n = n - left_n
    with np.errstate(divide="ignore", invalid="ignore"):
        score = ((cum ** 2).sum(axis=2) / left_n
                 + ((total - cum) ** 2).sum(axis=2) / right_n)
    parent_score = float((total[:, 0, :][0] ** 2).sum() / n) if len(features) else 0.0
    gain = np.where(np.isfinite(score), score, -np.inf) - parent_score
    valid = ((left_n >= params.min_samples_leaf)
             & (right_n >= params.min_samples_leaf)
             & (np.arange(max_bins) < n_edges[features, None]))
    gain = np.where(valid, gain, -np.inf)
    flat_best = int(np.argmax(gain))
    feat_pos, bin_idx = divmod(flat_best, max_bins)
    best_gain = float(gain[feat_pos, bin_idx])
    # Normalise to the weighted-Gini-gain scale (divide by n).
    if not np.isfinite(best_gain) or best_gain / n <= MIN_GAIN:
        return None
    return int(features[feat_pos]), int(bin_idx), best_gain / n


# --------------------------------------------------------------------------- growth
class _Growth:
    """Mutable node arrays accumulated during growth, preorder-normalised at the end."""

    def __init__(self, n_features: int, value_width: int | None):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.values: list = []
        self.n_features = n_features
        self.value_width = value_width

    def add(self, value) -> int:
        idx = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.values.append(value)
        return idx

    def split(self, idx: int, feature: int, threshold: float,
              left: int, right: int) -> None:
        self.feature[idx] = feature
        self.threshold[idx] = threshold
        self.left[idx] = left
        self.right[idx] = right
        if self.value_width is None:
            self.values[idx] = 0.0
        else:
            self.values[idx] = np.zeros(self.value_width)

    def to_tree(self) -> FlatTree:
        """Renumber nodes into preorder (the PR-3 state layout) and freeze."""
        order: list[int] = []
        stack = [0]
        while stack:
            idx = stack.pop()
            order.append(idx)
            if self.feature[idx] >= 0:
                stack.append(self.right[idx])   # right pushed first -> left visited first
                stack.append(self.left[idx])
        position = {old: new for new, old in enumerate(order)}
        feature = np.asarray([self.feature[i] for i in order], dtype=np.int64)
        threshold = np.asarray([self.threshold[i] for i in order], dtype=np.float64)
        left = np.asarray([position[self.left[i]] if self.feature[i] >= 0 else -1
                           for i in order], dtype=np.int64)
        right = np.asarray([position[self.right[i]] if self.feature[i] >= 0 else -1
                            for i in order], dtype=np.int64)
        values = np.asarray([self.values[i] for i in order], dtype=np.float64)
        return FlatTree(feature, threshold, left, right, values, self.n_features)


def _candidate_features(n_features: int, params: GrowthParams,
                        rng: np.random.Generator | None) -> np.ndarray | None:
    if params.max_features is None or params.max_features >= n_features:
        return None
    generator = rng or np.random.default_rng(0)
    return generator.choice(n_features, size=params.max_features, replace=False)


def grow_regression_tree(codes: np.ndarray, edges: list[np.ndarray],
                         g: np.ndarray, h: np.ndarray, params: GrowthParams,
                         rng: np.random.Generator | None = None,
                         leaf_sign: float = 1.0) -> FlatTree:
    """Grow a histogram regression tree on gradient/hessian sums.

    Leaf values are ``leaf_sign * G / (H + λ)`` — ``leaf_sign=1`` with unit
    hessians and λ=0 fits the mean of ``g`` (first-order residual boosting);
    ``leaf_sign=-1`` with logistic hessians is the Newton leaf ``-G/(H+λ)``
    of second-order boosting.  Growth is depth-wise, or best-gain-first when
    ``params.leaf_wise`` (bounded by ``params.max_leaves``).
    """
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    n_features = codes.shape[1]
    max_bins = max((len(e) for e in edges), default=0) + 1
    n_edges = np.asarray([len(e) for e in edges], dtype=np.int64)
    growth = _Growth(n_features, value_width=None)

    def leaf_value(rows: np.ndarray) -> float:
        g_sum = float(g[rows].sum())
        h_sum = float(h[rows].sum())
        denominator = h_sum + params.reg_lambda
        return float(leaf_sign * g_sum / denominator) if denominator > 0.0 else 0.0

    def find_split(rows: np.ndarray, depth: int):
        if depth >= params.max_depth or len(rows) < params.min_samples_split:
            return None
        features = _candidate_features(n_features, params, rng)
        return best_histogram_split(codes, rows, g, h, n_edges, max_bins,
                                    params, features)

    def partition(rows: np.ndarray, feature: int, bin_idx: int):
        go_left = codes[rows, feature] <= bin_idx
        return rows[go_left], rows[~go_left]

    return _grow(growth, np.arange(len(codes)), edges, params,
                 find_split, partition, leaf_value)


def grow_classification_tree(codes: np.ndarray, edges: list[np.ndarray],
                             y_idx: np.ndarray, n_classes: int,
                             params: GrowthParams,
                             rng: np.random.Generator | None = None) -> FlatTree:
    """Grow a histogram Gini classification tree; leaves hold class proportions."""
    y_idx = np.asarray(y_idx, dtype=np.int64)
    n_features = codes.shape[1]
    max_bins = max((len(e) for e in edges), default=0) + 1
    n_edges = np.asarray([len(e) for e in edges], dtype=np.int64)
    growth = _Growth(n_features, value_width=n_classes)

    def leaf_value(rows: np.ndarray) -> np.ndarray:
        if not len(rows):
            return np.full(n_classes, 1.0 / n_classes)
        counts = np.bincount(y_idx[rows], minlength=n_classes)
        return counts / len(rows)

    def find_split(rows: np.ndarray, depth: int):
        if depth >= params.max_depth or len(rows) < params.min_samples_split:
            return None
        counts = np.bincount(y_idx[rows], minlength=n_classes)
        if (counts > 0).sum() <= 1:                 # pure node
            return None
        features = _candidate_features(n_features, params, rng)
        return _best_gini_split(codes, rows, y_idx, n_classes, n_edges,
                                max_bins, params, features)

    def partition(rows: np.ndarray, feature: int, bin_idx: int):
        go_left = codes[rows, feature] <= bin_idx
        return rows[go_left], rows[~go_left]

    return _grow(growth, np.arange(len(codes)), edges, params,
                 find_split, partition, leaf_value)


def _grow(growth: _Growth, rows: np.ndarray, edges: list[np.ndarray],
          params: GrowthParams, find_split, partition, leaf_value) -> FlatTree:
    """Shared growth loop: depth-wise DFS or leaf-wise best-first."""
    root = growth.add(leaf_value(rows))
    if params.leaf_wise:
        _grow_leaf_wise(growth, root, rows, edges, params, find_split,
                        partition, leaf_value)
    else:
        _grow_depth_wise(growth, root, rows, edges, params, find_split,
                         partition, leaf_value)
    return growth.to_tree()


def _grow_depth_wise(growth, root, rows, edges, params, find_split,
                     partition, leaf_value) -> None:
    stack = [(root, rows, 0)]
    while stack:
        idx, node_rows, depth = stack.pop()
        split = find_split(node_rows, depth)
        if split is None:
            continue
        feature, bin_idx, _ = split
        left_rows, right_rows = partition(node_rows, feature, bin_idx)
        left = growth.add(leaf_value(left_rows))
        right = growth.add(leaf_value(right_rows))
        growth.split(idx, feature, float(edges[feature][bin_idx]), left, right)
        stack.append((right, right_rows, depth + 1))
        stack.append((left, left_rows, depth + 1))


def _grow_leaf_wise(growth, root, rows, edges, params, find_split,
                    partition, leaf_value) -> None:
    """Best-gain-first growth with a leaf budget (LightGBM's growth order)."""
    counter = 0                                    # tie-break: FIFO, keeps heap stable
    heap: list[tuple] = []

    def push(idx: int, node_rows: np.ndarray, depth: int) -> None:
        nonlocal counter
        split = find_split(node_rows, depth)
        if split is not None:
            heapq.heappush(heap, (-split[2], counter, idx, node_rows, depth, split))
            counter += 1

    push(root, rows, 0)
    n_leaves = 1
    budget = params.max_leaves if params.max_leaves is not None else np.inf
    while heap and n_leaves < budget:
        _, _, idx, node_rows, depth, (feature, bin_idx, _) = heapq.heappop(heap)
        left_rows, right_rows = partition(node_rows, feature, bin_idx)
        left = growth.add(leaf_value(left_rows))
        right = growth.add(leaf_value(right_rows))
        growth.split(idx, feature, float(edges[feature][bin_idx]), left, right)
        n_leaves += 1
        push(left, left_rows, depth + 1)
        push(right, right_rows, depth + 1)
