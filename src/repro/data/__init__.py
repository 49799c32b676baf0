"""Ethereum data processing: graph building, sampling, features and datasets.

Implements Section III of the paper: transaction filtering, top-K neighbour
sampling (Eq. 2), the 15-dimensional deep account features of Table I, edge
feature construction, the Global Static Graph / Local Dynamic Graph pair and
the transaction-evolution-time slicing of Eq. 1.
"""

from repro.data.features import (
    DeepFeatureExtractor,
    FEATURE_NAMES,
    FEATURE_GROUPS,
    category_feature_matrix,
)
from repro.data.pipeline import build_transaction_graph
from repro.data.dataset import (
    AccountSubgraph,
    SubgraphDataset,
    SubgraphDatasetBuilder,
    DatasetConfig,
)
from repro.data.slicing import (
    transaction_evolution_times,
    adjacency_blocks,
    time_slice_blocks,
)
from repro.data.splits import train_test_split, stratified_kfold, one_vs_rest_labels

__all__ = [
    "DeepFeatureExtractor",
    "FEATURE_NAMES",
    "FEATURE_GROUPS",
    "category_feature_matrix",
    "build_transaction_graph",
    "AccountSubgraph",
    "SubgraphDataset",
    "SubgraphDatasetBuilder",
    "DatasetConfig",
    "transaction_evolution_times",
    "adjacency_blocks",
    "time_slice_blocks",
    "train_test_split",
    "stratified_kfold",
    "one_vs_rest_labels",
]
