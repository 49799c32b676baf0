"""Tests for the account-centred subgraph dataset builder."""

import numpy as np
import pytest

from repro.chain import AccountCategory
from repro.data import (DatasetConfig, SubgraphDatasetBuilder, adjacency_blocks,
                        time_slice_blocks)

from tests._dense_reference import time_slice_adjacency_dense


class TestDatasetBuilder:
    def test_every_labelled_account_becomes_a_sample(self, small_ledger, small_dataset):
        labelled = {s.center for s in small_dataset.samples if s.category is not None}
        expected = {addr for addr, _ in small_ledger.labels.items()}
        assert labelled <= expected
        assert len(labelled) >= 0.9 * len(expected)

    def test_negative_samples_present(self, small_dataset):
        negatives = [s for s in small_dataset.samples if s.category is None]
        positives = [s for s in small_dataset.samples if s.category is not None]
        assert len(negatives) >= 0.5 * len(positives)

    def test_center_index_points_at_center(self, small_dataset):
        for sample in small_dataset.samples[:20]:
            assert sample.graph.nodes[sample.center_index] == sample.center

    def test_feature_matrix_width_is_15(self, small_dataset):
        for sample in small_dataset.samples[:20]:
            assert sample.node_features.shape == (sample.num_nodes, 15)

    @pytest.mark.parametrize("cap", [None, 0, -3, 2.5, True])
    def test_node_cap_must_be_a_positive_int(self, cap):
        """The cap bounds every dense form, so a config without one (or with
        one no sample can meet) fails at construction, not at the first
        sample."""
        with pytest.raises(ValueError, match="max_nodes_per_subgraph"):
            DatasetConfig(max_nodes_per_subgraph=cap)

    def test_max_nodes_respected(self, small_ledger):
        builder = SubgraphDatasetBuilder(
            small_ledger, DatasetConfig(top_k=40, max_nodes_per_subgraph=25))
        dataset = builder.build()
        assert all(s.num_nodes <= 25 for s in dataset.samples)

    def test_truncation_keeps_center(self, small_ledger):
        builder = SubgraphDatasetBuilder(
            small_ledger, DatasetConfig(top_k=40, max_nodes_per_subgraph=10))
        dataset = builder.build()
        for sample in dataset.samples:
            assert sample.graph.has_node(sample.center)

    def test_deterministic_given_seed(self, small_ledger):
        config = DatasetConfig(top_k=20, max_nodes_per_subgraph=20, seed=5)
        a = SubgraphDatasetBuilder(small_ledger, config).build()
        b = SubgraphDatasetBuilder(small_ledger, config).build()
        assert [s.center for s in a.samples] == [s.center for s in b.samples]


class TestAccountSubgraph:
    def test_adjacency_is_symmetric(self, small_dataset):
        sample = small_dataset.samples[0]
        adjacency = adjacency_blocks([sample.graph])[0]
        np.testing.assert_allclose(adjacency, adjacency.T)

    def test_node_edge_features_shape(self, small_dataset):
        sample = small_dataset.samples[0]
        assert sample.node_edge_features().shape == (sample.num_nodes, 2)

    def test_time_slices_match_node_count(self, small_dataset):
        sample = small_dataset.samples[0]
        slices = time_slice_blocks([sample.graph], 6)
        assert slices.shape == (6, 1, sample.num_nodes, sample.num_nodes)
        dense = time_slice_adjacency_dense(sample.graph, 6)
        for block, dense_slice in zip(slices, dense):
            np.testing.assert_array_equal(block[0], dense_slice)


class TestTasks:
    def test_binary_task_is_balanced(self, small_dataset):
        samples, labels = small_dataset.binary_task("exchange")
        assert labels.sum() == (labels == 0).sum()
        assert len(samples) == len(labels)

    def test_binary_task_positive_categories_match(self, small_dataset):
        samples, labels = small_dataset.binary_task(AccountCategory.MINING)
        for sample, label in zip(samples, labels):
            if label == 1:
                assert sample.category == "mining"
            else:
                assert sample.category != "mining"

    def test_binary_task_unknown_category_raises(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.binary_task("not-a-category")

    def test_binary_task_shuffles_deterministically(self, small_dataset):
        a = small_dataset.binary_task("defi", rng=np.random.default_rng(3))
        b = small_dataset.binary_task("defi", rng=np.random.default_rng(3))
        assert [s.center for s in a[0]] == [s.center for s in b[0]]

    def test_multiclass_task_covers_all_categories(self, small_dataset):
        _samples, labels, classes = small_dataset.multiclass_task()
        assert len(classes) == len(AccountCategory)
        assert set(labels) == set(range(len(AccountCategory)))

    def test_statistics_structure(self, small_dataset):
        stats = small_dataset.statistics()
        assert set(stats) == {c.value for c in AccountCategory}
        for row in stats.values():
            assert row["avg_nodes"] > 1
            assert row["avg_edges"] > 0
            assert row["num_graphs"] >= row["num_positive"]

    def test_feature_matrix_shape(self, small_dataset):
        assert small_dataset.feature_matrix().shape == (len(small_dataset), 15)

    def test_indexing_and_iteration(self, small_dataset):
        assert small_dataset[0] is small_dataset.samples[0]
        assert len(list(iter(small_dataset))) == len(small_dataset)
