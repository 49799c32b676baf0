"""Tests for random walks, skip-gram and the walk-embedding models."""

import numpy as np
import pytest

from repro.embedding import (
    DeepWalk,
    Node2Vec,
    SkipGramModel,
    Trans2Vec,
    node2vec_walks,
    random_walks,
    trans2vec_walks,
)
from tests._dict_reference import build_graph, graph_with_nodes, neighbors


@pytest.fixture()
def two_cluster_graph():
    """Two dense 4-cliques joined by a single bridge edge."""
    rows = [(f"{cluster}{offset + i}", f"{cluster}{offset + j}", 1.0, 1, 100.0 + i)
            for cluster, offset in (("a", 0), ("b", 10))
            for i in range(4) for j in range(i + 1, 4)]
    return build_graph(rows + [("a0", "b10", 0.1, 1, 500.0)])


class TestWalks:
    def test_walks_start_at_every_node(self, toy_graph):
        walks = random_walks(toy_graph, walk_length=5, walks_per_node=2, seed=0)
        starts = {walk[0] for walk in walks}
        assert starts == set(toy_graph.nodes)
        assert len(walks) == 2 * toy_graph.num_nodes

    def test_walk_steps_follow_edges(self, toy_graph):
        for walk in random_walks(toy_graph, walk_length=6, walks_per_node=1, seed=1):
            for current, nxt in zip(walk, walk[1:]):
                assert nxt in neighbors(toy_graph, current)

    def test_walk_length_respected(self, toy_graph):
        walks = random_walks(toy_graph, walk_length=7, walks_per_node=1, seed=0)
        assert all(len(walk) <= 7 for walk in walks)

    def test_isolated_node_walk_has_length_one(self):
        g = graph_with_nodes(["solo"])
        walks = random_walks(g, walk_length=5, walks_per_node=1)
        assert walks == [["solo"]]

    def test_node2vec_low_q_explores_farther(self, two_cluster_graph):
        def mean_unique(walks):
            return np.mean([len(set(w)) for w in walks])

        dfs_like = node2vec_walks(two_cluster_graph, walk_length=10, walks_per_node=5,
                                  p=1.0, q=0.2, seed=0)
        bfs_like = node2vec_walks(two_cluster_graph, walk_length=10, walks_per_node=5,
                                  p=1.0, q=5.0, seed=0)
        assert mean_unique(dfs_like) >= mean_unique(bfs_like) - 0.5

    def test_node2vec_steps_follow_edges(self, toy_graph):
        for walk in node2vec_walks(toy_graph, walk_length=6, walks_per_node=1, seed=2):
            for current, nxt in zip(walk, walk[1:]):
                assert nxt in neighbors(toy_graph, current)

    def test_trans2vec_prefers_high_amount_edges(self):
        g = build_graph([("c", "rich", 1000.0, 1, 100.0),
                         ("c", "poor", 0.001, 1, 100.0)])
        walks = trans2vec_walks(g, walk_length=2, walks_per_node=200, amount_bias=1.0, seed=0)
        second_steps = [w[1] for w in walks if w[0] == "c" and len(w) > 1]
        assert second_steps.count("rich") > 0.9 * len(second_steps)

    def test_trans2vec_invalid_bias_raises(self, toy_graph):
        with pytest.raises(ValueError):
            trans2vec_walks(toy_graph, amount_bias=1.5)

    def test_walks_deterministic_given_seed(self, toy_graph):
        a = random_walks(toy_graph, walk_length=5, walks_per_node=2, seed=9)
        b = random_walks(toy_graph, walk_length=5, walks_per_node=2, seed=9)
        assert a == b


class TestSkipGram:
    def test_embedding_dimensions(self):
        walks = [["a", "b", "c", "a"], ["b", "c", "a", "b"]]
        model = SkipGramModel(dim=8, epochs=2, seed=0).fit(walks)
        assert model.embedding("a").shape == (8,)
        assert model.embeddings(["a", "b"]).shape == (2, 8)

    def test_out_of_vocabulary_is_zero_vector(self):
        model = SkipGramModel(dim=4, epochs=1).fit([["a", "b"]])
        np.testing.assert_allclose(model.embedding("zzz"), np.zeros(4))

    def test_unfitted_model_raises(self):
        with pytest.raises(RuntimeError):
            SkipGramModel().embedding("a")

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            SkipGramModel().fit([])

    def test_cooccurring_tokens_are_closer_than_non_cooccurring(self):
        # 'a' and 'b' always co-occur; 'x' and 'y' occur in a separate context.
        walks = [["a", "b"] * 10, ["x", "y"] * 10] * 20
        model = SkipGramModel(dim=16, window=2, epochs=3, seed=1).fit(walks)

        def cosine(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + 1e-12))

        close = cosine(model.embedding("a"), model.embedding("b"))
        far = cosine(model.embedding("a"), model.embedding("y"))
        assert close > far

    def test_embeddings_empty_list(self):
        model = SkipGramModel(dim=4, epochs=1).fit([["a", "b"]])
        assert model.embeddings([]).shape == (0, 4)


class TestEmbeddingModels:
    @pytest.mark.parametrize("model_cls", [DeepWalk, Node2Vec, Trans2Vec])
    def test_graph_embedding_shape(self, model_cls, toy_graph):
        model = model_cls(dim=8, walk_length=5, walks_per_node=2, epochs=1)
        assert model.embed_graph(toy_graph).shape == (8,)

    def test_embed_graphs_stacks(self, toy_graph):
        model = DeepWalk(dim=8, walk_length=5, walks_per_node=2, epochs=1)
        out = model.embed_graphs([toy_graph, toy_graph])
        assert out.shape == (2, 8)

    def test_embed_nodes_covers_all_nodes(self, toy_graph):
        model = DeepWalk(dim=8, walk_length=5, walks_per_node=2, epochs=1)
        vectors = model.embed_nodes(toy_graph)
        assert set(vectors) == set(toy_graph.nodes)

    def test_deterministic_given_seed(self, toy_graph):
        a = DeepWalk(dim=8, walk_length=5, walks_per_node=2, epochs=1, seed=4)
        b = DeepWalk(dim=8, walk_length=5, walks_per_node=2, epochs=1, seed=4)
        np.testing.assert_allclose(a.embed_graph(toy_graph), b.embed_graph(toy_graph))
