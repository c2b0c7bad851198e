"""Tests for the clustering baseline: Lloyd's algorithm and the DFA read-off."""

import numpy as np
import pytest

from statemerge.automata import run
from statemerge.kmeans import collect_hidden_states, kmeans, kmeans_extract
from statemerge.rnn import forward, init_model


def small_model(seed, d=8):
    return init_model(("a", "b"), 4, d, np.random.default_rng(seed))


class TestCollectHiddenStates:
    def test_record_count(self):
        m = small_model(0)
        data = collect_hidden_states(m, ["ab", "a", ""])
        # One record per prefix position, including the empty prefix.
        assert len(data.points) == 3 + 2 + 1
        assert len(data.labels) == len(data.points)
        assert len(data.successor) == len(data.points)
        # kmeans_extract reads record 0 as the initial state: the empty prefix.
        first = forward(m, "ab")
        np.testing.assert_allclose(data.points[0], first.hidden[0], rtol=0, atol=1e-12)
        assert data.labels[0] == (first.yhat[0] > 0.5)

    def test_successor_links(self):
        m = small_model(0)
        data = collect_hidden_states(m, ["ab"])
        assert data.successor[0] == (0, "a", 1)
        assert data.successor[1] == (1, "b", 2)
        assert data.successor[2] is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            collect_hidden_states(small_model(0), [])


class TestKmeans:
    def test_single_cluster_centroid_is_mean(self, rng):
        points = rng.normal(size=(20, 3))
        assignments, centroids = kmeans(points, 1, rng)
        assert (assignments == 0).all()
        assert np.allclose(centroids[0], points.mean(axis=0))

    def test_k_equals_n_zero_distortion(self, rng):
        points = rng.normal(size=(6, 2))
        assignments, centroids = kmeans(points, 6, rng)
        assert sorted(assignments) == list(range(6))
        assert np.allclose(centroids[assignments], points)

    def test_recovers_separated_clusters(self, rng):
        low = rng.normal(size=(15, 2)) * 0.1
        high = rng.normal(size=(15, 2)) * 0.1 + 10.0
        points = np.concatenate([low, high])
        assignments, _ = kmeans(points, 2, rng)
        assert len(set(assignments[:15])) == 1
        assert len(set(assignments[15:])) == 1
        assert assignments[0] != assignments[15]

    def test_deterministic_given_seed(self):
        points = np.random.default_rng(7).normal(size=(30, 4))
        a1, c1 = kmeans(points, 5, np.random.default_rng(3))
        a2, c2 = kmeans(points, 5, np.random.default_rng(3))
        assert np.array_equal(a1, a2)
        assert np.array_equal(c1, c2)

    def test_no_empty_clusters_with_duplicate_points(self, rng):
        points = np.zeros((5, 2))
        assignments, _ = kmeans(points, 2, rng)
        assert set(assignments) == {0, 1}

    def test_bad_k_rejected(self, rng):
        points = rng.normal(size=(4, 2))
        with pytest.raises(ValueError):
            kmeans(points, 0, rng)
        with pytest.raises(ValueError):
            kmeans(points, 5, rng)
        with pytest.raises(ValueError):
            kmeans(points, 2, rng, n_init=0)

    def test_restarts_never_worse_than_single_run(self):
        points = np.random.default_rng(11).normal(size=(60, 3))

        def distortion(a, c):
            return float(((points - c[a]) ** 2).sum())

        for seed in range(5):
            single = distortion(*kmeans(points, 6, np.random.default_rng(seed), n_init=1))
            multi = distortion(*kmeans(points, 6, np.random.default_rng(seed), n_init=10))
            assert multi <= single + 1e-9


class TestKmeansExtract:
    STRINGS = ["", "a", "b", "ab", "ba", "aab", "bba", "abab"]

    def test_returns_runnable_dfa(self):
        m = small_model(1)
        dfa = kmeans_extract(m, self.STRINGS, 4, np.random.default_rng(0))
        assert dfa.alphabet == m.alphabet
        for w in self.STRINGS:
            run(dfa, w)

    def test_deterministic_given_seed(self):
        m = small_model(2)
        d1 = kmeans_extract(m, self.STRINGS, 5, np.random.default_rng(9))
        d2 = kmeans_extract(m, self.STRINGS, 5, np.random.default_rng(9))
        assert d1 == d2

    def test_single_cluster_gives_one_state(self):
        m = small_model(3)
        dfa = kmeans_extract(m, self.STRINGS, 1, np.random.default_rng(0))
        assert len(dfa.states) == 1
