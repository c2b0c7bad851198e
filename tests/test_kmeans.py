"""Tests for the clustering baseline: Lloyd's algorithm and the DFA read-off."""

import importlib

import numpy as np
import pytest

from statemerge.automata import prefix_decisions
from statemerge.kmeans import (HiddenStateDataset, collect_hidden_states, kmeans,
                               kmeans_extract)
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
        assert len(data.next_token) == len(data.points)
        # kmeans_extract reads record 0 as the initial state: the empty prefix.
        first = forward(m, "ab")
        np.testing.assert_allclose(data.points[0], first.hidden[0], rtol=0, atol=1e-12)
        assert data.labels[0] == (first.yhat[0] > 0.5)

    def test_successor_links(self):
        m = small_model(0)
        strings = ["ab", "", "b"]
        data = collect_hidden_states(m, strings)
        # Record i + 1 follows record i on the token next_token[i]; -1 ends a string.
        assert data.next_token.tolist() == [0, 1, -1, -1, 1, -1]
        base = 0
        for w in strings:
            hidden = forward(m, w).hidden
            np.testing.assert_allclose(data.points[base:base + len(w) + 1], hidden,
                                       rtol=0, atol=1e-12)
            assert data.next_token[base + len(w)] == -1
            base += len(w) + 1
        assert base == len(data.points)

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


def reference_kmeans(points, k, rng, n_init=10):
    """kmeans with every point ranked against every centroid by the exact
    sum of squares over the (N, k, d) broadcast: the oracle for the ranking
    by the distance expansion."""
    best = None
    for _ in range(n_init):
        n = len(points)
        centroids = points[rng.choice(n, size=k, replace=False)].copy()
        assignments = np.full(n, -1)
        for _ in range(100):
            dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_assignments = dists.argmin(axis=1)
            point_dists = dists[np.arange(n), new_assignments]
            for c in range(k):
                members = new_assignments == c
                if members.any():
                    centroids[c] = points[members].mean(axis=0)
                else:
                    farthest = int(point_dists.argmax())
                    centroids[c] = points[farthest]
                    new_assignments[farthest] = c
                    point_dists[farthest] = 0.0
            if np.array_equal(new_assignments, assignments):
                break
            assignments = new_assignments
        dist = float(((points - centroids[assignments]) ** 2).sum())
        if best is None or dist < best[0]:
            best = (dist, assignments, centroids)
    return best[1], best[2]


def hidden_like_points(seed):
    """Points like saturated hidden states: tanh of wide normals, so many
    coordinates are exactly +-1, with whole rows duplicated, and k up to n."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 40)), int(rng.integers(1, 12))
    points = np.tanh(rng.normal(size=(n, d)) * rng.choice([0.5, 3.0, 30.0]))
    copies = rng.integers(0, n, size=int(rng.integers(0, n)))
    points[rng.integers(0, n, size=len(copies))] = points[copies]
    return points, int(rng.integers(1, n + 1))


class TestLloydReference:
    SEEDS = range(200)

    def test_matches_exact_ranking(self):
        for seed in self.SEEDS:
            points, k = hidden_like_points(seed)
            a, c = kmeans(points, k, np.random.default_rng(seed), n_init=3)
            ref_a, ref_c = reference_kmeans(points, k, np.random.default_rng(seed), n_init=3)
            assert np.array_equal(a, ref_a), seed
            assert np.array_equal(c, ref_c), seed

    def test_identical_seed_centroids_rank_as_exact_ties(self):
        # Seeding picks two identical points, so every row has two centroids
        # at one exact distance and the first iteration re-ranks every row.
        base = np.tanh(np.random.default_rng(5).normal(size=(6, 7)) * 3.0)
        points = np.concatenate([base, base, base])
        for seed in range(20):
            seeded = points[np.random.default_rng(seed).choice(len(points), size=9,
                                                               replace=False)]
            if len(np.unique(seeded, axis=0)) < len(seeded):
                break
        else:
            pytest.fail("no seed picks two identical points")
        a, c = kmeans(points, 9, np.random.default_rng(seed), n_init=1)
        ref_a, ref_c = reference_kmeans(points, 9, np.random.default_rng(seed), n_init=1)
        assert np.array_equal(a, ref_a)
        assert np.array_equal(c, ref_c)


class TestReadOff:
    """kmeans_extract's votes on a hand-built dataset and fixed clusters."""

    def extract(self, monkeypatch, labels, next_token, assignments, k):
        module = importlib.import_module("statemerge.kmeans")
        data = HiddenStateDataset(np.zeros((len(labels), 1)), np.array(labels),
                                  np.array(next_token))
        monkeypatch.setattr(module, "collect_hidden_states", lambda model, strings: data)
        monkeypatch.setattr(module, "kmeans",
                            lambda points, k, rng: (np.array(assignments), None))
        return kmeans_extract(small_model(0), ["unused"], k, np.random.default_rng(0))

    def test_acceptance_tie_rejects(self, monkeypatch):
        # Records of "a": the empty prefix accepted, "a" rejected, one cluster.
        dfa = self.extract(monkeypatch, [True, False], [0, -1], [0, 0], 1)
        assert not dfa.accepts("") and not dfa.accepts("a")

    def test_acceptance_majority_accepts(self, monkeypatch):
        dfa = self.extract(monkeypatch, [True, False, True], [0, 1, -1], [0, 0, 0], 1)
        assert dfa.accepts("") and dfa.accepts("ab")

    @pytest.mark.parametrize("assignments, accepts_a", [
        ([0, 2, 0, 1], True),    # the lower id, accepting, wins the tie
        ([0, 1, 0, 2], False),   # the lower id, rejecting, wins the tie
    ])
    def test_transition_tie_goes_to_lowest_cluster(self, monkeypatch, assignments,
                                                   accepts_a):
        # Two strings "a": cluster 0 reads a once into each of clusters 1 and 2;
        # only the second string's "a" record is accepted.
        dfa = self.extract(monkeypatch, [False, False, False, True], [0, -1, 0, -1],
                           assignments, 3)
        assert dfa.accepts("a") == accepts_a


class TestKmeansExtract:
    STRINGS = ["", "a", "b", "ab", "ba", "aab", "bba", "abab"]

    def test_returns_runnable_dfa(self):
        m = small_model(1)
        dfa = kmeans_extract(m, self.STRINGS, 4, np.random.default_rng(0))
        assert dfa.alphabet == m.alphabet
        for w in self.STRINGS:
            assert len(prefix_decisions(dfa, w)) == len(w) + 1

    def test_deterministic_given_seed(self):
        m = small_model(2)
        d1 = kmeans_extract(m, self.STRINGS, 5, np.random.default_rng(9))
        d2 = kmeans_extract(m, self.STRINGS, 5, np.random.default_rng(9))
        assert d1 == d2

    def test_single_cluster_gives_one_state(self):
        m = small_model(3)
        dfa = kmeans_extract(m, self.STRINGS, 1, np.random.default_rng(0))
        assert len(dfa.states) == 1
