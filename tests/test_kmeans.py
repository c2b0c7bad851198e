"""Tests for the clustering baseline: Lloyd's algorithm and the DFA read-off."""

import dataclasses
import importlib

import numpy as np
import pytest

from statemerge.automata import prefix_decisions
from statemerge.extraction import build_prefix_tree
from statemerge.harness import extraction_strings
from statemerge.kmeans import kmeans, kmeans_extract
from statemerge.rnn import _accepts, forward, init_model

from conftest import as_samples, fixture_model


# The module: the package attribute statemerge.kmeans is the function.
kmeans_module = importlib.import_module("statemerge.kmeans")


def small_model(seed, d=8):
    return init_model(("a", "b"), 4, d, np.random.default_rng(seed))


class TestCollectHiddenStates:
    """The records kmeans_extract clusters: one per visited prefix position,
    a string's records in order, the first string's empty prefix first."""

    @staticmethod
    def records(monkeypatch, model, strings):
        """(points clustered, raw machine read off) with every record in a
        cluster of its own, so cluster i is record i."""
        seen = {}

        def one_cluster_each(features, visits, k, rng):
            seen["points"] = features[visits]
            return np.arange(len(visits)), None

        monkeypatch.setattr(kmeans_module, "kmeans", one_cluster_each)
        monkeypatch.setattr(kmeans_module, "minimize", lambda dfa: dfa)
        n = sum(len(w) + 1 for w in strings)
        tree = build_prefix_tree(model, as_samples(strings))
        dfa = kmeans_extract(tree, n, np.random.default_rng(0))
        return seen["points"], dfa

    def test_record_count(self, monkeypatch):
        m = small_model(0)
        points, dfa = self.records(monkeypatch, m, ["ab", "a", ""])
        # One record per prefix position, including the empty prefix.
        assert len(points) == 3 + 2 + 1
        # Record 0, the empty prefix of "ab", is the initial state.
        first = forward(m, "ab")
        np.testing.assert_allclose(points[0], first.hidden[0], rtol=0, atol=1e-12)
        assert dfa.initial == 0
        assert (0 in dfa.accepting) == (first.yhat[0] > 0.5)

    def test_successor_links(self, monkeypatch):
        m = small_model(0)
        strings = ["ab", "", "b"]
        points, dfa = self.records(monkeypatch, m, strings)
        # Record i + 1 follows record i on the string's next token, and no
        # record follows a string's last one.
        assert dfa.transitions == {(0, "a"): 1, (1, "b"): 2, (4, "b"): 5}
        base = 0
        for w in strings:
            result = forward(m, w)
            np.testing.assert_allclose(points[base:base + len(w) + 1], result.hidden,
                                       rtol=0, atol=1e-12)
            accepted = [q in dfa.accepting for q in range(base, base + len(w) + 1)]
            assert accepted == _accepts(result.yhat).tolist()
            base += len(w) + 1
        assert base == len(points)

    def test_points_are_tree_states_per_occurrence(self, monkeypatch):
        m = small_model(0)
        strings = ["ab", "a", "ab", "", "b", "ab"]
        points, dfa = self.records(monkeypatch, m, strings)
        tree = build_prefix_tree(m, as_samples(strings))
        states = [tree.state_of(w[:i]) for w in strings for i in range(len(w) + 1)]
        assert len(points) == len(states) == 14
        assert np.array_equal(points, tree.features[states])
        assert [q in dfa.accepting for q in range(len(states))] == [tree.labels[q]
                                                                   for q in states]



def kmeans_all(points, k, rng):
    """kmeans with every point a row of its own."""
    return kmeans(points, np.arange(len(points)), k, rng)


class TestKmeans:
    def test_single_cluster_centroid_is_mean(self, rng):
        points = rng.normal(size=(20, 3))
        assignments, centroids = kmeans_all(points, 1, rng)
        assert (assignments == 0).all()
        assert np.allclose(centroids[0], points.mean(axis=0))

    def test_k_equals_n_zero_distortion(self, rng):
        points = rng.normal(size=(6, 2))
        assignments, centroids = kmeans_all(points, 6, rng)
        assert sorted(assignments) == list(range(6))
        assert np.allclose(centroids[assignments], points)

    def test_recovers_separated_clusters(self, rng):
        low = rng.normal(size=(15, 2)) * 0.1
        high = rng.normal(size=(15, 2)) * 0.1 + 10.0
        points = np.concatenate([low, high])
        assignments, _ = kmeans_all(points, 2, rng)
        assert len(set(assignments[:15])) == 1
        assert len(set(assignments[15:])) == 1
        assert assignments[0] != assignments[15]

    def test_deterministic_given_seed(self):
        points = np.random.default_rng(7).normal(size=(30, 4))
        a1, c1 = kmeans_all(points, 5, np.random.default_rng(3))
        a2, c2 = kmeans_all(points, 5, np.random.default_rng(3))
        assert np.array_equal(a1, a2)
        assert np.array_equal(c1, c2)

    def test_no_empty_clusters_with_duplicate_points(self, rng):
        points = np.zeros((5, 2))
        assignments, _ = kmeans_all(points, 2, rng)
        assert set(assignments) == {0, 1}

    def test_bad_k_rejected(self, rng):
        points = rng.normal(size=(4, 2))
        with pytest.raises(ValueError):
            kmeans_all(points, 0, rng)
        with pytest.raises(ValueError):
            kmeans_all(points, 5, rng)

    def test_restarts_never_worse_than_single_run(self, monkeypatch):
        points = np.random.default_rng(11).normal(size=(60, 3))

        def distortion(a, c):
            return float(((points - c[a]) ** 2).sum())

        for seed in range(5):
            multi = distortion(*kmeans_all(points, 6, np.random.default_rng(seed)))
            with monkeypatch.context() as patch:
                patch.setattr(kmeans_module, "N_INIT", 1)
                single = distortion(*kmeans_all(points, 6, np.random.default_rng(seed)))
            assert multi <= single + 1e-9


def reference_kmeans(points, k, rng, n_init=10, reseeds=None, iterations=100):
    """kmeans with every point ranked against every centroid by the exact
    sum of squares over the (N, k, d) broadcast, and the best restart chosen
    by the exact distortion: the oracle for the ranking by the distance
    expansion, for ranking distinct rows only and for reading distortions
    from the table.  Each restart stops after at most iterations Lloyd
    steps.  Each reseed of an empty cluster appends (its cluster id, the
    cluster it takes its point from) to reseeds, if given."""
    best = None
    for _ in range(n_init):
        n = len(points)
        centroids = points[rng.choice(n, size=k, replace=False)].copy()
        assignments = np.full(n, -1)
        for _ in range(iterations):
            dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_assignments = dists.argmin(axis=1)
            point_dists = dists[np.arange(n), new_assignments]
            for c in range(k):
                members = new_assignments == c
                if members.any():
                    centroids[c] = points[members].mean(axis=0)
                else:
                    farthest = int(point_dists.argmax())
                    if reseeds is not None:
                        reseeds.append((c, int(new_assignments[farthest])))
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


def mirrored_points(seed):
    """Saturated rows and their mirror images, each row with its coordinates
    reversed: a clustering and its mirror image have one distortion in
    exact arithmetic, and float sums over the two differ in the last bits."""
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(2, 20)), int(rng.integers(2, 8))
    rows = np.tanh(rng.normal(size=(m, d)) * rng.choice([0.5, 3.0, 30.0]))
    return np.concatenate([rows, rows[:, ::-1]]), int(rng.integers(2, min(2 * m, 12) + 1))


class TestLloydReference:
    SEEDS = range(200)

    def assert_matches_reference(self, monkeypatch, sets, iterations=100, reseeds=None):
        """kmeans at 3 restarts of at most iterations steps each gives the
        oracle's bits on sets(seed), for every seed."""
        monkeypatch.setattr(kmeans_module, "N_INIT", 3)
        monkeypatch.setattr(kmeans_module, "MAX_LLOYD_ITERATIONS", iterations)
        for seed in self.SEEDS:
            points, k = sets(seed)
            a, c = kmeans_all(points, k, np.random.default_rng(seed))
            ref_a, ref_c = reference_kmeans(points, k, np.random.default_rng(seed), n_init=3,
                                            reseeds=reseeds, iterations=iterations)
            assert np.array_equal(a, ref_a), seed
            assert np.array_equal(c, ref_c), seed

    def test_matches_exact_ranking(self, monkeypatch):
        reseeds = []
        self.assert_matches_reference(monkeypatch, hidden_like_points, reseeds=reseeds)
        # Empty clusters came up and were reseeded as the oracle reseeds them:
        # the empty-cluster gate saw every one.  Some reseeds took their point
        # from a later cluster, whose mean the same iteration recomputes, and
        # some from an earlier one, whose mean waits for the next iteration.
        assert any(loser > c for c, loser in reseeds)
        assert any(loser < c for c, loser in reseeds)

    @pytest.mark.parametrize("iterations", [1, 2])
    def test_matches_exact_ranking_when_restarts_stop_unconverged(self, monkeypatch,
                                                                 iterations):
        # The restarts stop at the cap, all of them at 1 and most at 2, with
        # centroids the last step moved: the table holds distances to the
        # centroids before it, so their distortion must come from the exact sum.
        self.assert_matches_reference(monkeypatch, hidden_like_points, iterations)

    def test_mirror_symmetric_sets(self, monkeypatch):
        # Restarts that converge to mirror images of one clustering tie
        # within the table's margin, so the exact sums pick the best.
        self.assert_matches_reference(monkeypatch, mirrored_points)

    def test_identical_seed_centroids_rank_as_exact_ties(self, monkeypatch):
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
        monkeypatch.setattr(kmeans_module, "N_INIT", 1)
        a, c = kmeans_all(points, 9, np.random.default_rng(seed))
        ref_a, ref_c = reference_kmeans(points, 9, np.random.default_rng(seed), n_init=1)
        assert np.array_equal(a, ref_a)
        assert np.array_equal(c, ref_c)


def test_seed_sets_drawn_first_in_restart_order():
    # The restarts' seed sets are all the draws kmeans makes: N_INIT
    # choices of k distinct positions, one after another.
    points, k = hidden_like_points(3)
    rng = np.random.default_rng(17)
    kmeans_all(points, k, rng)
    expected = np.random.default_rng(17)
    for _ in range(kmeans_module.N_INIT):
        expected.choice(len(points), size=k, replace=False)
    assert rng.bit_generator.state == expected.bit_generator.state


def assert_matches_all_points(features, visits, k, seed, n_init, reseeds=None):
    """kmeans over the rows of features scattered through visits gives the
    bits of the all-points oracle on features[visits]."""
    a, c = kmeans(features, visits, k, np.random.default_rng(seed))
    ref_a, ref_c = reference_kmeans(features[visits], k, np.random.default_rng(seed),
                                    n_init=n_init, reseeds=reseeds)
    assert np.array_equal(a, ref_a), seed
    assert np.array_equal(c, ref_c), seed


class TestDistinctRows:
    """kmeans(features, visits, ...) against the all-points oracle."""

    def test_distinct_rows_and_inverse(self, monkeypatch):
        monkeypatch.setattr(kmeans_module, "N_INIT", 3)
        for seed in range(60):
            points, k = hidden_like_points(seed)
            rows, inverse = np.unique(points, axis=0, return_inverse=True)
            assert np.array_equal(rows[inverse], points)
            assert_matches_all_points(rows, inverse, k, seed, n_init=3)

    def test_equal_rows_under_different_ids(self, monkeypatch):
        # Each distinct row is stored under several ids, and the visits reach
        # every copy, so equal points arrive through different rows.
        monkeypatch.setattr(kmeans_module, "N_INIT", 3)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            rows, _ = hidden_like_points(seed)
            table = rows[rng.integers(0, len(rows), size=2 * len(rows))]
            visits = rng.integers(0, len(table), size=int(rng.integers(len(table), 80)))
            k = int(rng.integers(1, len(np.unique(table[visits], axis=0)) + 1))
            assert_matches_all_points(table, visits, k, seed, n_init=3)

    def test_heavy_repetition_reseeds(self, monkeypatch):
        # A few rows visited many times each, with k close to the number of
        # distinct rows: the seed draw picks copies of one row, so clusters
        # come up empty and are reseeded.
        monkeypatch.setattr(kmeans_module, "N_INIT", 2)
        reseeds = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            rows = np.tanh(rng.normal(size=(int(rng.integers(3, 9)), 5)) * 3.0)
            visits = rng.integers(0, len(rows), size=int(rng.integers(30, 120)))
            k = max(1, len(np.unique(visits)) - int(rng.integers(0, 2)))
            assert_matches_all_points(rows, visits, k, seed, n_init=2, reseeds=reseeds)
        assert len(reseeds) > 0

    def test_saturated_tree(self, monkeypatch):
        # The benchmark's Tomita 6 fixture: its tree states are visited about
        # three times each, and many are equal to the last bit.
        tree = build_prefix_tree(fixture_model(6), extraction_strings(6, 100, 10, 0))
        assert len(tree.visits) > 2 * tree.n_states
        monkeypatch.setattr(kmeans_module, "N_INIT", 2)
        assert_matches_all_points(tree.features, tree.visits, 20, 0, n_init=2)


class TestReadOff:
    """kmeans_extract's votes on a hand-labelled tree and fixed clusters."""

    def extract(self, monkeypatch, strings, decisions, assignments, k):
        """Read off the machine of the tree of strings, each state labelled
        with decisions[its prefix], one cluster per position of the visits."""
        tree = build_prefix_tree(small_model(0), as_samples(strings))
        labels = {tree.state_of(w[:i]): decisions[w[:i]]
                  for w in strings for i in range(len(w) + 1)}
        tree = dataclasses.replace(
            tree, labels=np.array([labels[q] for q in range(tree.n_states)]))
        monkeypatch.setattr(kmeans_module, "kmeans",
                            lambda features, visits, k, rng: (np.array(assignments), None))
        return kmeans_extract(tree, k, np.random.default_rng(0))

    def test_acceptance_tie_rejects(self, monkeypatch):
        # Positions of "a": the empty prefix accepted, "a" rejected, one cluster.
        dfa = self.extract(monkeypatch, ["a"], {"": True, "a": False}, [0, 0], 1)
        assert not dfa.accepts("") and not dfa.accepts("a")

    def test_acceptance_majority_accepts(self, monkeypatch):
        dfa = self.extract(monkeypatch, ["ab"], {"": True, "a": False, "ab": True},
                           [0, 0, 0], 1)
        assert dfa.accepts("") and dfa.accepts("ab")

    @pytest.mark.parametrize("assignments, accepts_a", [
        ([0, 2, 0, 0, 1], True),    # the lower id, accepting, wins the tie
        ([0, 1, 0, 0, 2], False),   # the lower id, rejecting, wins the tie
    ])
    def test_transition_tie_goes_to_lowest_cluster(self, monkeypatch, assignments,
                                                   accepts_a):
        # Positions of "a" and "ba": cluster 0 holds the empty prefix and "b",
        # and reads a once into each of clusters 1 and 2, from the empty
        # prefix into "a" and from "b" into "ba"; only "ba" is accepted.
        dfa = self.extract(monkeypatch, ["a", "ba"],
                           {"": False, "a": False, "b": False, "ba": True}, assignments, 3)
        assert dfa.accepts("a") == accepts_a


class TestKmeansExtract:
    STRINGS = ["", "a", "b", "ab", "ba", "aab", "bba", "abab"]

    def test_returns_runnable_dfa(self):
        m = small_model(1)
        tree = build_prefix_tree(m, as_samples(self.STRINGS))
        dfa = kmeans_extract(tree, 4, np.random.default_rng(0))
        assert dfa.alphabet == m.alphabet
        for w in self.STRINGS:
            assert len(prefix_decisions(dfa, w)) == len(w) + 1

    def test_deterministic_given_seed(self):
        tree = build_prefix_tree(small_model(2), as_samples(self.STRINGS))
        d1 = kmeans_extract(tree, 5, np.random.default_rng(9))
        d2 = kmeans_extract(tree, 5, np.random.default_rng(9))
        assert d1 == d2

    def test_single_cluster_gives_one_state(self):
        tree = build_prefix_tree(small_model(3), as_samples(self.STRINGS))
        dfa = kmeans_extract(tree, 1, np.random.default_rng(0))
        assert len(dfa.states) == 1
