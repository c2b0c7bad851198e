import numpy as np
import pytest

from statemerge import extraction
from statemerge.automata import Nfa, determinize, isomorphic, minimize
from statemerge.extraction import (MergePolicy, PrefixTree, build_prefix_tree,
                                   extract, merge_all, train_set_fidelity)
from statemerge.languages import ALPHABET
from statemerge.rnn import decisions, forward, init_model


def small_model(seed=0):
    return init_model(ALPHABET, 4, 8, np.random.default_rng(seed))


def random_strings(rng, count, max_len=8):
    out = []
    for _ in range(count):
        n = int(rng.integers(0, max_len + 1))
        out.append("".join(ALPHABET[i] for i in rng.integers(0, 2, size=n)))
    return out


class TestBuildPrefixTree:
    def test_single_string_path(self):
        tree = build_prefix_tree(small_model(), ["ab"])
        assert tree.n_states == 3
        assert tree.edges == {(0, "a"): 1, (1, "b"): 2}

    def test_shared_prefix(self):
        tree = build_prefix_tree(small_model(), ["ab", "aa"])
        assert tree.n_states == 4
        assert tree.edges[(0, "a")] == 1
        assert {tree.edges[(1, "a")], tree.edges[(1, "b")]} == {2, 3}

    def test_bfs_numbering(self):
        tree = build_prefix_tree(small_model(), ["ba", "ab"])
        # Level order with children in alphabet order: root, q_a, q_b, q_ab, q_ba.
        assert tree.edges[(0, "a")] == 1
        assert tree.edges[(0, "b")] == 2
        assert tree.edges[(1, "b")] == 3
        assert tree.edges[(2, "a")] == 4

    def test_labels_and_features_from_model(self):
        m = small_model()
        tree = build_prefix_tree(m, ["ab"])
        result = forward(m, "ab")
        assert tree.labels == decisions(m, "ab")
        for i in range(3):
            assert np.array_equal(tree.features[i], result.hidden[i])

    def test_tree_memorizes_own_prefixes(self, rng):
        m = small_model(3)
        strings = random_strings(rng, 30)
        tree = build_prefix_tree(m, strings)
        dfa = tree.as_dfa()
        for w in strings:
            preds = decisions(m, w)
            for i in range(len(w) + 1):
                assert dfa.accepts(w[:i]) == preds[i]

    def test_feature_determinism(self, rng):
        m = small_model(4)
        strings = random_strings(rng, 20)
        t1 = build_prefix_tree(m, strings)
        t2 = build_prefix_tree(m, list(strings))
        assert t1.edges == t2.edges
        assert all(np.array_equal(a, b) for a, b in zip(t1.features, t2.features))

    def test_rejects_bad_token(self):
        with pytest.raises(ValueError):
            build_prefix_tree(small_model(), ["ax"])


def toy_tree(labels, features, edges):
    return PrefixTree(ALPHABET, dict(edges), list(labels), np.array(features, dtype=float))


def merged_states(labels, features, kappa, edges=()):
    return merge_all(toy_tree(labels, features, edges), MergePolicy(kappa)).states


class TestShouldMerge:
    def test_similar_and_consistent(self):
        # States 1 and 2 agree; 2 folds into the lower BFS id.
        assert merged_states([False, True, True], [[0.0, 1.0], [1.0, 0.0], [0.999, 0.01]],
                             0.01) == {0, 1}

    def test_label_mismatch_blocks(self):
        assert merged_states([True, False], [[1.0, 0.0], [1.0, 0.0]], 0.5) == {0, 1}

    def test_dissimilar_blocks(self):
        assert merged_states([False, False], [[1.0, 0.0], [0.5, 0.866]], 0.01) == {0, 1}

    def test_zero_norm_never_similar(self, caplog):
        with caplog.at_level("WARNING", logger="statemerge.extraction"):
            states = merged_states([True] * 4, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                                   0.9)
        assert states == {0, 1, 2}
        assert "2 zero-norm features" in caplog.text

    def test_kappa_range_validated(self):
        with pytest.raises(ValueError):
            MergePolicy(0.0)
        with pytest.raises(ValueError):
            MergePolicy(1.0)


class TestMerge:
    def test_reroute_creates_self_loop(self):
        merged = merge_all(toy_tree([True, True], [[1, 0], [1, 0]], {(0, "a"): 1}),
                           MergePolicy(0.01))
        assert merged.transitions == {(0, "a"): {0}}
        assert merged.states == {0}

    def test_union_can_create_nondeterminism(self):
        tree = toy_tree([False, False, True, True], [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                        {(0, "a"): 1, (0, "b"): 2, (1, "b"): 3})
        merged = merge_all(tree, MergePolicy(0.01))
        assert merged.transitions == {(0, "a"): {0}, (0, "b"): {2, 3}}

    def test_survivor_keeps_own_feature(self):
        # 3 folds into 1 (cosine 0.906 > 0.85).  State 2 is as close to 3 as 3
        # is to 1, but 3 is dead and 1 is compared by its own feature
        # (cosine 0.643), so 2 survives.
        degrees = np.radians([0.0, 25.0, 50.0])
        on_circle = [[0.0, np.cos(d), np.sin(d)] for d in degrees]
        features = [[1.0, 0.0, 0.0], on_circle[0], on_circle[2], on_circle[1]]
        assert merged_states([True] * 4, features, 0.15) == {0, 1, 2}

    def test_root_survives_as_initial(self):
        # Every state agrees with the root, so all fold into it.
        tree = toy_tree([True] * 3, [[1.0, 0.0], [0.8, 0.6], [0.9, 0.1]],
                        {(0, "a"): 1, (1, "b"): 2})
        merged = merge_all(tree, MergePolicy(0.5))
        assert merged.initial == 0
        assert merged.states == {0}
        assert merged.accepting == {0}


def reference_merge(tree, kappa):
    """The same scan, applying each merge literally to (src, token, dst) triples."""
    feats = tree.features
    norms = np.linalg.norm(feats, axis=1)
    triples = {(src, token, dst) for (src, token), dst in tree.edges.items()}
    alive, initial = set(range(tree.n_states)), tree.root
    for q_i in range(tree.n_states - 1, -1, -1):
        for q_j in sorted(alive - {q_i}):
            if (tree.labels[q_i] == tree.labels[q_j] and norms[q_i] > 0 and norms[q_j] > 0
                    and feats[q_i] @ feats[q_j] / (norms[q_i] * norms[q_j]) > 1 - kappa):
                def sub(q): return q_j if q == q_i else q
                triples = {(sub(src), token, sub(dst)) for src, token, dst in triples}
                alive.discard(q_i)
                initial = sub(initial)
                break
    transitions = {}
    for src, token, dst in triples:
        transitions.setdefault((src, token), set()).add(dst)
    return Nfa(tree.alphabet, alive, initial, transitions, {q for q in alive if tree.labels[q]})


def random_tree(rng, n_states, dim=3):
    edges = {}
    for q in range(1, n_states):
        free = [(p, token) for p in range(q) for token in ALPHABET if (p, token) not in edges]
        edges[free[rng.integers(len(free))]] = q
    features = rng.normal(size=(n_states, dim))
    for q in range(1, n_states):
        kind = rng.random()
        if kind < 0.3:  # near-duplicate of an earlier row
            features[q] = features[rng.integers(q)] + 1e-6 * rng.normal(size=dim)
        elif kind < 0.4:
            features[q] = 0.0
    labels = [bool(x) for x in rng.integers(0, 2, size=n_states)]
    return PrefixTree(ALPHABET, edges, labels, features)


class TestMergeReference:
    # CELLS = 1 gives one row per block and 256 a few, so folds cross block seams.
    @pytest.mark.parametrize("cells", [extraction.CELLS, 256, 1])
    def test_matches_literal_merges_on_random_trees(self, rng, cells, monkeypatch):
        monkeypatch.setattr(extraction, "CELLS", cells)
        for _ in range(300):
            tree = random_tree(rng, int(rng.integers(1, 61)))
            kappa = float(rng.uniform(0.001, 0.999))
            assert merge_all(tree, MergePolicy(kappa)) == reference_merge(tree, kappa)


class TestMergeAll:
    def test_distinct_features_no_merge(self, rng):
        m = small_model(7)
        strings = random_strings(rng, 10)
        tree = build_prefix_tree(m, strings)
        merged = merge_all(tree, MergePolicy(1e-12))
        cos_max = _max_offdiag_cosine(tree)
        if cos_max <= 1 - 1e-12:
            assert len(merged.states) == tree.n_states
            assert merged.transitions == {k: {v} for k, v in tree.edges.items()}

    def test_high_tolerance_collapses_by_label(self):
        # All features closely aligned: only the label classes can survive.
        features = np.array([[1.0, 0.01 * i] for i in range(5)])
        tree = PrefixTree(ALPHABET,
                          {(0, "a"): 1, (0, "b"): 2, (1, "a"): 3, (1, "b"): 4},
                          [True, False, False, True, False], features)
        merged = merge_all(tree, MergePolicy(0.5))
        assert len(merged.states) == 2
        assert len(merged.accepting) == 1

    def test_path_preservation(self, rng):
        for trial in range(20):
            m = small_model(100 + trial)
            strings = random_strings(rng, 15)
            tree = build_prefix_tree(m, strings)
            kappa = float(rng.uniform(0.01, 0.8))
            merged = merge_all(tree, MergePolicy(kappa))
            for w in strings:
                current = {merged.initial}
                for token in w:
                    current = {d for s in current
                               for d in merged.transitions.get((s, token), ())}
                    assert current, f"path lost for {w!r} at kappa={kappa}"
                if decisions(m, w)[-1]:
                    assert current & merged.accepting

    def test_labels_preserved_under_merging(self, rng):
        m = small_model(9)
        tree = build_prefix_tree(m, random_strings(rng, 20))
        merged = merge_all(tree, MergePolicy(0.3))
        for state in merged.states:
            assert (state in merged.accepting) == tree.labels[state]


def _max_offdiag_cosine(tree):
    feats = tree.features
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    unit = feats / norms
    sims = unit @ unit.T
    np.fill_diagonal(sims, -1.0)
    return float(sims.max())


class TestExtract:
    def test_pipeline_monotonicity(self, rng):
        m = small_model(13)
        strings = random_strings(rng, 40)
        report = extract(m, strings, 0.05)
        trie, merged, minimized = report.sizes
        assert merged <= trie
        assert minimized <= report.determinized_size
        assert report.data_count == len(strings)

    def test_train_fidelity_counts_prefix_agreement(self, rng):
        m = small_model(17)
        strings = random_strings(rng, 25)
        tree = build_prefix_tree(m, strings)
        # The unmerged trie always agrees with itself.
        assert train_set_fidelity(tree.as_dfa(), tree) == 1.0

    def test_empty_strings_rejected(self):
        with pytest.raises(ValueError):
            extract(small_model(), [], 0.01)
