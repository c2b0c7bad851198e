import tracemalloc

import numpy as np
import pytest

from statemerge import extraction, rnn
from statemerge.automata import AlphabetError, Dfa, Nfa, prefix_decisions
from statemerge.extraction import (build_prefix_tree, extract, machine_verdicts, merge_all,
                                   train_set_fidelity)
from statemerge.harness import extraction_strings
from statemerge.languages import ALPHABET, Samples, gold_dfa
from statemerge.rnn import forward, init_model

from conftest import (as_samples, edges_of, edges_train_set_fidelity, fixture_model, pairs,
                      per_edge_merge_all, random_dfa, string_keyed_prefix_tree, trie)


def small_model(seed=0):
    return init_model(ALPHABET, 4, 8, np.random.default_rng(seed))


def trie_dfa(tree):
    """The unmerged trie as a machine: each state accepts by its label."""
    return Dfa(tree.alphabet, set(range(tree.n_states)), 0, edges_of(tree),
               {q for q, acc in enumerate(tree.labels) if acc})


def random_strings(rng, count, max_len=8):
    out = []
    for _ in range(count):
        n = int(rng.integers(0, max_len + 1))
        out.append("".join(ALPHABET[i] for i in rng.integers(0, 2, size=n)))
    return out


class TestBuildPrefixTree:
    def test_single_string_path(self):
        tree = build_prefix_tree(small_model(), as_samples(["ab"]))
        assert tree.n_states == 3
        assert edges_of(tree) == {(0, "a"): 1, (1, "b"): 2}
        assert tree.parents.tolist() == [0, 0, 1]
        assert tree.tokens.tolist() == [2, 0, 1]  # the root's token is bos
        assert tree.levels.tolist() == [0, 1, 2, 3]

    def test_shared_prefix(self):
        tree = build_prefix_tree(small_model(), as_samples(["ab", "aa"]))
        assert tree.n_states == 4
        edges = edges_of(tree)
        assert edges[(0, "a")] == 1
        assert {edges[(1, "a")], edges[(1, "b")]} == {2, 3}
        assert tree.levels.tolist() == [0, 1, 2, 4]

    def test_bfs_numbering(self):
        tree = build_prefix_tree(small_model(), as_samples(["ba", "ab"]))
        # Level order with children in alphabet order: root, q_a, q_b, q_ab, q_ba.
        assert edges_of(tree) == {(0, "a"): 1, (0, "b"): 2, (1, "b"): 3, (2, "a"): 4}
        assert [tree.state_of(p) for p in ("", "a", "b", "ab", "ba", "aa", "abb")] == [
            0, 1, 2, 3, 4, None, None]

    def test_bfs_numbering_follows_model_alphabet(self):
        m = init_model(("b", "a"), 4, 8, np.random.default_rng(0))
        tree = build_prefix_tree(m, as_samples(["ab", "ba"], m.alphabet))
        # Children in the model's alphabet order: root, q_b, q_a, q_ba, q_ab.
        assert edges_of(tree) == {(0, "b"): 1, (0, "a"): 2, (1, "a"): 3, (2, "b"): 4}

    def test_one_step_per_level_and_no_forward(self, monkeypatch):
        m = small_model(5)
        strings = ["abab", "ab", "abba", "abab", "a", "", "bbb"]
        expected = string_keyed_prefix_tree(m, strings)
        steps = []
        step = rnn._step

        def counted(*args):
            steps.append(len(args[1]))
            return step(*args)

        def refuse(*args):
            raise AssertionError("build_prefix_tree called forward")

        monkeypatch.setattr(rnn, "_step", counted)
        monkeypatch.setattr(rnn, "forward", refuse)
        tree = build_prefix_tree(m, as_samples(strings))
        assert_same_tree(tree, expected)
        # Levels: the root; a, b; ab, bb; aba, abb, bbb; abab, abba.
        assert steps == [1, 2, 2, 3, 2]

    def test_labels_and_features_from_model(self):
        m = small_model()
        tree = build_prefix_tree(m, as_samples(["ab"]))
        result = forward(m, "ab")
        assert tree.labels.tolist() == rnn._accepts(result.yhat).tolist()
        for i in range(3):
            assert np.array_equal(tree.features[i], result.hidden[i])

    def test_tree_memorizes_own_prefixes(self, rng):
        m = small_model(3)
        strings = random_strings(rng, 30)
        tree = build_prefix_tree(m, as_samples(strings))
        dfa = trie_dfa(tree)
        for w in strings:
            preds = rnn._accepts(forward(m, w).yhat)
            for i in range(len(w) + 1):
                assert dfa.accepts(w[:i]) == preds[i]

    def test_feature_determinism(self, rng):
        m = small_model(4)
        strings = random_strings(rng, 20)
        t1 = build_prefix_tree(m, as_samples(strings))
        t2 = build_prefix_tree(m, as_samples(strings))
        assert edges_of(t1) == edges_of(t2)
        assert all(np.array_equal(a, b) for a, b in zip(t1.features, t2.features))

    def test_rejects_bad_token(self):
        # Token id 2 is bos, and the padding: "a" then a third token.
        bad = Samples(np.array([[0, 2]], dtype=np.uint8), np.array([2]), np.zeros((1, 3), bool))
        with pytest.raises(ValueError, match="alphabet size 2"):
            build_prefix_tree(small_model(), bad)

    def test_visits_count_each_occurrence(self):
        tree = build_prefix_tree(small_model(), as_samples(["ab", "", "ab", "b"]))
        # States: root 0, a 1, b 2, ab 3.
        assert tree.visits.tolist() == [0, 1, 3, 0, 0, 1, 3, 0, 2]


def assert_same_tree(tree, expected):
    """Numbering, labels and visits equal; features equal up to the last bits,
    which the level batches may round differently from per-length batches."""
    assert tree.alphabet == expected.alphabet
    for field in ("parents", "tokens", "levels", "visits", "labels"):
        assert getattr(tree, field).tolist() == getattr(expected, field).tolist(), field
    assert tree.features.shape == expected.features.shape
    np.testing.assert_allclose(tree.features, expected.features, rtol=0, atol=1e-12)


class TestPrefixTreeOracle:
    """build_prefix_tree against the earlier string-keyed builder."""

    def test_random_tiny_models(self):
        rng = np.random.default_rng(21)
        for trial in range(40):
            alphabet = ("a", "b") if trial % 2 else ("b", "a")
            m = init_model(alphabet, 3, 5, rng)
            strings = random_strings(rng, int(rng.integers(1, 25)))
            strings += [strings[i] for i in rng.integers(0, len(strings), size=3)] + [""]
            strings = [strings[i] for i in rng.permutation(len(strings))]
            assert_same_tree(build_prefix_tree(m, as_samples(strings, alphabet)),
                             string_keyed_prefix_tree(m, strings))

    def test_only_empty_strings(self):
        m = small_model(2)
        assert_same_tree(build_prefix_tree(m, as_samples(["", ""])),
                         string_keyed_prefix_tree(m, ["", ""]))

    @pytest.mark.parametrize("language", range(1, 8))
    def test_fixture_models(self, language):
        m = fixture_model(language)
        samples = extraction_strings(language, 150, 15, 0)
        assert_same_tree(build_prefix_tree(m, samples),
                         string_keyed_prefix_tree(m, [s.x for s in pairs(samples)]))


def toy_tree(labels, features, edges=None):
    """A hand-made tree; by default a chain on "a", state q + 1 the child of q."""
    if edges is None:
        edges = {(q, "a"): q + 1 for q in range(len(labels) - 1)}
    return trie(edges, labels, features)


def merged_states(labels, features, kappa, edges=None):
    return merge_all(toy_tree(labels, features, edges), kappa).states


class TestShouldMerge:
    def test_similar_and_consistent(self):
        # States 1 and 2 agree; 2 folds into the lower BFS id.
        assert merged_states([False, True, True], [[0.0, 1.0], [1.0, 0.0], [0.999, 0.01]],
                             0.01) == {0, 1}

    def test_label_mismatch_blocks(self):
        assert merged_states([True, False], [[1.0, 0.0], [1.0, 0.0]], 0.5) == {0, 1}

    def test_dissimilar_blocks(self):
        assert merged_states([False, False], [[1.0, 0.0], [0.5, 0.866]], 0.01) == {0, 1}

    def test_threshold_is_strict(self):
        # cos((1, 0), (3, 4)) = 0.6, exactly 1 - 0.4 in float64: not above
        # the threshold, so the states stay apart; a hair more kappa merges them.
        assert 3 / 5 == 1 - 0.4
        features = [[1.0, 0.0], [3.0, 4.0]]
        assert merged_states([True, True], features, 0.4, {(0, "a"): 1}) == {0, 1}
        assert merged_states([True, True], features, 0.41, {(0, "a"): 1}) == {0}

    def test_zero_norm_never_similar(self, caplog):
        with caplog.at_level("WARNING", logger="statemerge.extraction"):
            states = merged_states([True] * 4, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                                   0.9)
        assert states == {0, 1, 2}
        assert "2 zero-norm features" in caplog.text

    def test_kappa_range_validated(self):
        for kappa in (0.0, 1.0):
            with pytest.raises(ValueError):
                merged_states([True], [[1.0]], kappa)


class TestMerge:
    def test_reroute_creates_self_loop(self):
        merged = merge_all(toy_tree([True, True], [[1, 0], [1, 0]], {(0, "a"): 1}), 0.01)
        assert merged.transitions == {(0, "a"): {0}}
        assert merged.states == {0}

    def test_union_can_create_nondeterminism(self):
        tree = toy_tree([False, False, True, True], [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                        {(0, "a"): 1, (0, "b"): 2, (1, "b"): 3})
        merged = merge_all(tree, 0.01)
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
        merged = merge_all(tree, 0.5)
        assert merged.initial == 0
        assert merged.states == {0}
        assert merged.accepting == {0}


def reference_merge(tree, kappa):
    """The same scan, applying each merge literally to (src, token, dst) triples."""
    feats = tree.features
    norms = np.linalg.norm(feats, axis=1)
    triples = {(src, token, dst) for (src, token), dst in edges_of(tree).items()}
    alive, initial = set(range(tree.n_states)), 0
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


def random_tree(rng, n_states, dim=3, one_label=False):
    edges = {}
    for q in range(1, n_states):
        free = [(p, token) for p in range(q) for token in ALPHABET if (p, token) not in edges]
        edges[free[rng.integers(len(free))]] = q
    # Renumbered level by level, children in alphabet order.
    order = [0]
    for q in order:
        order += [edges[(q, token)] for token in ALPHABET if (q, token) in edges]
    bfs = {old: new for new, old in enumerate(order)}
    edges = {(bfs[p], token): bfs[q] for (p, token), q in edges.items()}
    features = rng.normal(size=(n_states, dim))
    for q in range(1, n_states):
        kind = rng.random()
        if kind < 0.3:  # near-duplicate of an earlier row
            features[q] = features[rng.integers(q)] + 1e-6 * rng.normal(size=dim)
        elif kind < 0.4:
            features[q] = 0.0
    if one_label:
        labels = [bool(rng.integers(2))] * n_states
    else:
        labels = [bool(x) for x in rng.integers(0, 2, size=n_states)]
    return trie(edges, labels, features)


def all_pairs_merge(tree, kappa):
    """Oracle: the earlier merge_all, verbatim but for its zero-norm warning and
    for reading the tree's edges through edges_of, comparing each block of
    states with every lower state and masking out the label mismatches; it
    also returns the map of lowest matches, before pointer jumping."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie strictly between 0 and 1")
    n = tree.n_states
    feats = tree.features
    norms = np.linalg.norm(feats, axis=1)
    degenerate = norms == 0.0
    unit = np.divide(feats, norms[:, None], out=np.zeros_like(feats), where=~degenerate[:, None])
    labels = np.array(tree.labels)
    threshold = 1.0 - kappa
    rep = np.arange(n)
    rows = max(1, extraction.CELLS // n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        match = unit[start:stop] @ unit[:stop].T > threshold
        match &= labels[start:stop, None] == labels[:stop]
        match &= np.tri(stop - start, stop, start - 1, dtype=bool)  # j < i
        found = np.flatnonzero(match.any(axis=1))
        rep[start + found] = match[found].argmax(axis=1)
    lowest = rep.copy()
    # rep[i] <= i, so the chains descend; pointer jumping reaches their ends.
    while not np.array_equal(rep[rep], rep):
        rep = rep[rep]
    rep_of = rep.tolist()
    transitions: dict[tuple[int, str], set[int]] = {}
    for (src, token), dst in edges_of(tree).items():
        transitions.setdefault((rep_of[src], token), set()).add(rep_of[dst])
    states = set(np.flatnonzero(rep == np.arange(n)).tolist())
    return lowest, Nfa(tree.alphabet, states, rep_of[0], transitions,
                       {q for q in states if tree.labels[q]})


class TestMergeReference:
    # CELLS = 1 gives one row per block and 256 a few, so folds cross block seams.
    @pytest.mark.parametrize("cells", [extraction.CELLS, 256, 1])
    def test_matches_literal_merges_on_random_trees(self, rng, cells, monkeypatch):
        monkeypatch.setattr(extraction, "CELLS", cells)
        for trial in range(300):
            tree = random_tree(rng, int(rng.integers(1, 61)), one_label=trial % 4 == 0)
            kappa = float(rng.uniform(0.001, 0.999))
            merged = merge_all(tree, kappa)
            assert merged == reference_merge(tree, kappa)
            # The label-class merge against the earlier all-pairs one.
            lowest, expected = all_pairs_merge(tree, kappa)
            assert extraction._lowest_matches(tree, kappa).tolist() == lowest.tolist()
            assert merged == expected


class TestQuotient:
    """merge_all's quotient from the distinct edge codes against the earlier
    loop over every tree edge: the same machine, of plain ints."""

    @staticmethod
    def assert_same_quotient(tree, kappa):
        merged = merge_all(tree, kappa)
        assert merged == per_edge_merge_all(tree, kappa)
        ids = [merged.initial, *merged.states, *merged.accepting]
        ids += [q for (src, _), dsts in merged.transitions.items() for q in (src, *dsts)]
        assert all(type(q) is int for q in ids)

    def test_random_trees(self, rng):
        # About a tenth of random_tree's rows are zero, which never merge.
        for trial in range(200):
            tree = random_tree(rng, int(rng.integers(1, 80)), one_label=trial % 4 == 0)
            for kappa in (0.001, 0.05, 0.4, 0.9):
                self.assert_same_quotient(tree, kappa)

    def test_three_token_alphabet(self, rng):
        m = init_model(("a", "b", "c"), 3, 4, rng)
        strings = ["".join("abc"[i] for i in rng.integers(0, 3, size=int(n)))
                   for n in rng.integers(0, 7, size=40)]
        tree = build_prefix_tree(m, as_samples(strings, m.alphabet))
        for kappa in (0.001, 0.05, 0.4, 0.9):
            self.assert_same_quotient(tree, kappa)


class TestLabelClasses:
    """merge_all compares states within each label class only."""

    # Labels interleave.  Each class holds a pair at cosine exactly 0.6 (states
    # 0 and 2, 1 and 3), a state just above 0.6 from both members of that pair
    # (4 and 5), which folds into the lower one, and a state that duplicates a
    # feature of the other class (6 equals 1, 7 equals 0) and matches nothing.
    LABELS = [True, False] * 4
    FEATURES = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [3.0, 4.0, 0.0], [0.0, 4.0, 3.0],
                [3.0, 3.99, 0.0], [0.0, 3.99, 3.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    EDGES = {(0, "a"): 1, (0, "b"): 2, (1, "a"): 3, (1, "b"): 4, (2, "a"): 5, (2, "b"): 6,
             (3, "a"): 7}

    @pytest.mark.parametrize("cells", [extraction.CELLS, 8, 1])
    def test_interleaved_labels(self, cells, monkeypatch):
        monkeypatch.setattr(extraction, "CELLS", cells)
        assert 3 / 5 == 1 - 0.4
        tree = toy_tree(self.LABELS, self.FEATURES, self.EDGES)
        # At kappa 0.4 the exact-threshold pairs stay apart.
        assert extraction._lowest_matches(tree, 0.4).tolist() == [0, 1, 2, 3, 0, 1, 6, 7]
        assert merge_all(tree, 0.4).states == {0, 1, 2, 3, 6, 7}
        # A hair more kappa folds them, and 4 and 5 still go to the lowest id.
        assert extraction._lowest_matches(tree, 0.41).tolist() == [0, 1, 0, 1, 0, 1, 6, 7]
        for kappa in (0.4, 0.41):
            lowest, expected = all_pairs_merge(tree, kappa)
            assert extraction._lowest_matches(tree, kappa).tolist() == lowest.tolist()
            assert merge_all(tree, kappa) == expected


def seam_tree():
    """One label on a 600-state chain.  States 0-299 are the rows of a random
    orthogonal matrix and state i >= 300 a multiple of state i - 300's row,
    so each later state's only match lies 300 ids back: past the first column
    block, and for the states of a later row block in an earlier one."""
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(300, 300)))
    return toy_tree([True] * 600, np.concatenate([q, q * np.linspace(0.5, 2.0, 300)[:, None]]))


def no_match_tree():
    """One label on a 4,000-state chain of Gaussian rows in 16 dimensions: at
    kappa 0.001 no two are within the 2.6 degrees a match needs."""
    return toy_tree([True] * 4000, np.random.default_rng(5).normal(size=(4000, 16)))


class TestLowestMatchScan:
    """_lowest_matches stops each row at its first column block with a match;
    it must find the same lowest match as the all-pairs oracle."""

    @staticmethod
    def assert_matches_oracle(tree, kappa):
        lowest, expected = all_pairs_merge(tree, kappa)
        assert extraction._lowest_matches(tree, kappa).tolist() == lowest.tolist()
        assert merge_all(tree, kappa) == expected
        return lowest

    @pytest.mark.parametrize("language", range(1, 8))
    def test_fixture_models(self, language):
        samples = extraction_strings(language, 150, 15, 0)
        tree = build_prefix_tree(fixture_model(language), samples)
        for kappa in (0.01, 0.4):
            self.assert_matches_oracle(tree, kappa)

    @pytest.mark.parametrize("cells", [extraction.CELLS, 256, 1])
    def test_matches_past_the_first_column_block(self, cells, monkeypatch):
        monkeypatch.setattr(extraction, "CELLS", cells)
        lowest = self.assert_matches_oracle(seam_tree(), 0.01)
        assert lowest.tolist() == list(range(300)) * 2

    def test_no_match(self):
        tree = no_match_tree()
        assert self.assert_matches_oracle(tree, 0.001).tolist() == list(range(tree.n_states))

    def test_peak_memory_within_cells(self):
        # The unit rows plus a few products of CELLS entries.  A column block
        # wider than CELLS allows, over 256 rows, overshoots about twofold.
        tree = no_match_tree()
        tracemalloc.start()
        try:
            extraction._lowest_matches(tree, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tree.features.nbytes + 4 * extraction.CELLS * 8


class TestMergeAll:
    def test_distinct_features_no_merge(self, rng):
        m = small_model(7)
        strings = random_strings(rng, 10)
        tree = build_prefix_tree(m, as_samples(strings))
        merged = merge_all(tree, 1e-12)
        cos_max = _max_offdiag_cosine(tree)
        if cos_max <= 1 - 1e-12:
            assert len(merged.states) == tree.n_states
            assert merged.transitions == {k: {v} for k, v in edges_of(tree).items()}

    def test_high_tolerance_collapses_by_label(self):
        # All features closely aligned: only the label classes can survive.
        features = np.array([[1.0, 0.01 * i] for i in range(5)])
        tree = trie({(0, "a"): 1, (0, "b"): 2, (1, "a"): 3, (1, "b"): 4},
                    [True, False, False, True, False], features)
        merged = merge_all(tree, 0.5)
        assert len(merged.states) == 2
        assert len(merged.accepting) == 1

    def test_path_preservation(self, rng):
        for trial in range(20):
            m = small_model(100 + trial)
            strings = random_strings(rng, 15)
            tree = build_prefix_tree(m, as_samples(strings))
            kappa = float(rng.uniform(0.01, 0.8))
            merged = merge_all(tree, kappa)
            for w in strings:
                current = {merged.initial}
                for token in w:
                    current = {d for s in current
                               for d in merged.transitions.get((s, token), ())}
                    assert current, f"path lost for {w!r} at kappa={kappa}"
                if rnn._accepts(forward(m, w).yhat)[-1]:
                    assert current & merged.accepting

    def test_labels_preserved_under_merging(self, rng):
        m = small_model(9)
        tree = build_prefix_tree(m, as_samples(random_strings(rng, 20)))
        merged = merge_all(tree, 0.3)
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
        report = extract(build_prefix_tree(m, as_samples(strings)), 0.05)
        trie, merged, minimized = report.sizes
        assert merged <= trie
        assert minimized <= len(report.determinized.states)

    def test_train_fidelity_counts_prefix_agreement(self, rng):
        m = small_model(17)
        strings = random_strings(rng, 25)
        tree = build_prefix_tree(m, as_samples(strings))
        # The unmerged trie always agrees with itself.
        assert train_set_fidelity(trie_dfa(tree), tree) == 1.0

    def test_empty_strings_rejected(self):
        with pytest.raises(ValueError):
            build_prefix_tree(small_model(), as_samples([]))


class TestMachineVerdicts:
    """machine_verdicts and train_set_fidelity against each prefix's run and
    the earlier walk of the tree's edges through Dfa.step."""

    @staticmethod
    def assert_matches_oracles(dfa, tree, strings):
        runs = [v for w in strings for v in prefix_decisions(dfa, w)]
        assert machine_verdicts(dfa, tree)[tree.visits].tolist() == runs
        fidelity = train_set_fidelity(dfa, tree)
        assert type(fidelity) is float
        assert repr(fidelity) == repr(float(edges_train_set_fidelity(dfa, tree)))

    def test_random_machines_on_random_trees(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            alphabet = ("a", "b") if trial % 2 else ("b", "a")
            m = init_model(alphabet, 3, 5, rng)
            strings = random_strings(rng, int(rng.integers(1, 25))) + [""]
            strings += [strings[i] for i in rng.integers(0, len(strings), size=3)]
            tree = build_prefix_tree(m, as_samples(strings, alphabet))
            # Sparse machines send some prefixes to the sink row.
            machines = [trie_dfa(tree)] + [random_dfa(rng, int(rng.integers(1, 6)), edge_prob=p)
                                          for p in (0.3, 0.85, 1.0)]
            for dfa in machines:
                self.assert_matches_oracles(dfa, tree, strings)

    def test_only_empty_strings(self):
        tree = build_prefix_tree(small_model(2), as_samples(["", ""]))
        for dfa in (Dfa(ALPHABET, {0}, 0, {}, {0}), Dfa(ALPHABET, {3}, 3, {}, set())):
            self.assert_matches_oracles(dfa, tree, ["", ""])

    def test_machine_missing_a_token_rejected(self):
        tree = build_prefix_tree(small_model(), as_samples(["ab", "a"]))
        dfa = Dfa(("a",), {0}, 0, {(0, "a"): 0}, {0})
        for walk in (train_set_fidelity, edges_train_set_fidelity):
            with pytest.raises(AlphabetError):
                walk(dfa, tree)

    @pytest.mark.parametrize("language", range(1, 8))
    def test_fixture_models(self, language):
        samples = extraction_strings(language, 150, 15, 0)
        tree = build_prefix_tree(fixture_model(language), samples)
        strings = [s.x for s in pairs(samples)]
        for kappa in (0.4, 0.01):
            self.assert_matches_oracles(extract(tree, kappa).final, tree, strings)
        self.assert_matches_oracles(gold_dfa(language), tree, strings)

    def test_trie_rejects_other_numberings(self):
        labels, features = [True] * 4, np.eye(4)
        tree = trie({(0, "a"): 1, (0, "b"): 2, (1, "a"): 3}, labels, features)
        assert tree.levels.tolist() == [0, 1, 3, 4]
        for edges in ({(0, "b"): 1, (0, "a"): 2, (1, "a"): 3},   # children out of order
                      {(0, "a"): 1, (1, "a"): 2, (0, "b"): 3},   # a level after a deeper one
                      {(0, "a"): 2, (2, "a"): 1, (0, "b"): 3},   # a parent above its child
                      {(0, "a"): 1, (1, "a"): 2}):               # state 3 unreached
            with pytest.raises(ValueError):
                trie(edges, labels, features)
