import logging
import re
from collections import Counter

import numpy as np
import pytest

from statemerge.automata import equivalent, isomorphic, minimize
from statemerge.languages import (InfeasibleLength, LabeledSample, gold_dfa,
                                  labeled, load_dataset, membership,
                                  positive_count, sample_balanced,
                                  sample_eval_set, sample_uniform_positive,
                                  save_dataset)

from conftest import all_strings


def tomita3_reference(w):
    """Definition-level check: no maximal odd run of a's immediately followed
    by a maximal odd run of b's."""
    runs = [(m.group()[0], len(m.group())) for m in re.finditer(r"a+|b+", w)]
    for (tok1, len1), (tok2, len2) in zip(runs, runs[1:]):
        if tok1 == "a" and len1 % 2 == 1 and tok2 == "b" and len2 % 2 == 1:
            return False
    return True


REFERENCE_ORACLES = {
    1: lambda w: re.fullmatch(r"a*", w) is not None,
    2: lambda w: re.fullmatch(r"(ab)*", w) is not None,
    3: tomita3_reference,
    4: lambda w: "aaa" not in w,
    5: lambda w: w.count("a") % 2 == 0 and w.count("b") % 2 == 0,
    6: lambda w: (w.count("a") - w.count("b")) % 3 == 0,
    7: lambda w: re.fullmatch(r"b*a*b*a*", w) is not None,
}


class TestGoldDfas:
    def test_sizes(self):
        assert [len(gold_dfa(i).states) for i in range(1, 8)] == [1, 2, 4, 3, 4, 3, 4]

    def test_language2_is_ab_star_machine(self):
        g = gold_dfa(2)
        assert g.accepting == {0}
        assert g.transitions == {(0, "a"): 1, (1, "b"): 0}

    def test_already_minimal(self):
        for i in range(1, 8):
            assert isomorphic(minimize(gold_dfa(i)), gold_dfa(i))

    def test_invalid_id(self):
        with pytest.raises(ValueError):
            gold_dfa(8)


class TestMembership:
    def test_examples(self):
        assert membership(2, "ab")
        assert not membership(5, "ab")
        assert membership(6, "ab")

    @pytest.mark.parametrize("language", range(1, 8))
    def test_matches_reference_to_length_9(self, language):
        oracle = REFERENCE_ORACLES[language]
        for w in all_strings(("a", "b"), 9):
            assert membership(language, w) == oracle(w), w


class TestUniformPositive:
    def test_unique_member(self, rng):
        assert sample_uniform_positive(2, 4, rng) == "abab"

    def test_a_star_one_per_length(self, rng):
        assert sample_uniform_positive(1, 3, rng) == "aaa"

    def test_infeasible_length(self, rng):
        with pytest.raises(InfeasibleLength):
            sample_uniform_positive(2, 3, rng)

    def test_always_in_language(self, rng):
        for language in range(1, 8):
            for _ in range(50):
                n = int(rng.integers(0, 13))
                if positive_count(language, n) == 0:
                    continue
                assert membership(language, sample_uniform_positive(language, n, rng))

    def test_uniformity_three_sigma(self):
        rng = np.random.default_rng(1)
        language, n, draws = 5, 6, 10_000
        support = [w for w in all_strings(("a", "b"), 6)
                   if len(w) == n and membership(language, w)]
        counts = Counter(sample_uniform_positive(language, n, rng) for _ in range(draws))
        assert set(counts) <= set(support)
        p = 1 / len(support)
        sigma = (draws * p * (1 - p)) ** 0.5
        for w in support:
            assert abs(counts[w] - draws * p) <= 3 * sigma


class TestBalancedSampler:
    def test_labels_match_membership(self, rng):
        for sample in sample_balanced(2, 8, 10, rng):
            assert sample == labeled(2, sample.x)

    def test_fixed_length(self, rng):
        assert all(len(s.x) == 9 for s in sample_balanced(4, 9, 11, rng))

    def test_deterministic(self):
        a = sample_balanced(3, 10, 20, np.random.default_rng(7))
        b = sample_balanced(3, 10, 20, np.random.default_rng(7))
        assert a == b

    def test_positive_half_is_positive(self, rng):
        samples = sample_balanced(2, 10, 40, rng)
        assert all(s.y[-1] for s in samples[20:])

    def test_infeasible_falls_back_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            samples = sample_balanced(2, 7, 10, np.random.default_rng(0))
        assert len(samples) == 10
        assert all(len(s.x) == 7 for s in samples)
        assert any("no strings of length" in r.message for r in caplog.records)

    def test_count_too_small(self, rng):
        with pytest.raises(ValueError):
            sample_balanced(1, 5, 1, rng)

    def test_negative_length_rejected(self, rng):
        with pytest.raises(ValueError, match="nonnegative"):
            positive_count(1, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            sample_balanced(1, -1, 10, rng)
        with pytest.raises(ValueError, match="nonnegative"):
            sample_uniform_positive(1, -1, rng)


class TestEvalSampler:
    def test_counts_and_lengths(self, rng):
        samples = sample_eval_set(3, 1000, 50, rng)
        assert len(samples) == 1000
        assert all(0 <= len(s.x) <= 50 for s in samples)

    def test_max_len_zero(self, rng):
        samples = sample_eval_set(2, 5, 0, rng)
        assert all(s.x == "" and s.y == (True,) for s in samples)

    def test_deterministic(self):
        a = sample_eval_set(6, 100, 20, np.random.default_rng(3))
        b = sample_eval_set(6, 100, 20, np.random.default_rng(3))
        assert a == b

    def test_labels_exact(self, rng):
        for s in sample_eval_set(7, 100, 15, rng):
            assert s == labeled(7, s.x)


class TestDatasetFormat:
    def test_round_trip(self, rng):
        samples = sample_balanced(5, 12, 8, rng) + [labeled(5, "")]
        text = save_dataset(samples, language=5, seed=0, note="len 12")
        assert load_dataset(text) == samples
        assert text.endswith("\n\t1\n")  # ε is written as an empty first field

    def test_header_present(self, rng):
        text = save_dataset(sample_balanced(1, 3, 2, rng), language=1, seed=9)
        assert text.startswith("# dataset-format 1\n# language 1 seed 9")

    def test_label_length_validated(self):
        with pytest.raises(ValueError):
            LabeledSample("ab", (True,))
