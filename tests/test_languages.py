import logging
import re
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from statemerge import languages
from statemerge.automata import minimize
from statemerge.languages import LabeledSample, gold_dfa, sample_balanced, sample_eval_set

from conftest import all_strings, labeled


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
            assert minimize(gold_dfa(i)) == gold_dfa(i)

    def test_invalid_id(self):
        with pytest.raises(ValueError):
            gold_dfa(8)


class TestMembership:
    def test_examples(self):
        assert gold_dfa(2).accepts("ab")
        assert not gold_dfa(5).accepts("ab")
        assert gold_dfa(6).accepts("ab")

    @pytest.mark.parametrize("language", range(1, 8))
    def test_matches_reference_to_length_9(self, language):
        oracle, gold = REFERENCE_ORACLES[language], gold_dfa(language)
        for w in all_strings(("a", "b"), 9):
            assert gold.accepts(w) == oracle(w), w


class TestPositiveCount:
    """The accepting-completion counts from the initial state, counts[n][0],
    are the number of in-language strings of length n."""

    @pytest.mark.parametrize("language", range(1, 8))
    def test_matches_brute_force_to_length_10(self, language):
        oracle = REFERENCE_ORACLES[language]
        brute = Counter(len(w) for w in all_strings(("a", "b"), 10) if oracle(w))
        assert ([languages._accepting_counts(language, n)[1][n][0] for n in range(11)]
                == [brute[n] for n in range(11)])


def walk_positive(language, n, rng):
    table, counts = languages._accepting_counts(language, n)
    return languages._walk_positive(table, counts, n, rng)


class TestUniformPositive:
    """The positive walk the samplers draw in-language strings with."""

    def test_unique_member(self, rng):
        assert walk_positive(2, 4, rng) == "abab"

    def test_a_star_one_per_length(self, rng):
        assert walk_positive(1, 3, rng) == "aaa"

    def test_always_in_language(self, rng):
        for language in range(1, 8):
            gold = gold_dfa(language)
            for _ in range(50):
                n = int(rng.integers(0, 13))
                if languages._accepting_counts(language, n)[1][n][0] == 0:
                    continue
                assert gold.accepts(walk_positive(language, n, rng))

    def test_uniformity_three_sigma(self):
        rng = np.random.default_rng(1)
        language, n, draws = 5, 6, 10_000
        gold = gold_dfa(language)
        support = [w for w in all_strings(("a", "b"), 6) if len(w) == n and gold.accepts(w)]
        table, completions = languages._accepting_counts(language, n)
        counts = Counter(languages._walk_positive(table, completions, n, rng)
                         for _ in range(draws))
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
            languages._accepting_counts(1, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            sample_balanced(1, -1, 10, rng)


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


def test_one_gold_machine_per_sampler_call(monkeypatch, rng):
    builds = []

    def counted_gold_dfa(language):
        builds.append(language)
        return gold_dfa(language)

    monkeypatch.setattr(languages, "gold_dfa", counted_gold_dfa)
    sample_balanced(3, 20, 100, rng)
    assert builds == [3]
    sample_eval_set(5, 100, 20, rng)
    assert builds == [3, 5]


@contextmanager
def rng_bytes_only(rng):
    """languages._byte_source with the reader switched off: every walk on
    every generator reads rng.bytes, the reference the reader must match."""
    yield rng.bytes


def assert_same_generator(a, b):
    # bytes(12) takes three uint32s, so a buffered half left behind shows.
    assert (a.bytes(12), a.integers(2**63)) == (b.bytes(12), b.integers(2**63))


class TestPcg64Reader:
    """The PCG64 reader against rng.bytes: the same values and the same
    generator afterwards, so every later draw is the same too."""
    BOUNDS = [2**k + d for k in (1, 7, 8, 31, 32, 33, 63, 64, 65, 100) for d in (-1, 0, 1)] \
        + [3 * 2**64 + 5, 2**96 + 1, 2**130 - 7, 2**200 + 3]

    @pytest.mark.parametrize("drawn", [0, 1, 2, 3], ids=lambda n: f"after{n}")
    def test_randbelow_matches_rng_bytes(self, drawn):
        # After an odd count of uint32s the generator holds a buffered half.
        for seed in range(20):
            reference, fast = np.random.default_rng(seed), np.random.default_rng(seed)
            for rng in (reference, fast):
                rng.integers(2**32, size=drawn, dtype=np.uint32)
            expected = [languages._randbelow(reference.bytes, n) for n in self.BOUNDS]
            with languages._byte_source(fast) as take:
                assert take != fast.bytes
                got = [languages._randbelow(take, n) for n in self.BOUNDS]
            assert got == expected
            assert fast.bit_generator.state == reference.bit_generator.state
            assert_same_generator(fast, reference)

    def sample_both(self, monkeypatch, sample, args, make_rng):
        fast_rng, reference_rng = make_rng(), make_rng()
        fast = sample(*args, fast_rng)
        with monkeypatch.context() as patch:
            patch.setattr(languages, "_byte_source", rng_bytes_only)
            reference = sample(*args, reference_rng)
        assert fast == reference
        assert_same_generator(fast_rng, reference_rng)

    @pytest.mark.parametrize("language", range(1, 8))
    def test_full_protocol_training_draw(self, monkeypatch, language):
        # The training set's shape: length 100, where bounds reach 2**100 and
        # a draw takes four uint32s.
        self.sample_both(monkeypatch, sample_balanced, (language, 100, 200),
                         lambda: np.random.default_rng([0, language, 0]))

    @pytest.mark.parametrize("sample, args", [(sample_balanced, (4, 40, 20)),
                                              (sample_eval_set, (7, 200, 30))],
                             ids=["balanced", "eval"])
    def test_other_generators_read_rng_bytes(self, monkeypatch, sample, args):
        self.sample_both(monkeypatch, sample, args,
                         lambda: np.random.Generator(np.random.MT19937(0)))


class TestLabeledSample:
    def test_label_length_validated(self):
        with pytest.raises(ValueError):
            LabeledSample("ab", (True,))
