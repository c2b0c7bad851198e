import copy
import logging
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from statemerge import languages
from statemerge.automata import minimize
from statemerge.languages import ALPHABET, gold_dfa, sample_balanced, sample_eval_set

from conftest import (all_strings, labeled, pairs, per_token_balanced, per_token_eval_set,
                      randbelow)


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


def positive_walks(language, n, rng, walks=1):
    """walks positive walks of the samplers at length n, as strings."""
    table, counts = languages._accepting_counts(language, n)
    steps = languages._walk_steps(table, counts)
    with languages._WordReader(rng) as words:
        return ["".join(ALPHABET[t] for t in languages._walk(words, steps, n))
                for _ in range(walks)]


def walk_positive(language, n, rng):
    return positive_walks(language, n, rng)[0]


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
        counts = Counter(positive_walks(language, n, rng, draws))
        assert set(counts) <= set(support)
        p = 1 / len(support)
        sigma = (draws * p * (1 - p)) ** 0.5
        for w in support:
            assert abs(counts[w] - draws * p) <= 3 * sigma


class TestBalancedSampler:
    def test_labels_match_membership(self, rng):
        for sample in pairs(sample_balanced(2, 8, 10, rng)):
            assert sample == labeled(2, sample.x)

    def test_fixed_length(self, rng):
        assert all(len(s.x) == 9 for s in pairs(sample_balanced(4, 9, 11, rng)))

    def test_deterministic(self):
        a = sample_balanced(3, 10, 20, np.random.default_rng(7))
        b = sample_balanced(3, 10, 20, np.random.default_rng(7))
        assert pairs(a) == pairs(b)

    def test_positive_half_is_positive(self, rng):
        samples = pairs(sample_balanced(2, 10, 40, rng))
        assert all(s.y[-1] for s in samples[20:])

    def test_infeasible_falls_back_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            samples = sample_balanced(2, 7, 10, np.random.default_rng(0))
        assert len(samples) == 10
        assert all(len(s.x) == 7 for s in pairs(samples))
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
        assert all(0 <= len(s.x) <= 50 for s in pairs(samples))

    def test_max_len_zero(self, rng):
        samples = pairs(sample_eval_set(2, 5, 0, rng))
        assert len(samples) == 5
        assert all(s.x == "" and s.y == (True,) for s in samples)

    def test_deterministic(self):
        a = sample_eval_set(6, 100, 20, np.random.default_rng(3))
        b = sample_eval_set(6, 100, 20, np.random.default_rng(3))
        assert pairs(a) == pairs(b)

    def test_labels_exact(self, rng):
        for s in pairs(sample_eval_set(7, 100, 15, rng)):
            assert s == labeled(7, s.x)


def test_one_gold_machine_per_sampler_call(monkeypatch, rng):
    """At most one per call, and none once the (language, length) tables are built."""
    builds = []

    def counted_gold_dfa(language):
        builds.append(language)
        return gold_dfa(language)

    monkeypatch.setattr(languages, "gold_dfa", counted_gold_dfa)
    languages._accepting_counts.cache_clear()
    sample_balanced(3, 20, 100, rng)
    assert builds == [3]
    sample_eval_set(5, 100, 20, rng)
    sample_eval_set(3, 100, 20, rng)
    assert builds == [3, 5]
    sample_balanced(3, 20, 100, rng)
    sample_balanced(3, 21, 100, rng)
    assert builds == [3, 5, 3]


def test_sampler_tables_are_shared_and_immutable():
    table, counts = languages._accepting_counts(4, 12)
    steps = languages._walk_steps(table, counts)
    assert languages._accepting_counts(4, 12)[1] is counts
    assert languages._walk_steps(*languages._accepting_counts(4, 12)) is steps
    for shared in (table, counts, steps, table[0], counts[12], steps[12], steps[12][0]):
        assert type(shared) is tuple


def state_lists(rng):
    """The whole generator state, arrays made lists, so states compare with ==."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


def assert_same_generator(a, b):
    assert state_lists(a) == state_lists(b)
    # bytes(12) takes three uint32s, so a buffered half left behind shows.
    assert (a.bytes(12), a.integers(2**63)) == (b.bytes(12), b.integers(2**63))


def first_token(rng, bound, first):
    """One positive-walk step from a row with bound completions, the first
    successor's count first: token 0 exactly when the step draws below first."""
    steps = languages._walk_steps(((1, 1), (1, 1)), ((0, first), (bound, 0)))
    with languages._WordReader(rng) as words:
        return languages._walk(words, steps, 1)[0]


ENTRIES = [0, 1, 2, 3]


def dashed(args):
    return "-".join(map(str, args))


class WordReaderChecks:
    """The samplers' word reader on one bit generator, against the per-token
    oracle in conftest, which reads rng.bytes and rng.integers one draw at a
    time: the same values, and the same generator afterwards, so every later
    draw is the same too.  Each check enters after 0-3 uint32 draws; after an
    odd count PCG64, Philox and SFC64 hold a buffered half."""
    bit_generator = None
    BOUNDS = [2**k + d for k in (1, 7, 8, 31, 32, 33, 63, 64, 65, 100) for d in (-1, 0, 1)] \
        + [3 * 2**64 + 5, 2**96 + 1, 2**130 - 7, 2**200 + 3]

    def generators(self, seed, drawn, copies):
        out = [np.random.Generator(self.bit_generator(seed)) for _ in range(copies)]
        for rng in out:
            rng.integers(2**32, size=drawn, dtype=np.uint32)
        return out

    @pytest.mark.parametrize("drawn", ENTRIES, ids=lambda n: f"after{n}")
    def test_randbelow_matches_rng_bytes(self, drawn):
        # The step draws pick exactly when a first successor counting pick
        # takes the second token and one counting pick + 1 the first.
        for seed in range(5):
            reference, at, above = self.generators(seed, drawn, 3)
            for n in self.BOUNDS:
                pick = randbelow(reference.bytes, n)
                assert (first_token(at, n, pick), first_token(above, n, pick + 1)) == (1, 0)
            assert state_lists(above) == state_lists(reference)
            assert_same_generator(at, reference)

    def sample_both(self, sample, oracle, args, seed=0, entries=ENTRIES):
        for drawn in entries:
            fast, reference = self.generators(seed, drawn, 2)
            assert pairs(sample(*args, fast)) == pairs(oracle(*args, reference))
            assert_same_generator(fast, reference)

    @pytest.mark.parametrize("language", range(1, 8))
    def test_full_protocol_training_draw(self, language):
        # The training set's shape: length 100, where bounds reach 2**100 and
        # a draw takes four uint32s.  The languages share out the entries.
        self.sample_both(sample_balanced, per_token_balanced, (language, 100, 200),
                         seed=[0, language, 0], entries=[language % 4])

    @pytest.mark.parametrize("args", [(4, 40, 20), (2, 7, 10), (1, 0, 4), (5, 31, 9),
                                      (5, 32, 9), (3, 33, 9)], ids=dashed)
    def test_balanced(self, args):
        # Tomita 2 has no string of length 7: the whole draw is uniform.
        self.sample_both(sample_balanced, per_token_balanced, args)

    @pytest.mark.parametrize("args", [(7, 200, 30), (3, 50, 100), (2, 20, 1), (6, 20, 0)],
                             ids=dashed)
    def test_eval_set(self, args):
        # At max_len 0 the length draw rng.integers(0, 1) reads no word: only
        # the coins are drawn.
        self.sample_both(sample_eval_set, per_token_eval_set, args)


class TestPcg64Reader(WordReaderChecks):
    bit_generator = np.random.PCG64


class TestPhiloxReader(WordReaderChecks):
    bit_generator = np.random.Philox


class TestMt19937Reader(WordReaderChecks):
    bit_generator = np.random.MT19937


class TestSfc64Reader(WordReaderChecks):
    bit_generator = np.random.SFC64


def test_exit_redraws_a_block_at_a_time():
    # About 2**20 words handed out, 4 MiB as one draw: the exit redraws them
    # BLOCK at a time, and the generator ends where one draw of them all, from
    # the same entry, leaves it.  Each generator enters after one uint32 draw,
    # holding a buffered half where it has one, and an odd count leaves one.
    n_words = 2**20 + 3
    for bit_generator in (np.random.PCG64, np.random.Philox, np.random.MT19937,
                          np.random.SFC64):
        rng, reference = (np.random.Generator(bit_generator(0)) for _ in range(2))
        for generator in (rng, reference):
            generator.integers(2**32, dtype=np.uint32)
        words = languages._WordReader(rng)
        for _ in range(n_words // words.BLOCK):
            words.take(words.BLOCK)
        words.take(n_words % words.BLOCK)
        tracemalloc.start()
        try:
            words.__exit__(None, None, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        reference.integers(2**32, size=n_words, dtype=np.uint32)
        assert_same_generator(rng, reference)


def test_eval_length_draw_rejects_as_numpy_does():
    # Lemire's draw at range 100 rejects a word w when w * 100 % 2**32 < 96,
    # one word in about 45 million, so no seeded eval set meets one.  Word
    # 19,646,382 of PCG64(0)'s uint32 stream is one; both generators stop
    # just before it.
    word, fast, reference = 19_646_382, *(np.random.default_rng(0) for _ in range(2))
    for rng in (fast, reference):
        rng.bit_generator.advance(word // 2)
        rng.integers(2**32, size=word % 2, dtype=np.uint32)
    peek = copy.deepcopy(fast)
    assert int(peek.integers(2**32, dtype=np.uint32)) * 100 % 2**32 < 96
    assert pairs(sample_eval_set(3, 5, 99, fast)) == pairs(per_token_eval_set(3, 5, 99, reference))
    assert_same_generator(fast, reference)


SAMPLER_CALLS = [(sample_balanced, dict(language=3, length=12, count=40)),
                 (sample_balanced, dict(language=2, length=7, count=9)),
                 (sample_balanced, dict(language=5, length=0, count=2)),
                 (sample_eval_set, dict(language=4, count=60, max_len=15)),
                 (sample_eval_set, dict(language=6, count=7, max_len=0)),
                 (sample_eval_set, dict(language=1, count=0, max_len=5))]


@pytest.mark.parametrize("sampler, kwargs", SAMPLER_CALLS,
                         ids=[f"{sampler.__name__}-{dashed(kwargs.values())}"
                              for sampler, kwargs in SAMPLER_CALLS])
class TestSamples:
    """The arrays both samplers return, languages.Samples."""

    @staticmethod
    def draw(sampler, kwargs):
        return sampler(**kwargs, rng=np.random.default_rng(list(kwargs.values()))), kwargs["count"]

    def test_len_is_the_requested_count(self, sampler, kwargs):
        samples, count = self.draw(sampler, kwargs)
        assert len(samples) == count
        assert samples.lengths.shape == (count,)

    def test_shapes_and_types(self, sampler, kwargs):
        samples, count = self.draw(sampler, kwargs)
        width = int(samples.lengths.max(initial=0))
        assert samples.tokens.shape == (count, width) and samples.tokens.dtype == np.uint8
        assert samples.labels.shape == (count, width + 1) and samples.labels.dtype == bool

    def test_tokens_past_each_length_are_padding(self, sampler, kwargs):
        samples, _ = self.draw(sampler, kwargs)
        inside = samples.inside[:, 1:]
        assert np.all(samples.tokens[~inside] == len(ALPHABET))
        assert np.all(samples.tokens[inside] < len(ALPHABET))

    def test_label_rows_are_the_gold_prefix_verdicts(self, sampler, kwargs):
        samples, _ = self.draw(sampler, kwargs)
        language = kwargs["language"]
        for s, row, n in zip(pairs(samples), samples.labels.tolist(), samples.lengths.tolist()):
            assert s == labeled(language, s.x)
            # Past its length a row repeats the verdict on the whole string.
            assert row[n:] == [s.y[-1]] * (len(row) - n)
