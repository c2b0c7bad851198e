import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from statemerge import rnn
from statemerge.harness import TrainingConfig
from statemerge.languages import ALPHABET, Samples, sample_balanced, sample_eval_set
from statemerge.rnn import (AdamWHyper, Checkpoint, TrainingError,
                            adamw_step, eval_reference, evaluate, forward, init_model,
                            kappa_bound, load_checkpoint, loss_and_grads,
                            model_from_checkpoint, save_checkpoint, train)

from conftest import (PaddedEvalReference, add_at_loss_and_grads, allocating_step, as_samples,
                      fixture_model, forward_many, labeled, padded_eval_reference,
                      padded_evaluate, pairs, per_level_number_prefixes)

# The optimizer of every training run, and the default training config's batch size.
HYPER = rnn.ADAMW
BATCH = TrainingConfig(1).batch_size
SHIPPED = Path(__file__).resolve().parent.parent / "artifacts" / "models"


class TestInit:
    def test_shapes(self, rng):
        m = init_model(ALPHABET, 10, 100, rng)
        assert m.params["embed"].shape == (3, 10)
        assert m.params["w_hh"].shape == (100, 100)
        assert m.params["w_ih"].shape == (100, 10)
        assert m.params["b_h"].shape == (100,)
        assert m.params["w_out"].shape == (2, 100)
        assert m.params["b_out"].shape == (2,)

    def test_seed_determinism(self):
        a = init_model(ALPHABET, 4, 8, np.random.default_rng(5))
        b = init_model(ALPHABET, 4, 8, np.random.default_rng(5))
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_different_seeds_differ(self):
        a = init_model(ALPHABET, 4, 8, np.random.default_rng(5))
        b = init_model(ALPHABET, 4, 8, np.random.default_rng(6))
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_bad_dims(self, rng):
        with pytest.raises(ValueError):
            init_model(ALPHABET, 0, 8, rng)


class TestForward:
    def test_shapes(self, rng):
        m = init_model(ALPHABET, 4, 8, rng)
        result = forward(m, "abab")
        assert result.hidden.shape == (5, 8)
        assert result.yhat.shape == (5,)

    def test_hidden_inside_unit_box(self, rng):
        m = init_model(ALPHABET, 4, 8, rng)
        h = forward(m, "abba").hidden
        assert np.all(np.abs(h) < 1.0)

    def test_prefix_consistency(self, rng):
        m = init_model(ALPHABET, 4, 8, rng)
        short = forward(m, "ab").hidden
        long = forward(m, "abb").hidden
        assert np.array_equal(short, long[:3])

    def test_unknown_token(self, rng):
        m = init_model(ALPHABET, 4, 8, rng)
        with pytest.raises(ValueError):
            forward(m, "az")


class TestForwardMany:
    """The per-length oracle in conftest, which the tests below compare against."""

    def test_matches_per_string_forward_in_input_order(self, rng):
        m = init_model(ALPHABET, 4, 8, rng)
        strings = ["abab", "", "b", "ba", "abab", "aab", "", "bbbba", "ab"]
        results = forward_many(m, strings)
        assert len(results) == len(strings)
        for w, result in zip(strings, results):
            single = forward(m, w)
            assert result.hidden.shape == (len(w) + 1, 8)
            np.testing.assert_allclose(result.hidden, single.hidden, rtol=0, atol=1e-12)
            np.testing.assert_allclose(result.yhat, single.yhat, rtol=0, atol=1e-12)
            assert list(result.yhat > 0.5) == list(rnn._accepts(single.yhat))

    def test_empty_list(self, rng):
        assert forward_many(init_model(ALPHABET, 4, 8, rng), []) == []


class TestDecisions:
    def test_thresholding(self, rng):
        m = init_model(ALPHABET, 4, 8, rng)
        result = forward(m, "aab")
        assert rnn._accepts(result.yhat).tolist() == [bool(p > 0.5) for p in result.yhat]

    def test_exact_tie_rejects(self, rng):
        m = init_model(ALPHABET, 4, 8, rng)
        m.params["w_out"] = np.zeros_like(m.params["w_out"])
        m.params["b_out"] = np.zeros_like(m.params["b_out"])
        assert rnn._accepts(forward(m, "ab").yhat).tolist() == [False, False, False]


def evaluate_per_sample(model, samples):
    """The oracle: evaluate as a loop over the samples, one count each."""
    samples = pairs(samples)
    correct = total = string_correct = 0
    for sample, result in zip(samples, forward_many(model, [s.x for s in samples])):
        match = rnn._accepts(result.yhat) == np.array(sample.y)
        correct += int(match.sum())
        total += match.size
        string_correct += int(match[-1])
    return correct / total, string_correct / len(samples)


def per_length_eval_reference(model, samples):
    """The oracle: the eval_reference before the padded time loop, one
    forward_many batch per length, verbatim but for its class and for taking
    either string-set format."""
    samples = pairs(samples)
    if not samples:
        raise ValueError("need at least one sample")
    lengths = np.array([len(s.x) for s in samples])
    ids = np.full((len(samples), lengths.max()), len(model.alphabet))
    labels, decisions = np.empty((2, len(samples), lengths.max() + 1), dtype=bool)
    # One forward_many batch per length, so only one group's hidden states are alive.
    for length in dict.fromkeys(lengths.tolist()):
        rows = np.flatnonzero(lengths == length)
        strings = [samples[i].x for i in rows]
        ids[rows, :length] = [model.token_ids(w) for w in strings]
        labels[rows, :length + 1] = [samples[i].y for i in rows]
        decisions[rows, :length + 1] = [rnn._accepts(r.yhat) for r in forward_many(model, strings)]
        for padded in (labels, decisions):
            padded[rows, length + 1:] = padded[rows, length:length + 1]
    return PaddedEvalReference(model.alphabet, ids, lengths, labels, decisions)


def assert_same_reference(actual, expected):
    """A reference against a padded one, position by position: each string's
    walk through the prefixes and its tokens, the stored labels, the model's
    decisions and each string's end."""
    prefixes, inside = actual.prefixes, expected.prefixes
    visits = prefixes.visits
    assert prefixes.alphabet == expected.alphabet
    assert actual.ends.tolist() == (np.cumsum(expected.lengths + 1) - 1).tolist()
    steps = np.flatnonzero(visits != 0)  # every position but a string's start
    assert len(visits) - len(steps) == len(expected.lengths)
    assert prefixes.parents[visits[steps]].tolist() == visits[steps - 1].tolist()
    assert prefixes.tokens[visits[steps]].tolist() == expected.ids[inside[:, 1:]].tolist()
    assert actual.labels.tolist() == expected.labels[inside].tolist()
    assert prefixes.labels[visits].tolist() == expected.decisions[inside].tolist()


class TestEvalReference:
    def test_layout(self, rng):
        m = init_model(ALPHABET, 4, 8, rng)
        samples = as_samples([labeled(2, "ab"), labeled(2, ""), labeled(2, "abab")])
        ref = eval_reference(m, samples)
        # States: the root, a, ab, aba, abab, one per level.
        assert ref.prefixes.parents.tolist() == [0, 0, 1, 2, 3]
        assert ref.prefixes.tokens.tolist() == [2, 0, 1, 0, 1]
        assert ref.prefixes.levels.tolist() == [0, 1, 2, 3, 4, 5]
        assert ref.prefixes.visits.tolist() == [0, 1, 2, 0, 0, 1, 2, 3, 4]
        assert ref.prefixes.n_strings == 3
        assert ref.ends.tolist() == [2, 3, 8]
        assert ref.labels.tolist() == [True, False, True, True, True, False, True, False, True]
        decided = rnn._accepts(forward(m, "abab").yhat).tolist()
        assert ref.prefixes.labels.tolist() == decided

    def test_evaluate_matches_per_sample_loop_on_mixed_lengths(self, rng):
        for language in (2, 4, 6):
            m = init_model(ALPHABET, 4, 8, rng)
            samples = as_samples(pairs(sample_eval_set(language, 60, 12, rng))
                                 + pairs(sample_balanced(language, 7, 40, rng))
                                 + [labeled(language, "")])
            result = evaluate(m, samples)
            assert result == evaluate_per_sample(m, samples)
            assert all(type(value) is float for value in result)

    def test_matches_per_length_oracle_on_tiny_models(self):
        rng = np.random.default_rng(20)
        for trial in range(12):
            alphabet = ("a", "b") if trial % 2 else ("b", "a")
            m = init_model(alphabet, 3, 5, rng)
            if trial < 2:  # every prefix an exact 0.5 tie, which rejects
                m.params["w_out"] = np.zeros_like(m.params["w_out"])
            language = trial % 7 + 1
            mixed = (pairs(sample_eval_set(language, 30, 9, rng))
                     + [labeled(language, ""), labeled(language, "")])
            shuffled = [mixed[i] for i in rng.permutation(len(mixed))]
            sets = [mixed, shuffled, [labeled(language, "")], [labeled(language, "abba")],
                    pairs(sample_balanced(language, 6, 8, rng)), [labeled(language, "")] * 3]
            for samples in sets:
                # The model's tokens are indices in its own alphabet.
                actual = eval_reference(m, as_samples(samples, alphabet))
                assert_same_reference(actual, per_length_eval_reference(m, samples))
                assert_same_reference(actual, padded_eval_reference(m, samples))
                assert repr(evaluate(m, as_samples(samples, alphabet))) == repr(
                    padded_evaluate(m, samples))

    @pytest.mark.parametrize("language", range(1, 8))
    def test_matches_per_length_oracle_on_fixture_models(self, language):
        m = fixture_model(language)
        samples = sample_eval_set(language, 100, 50, np.random.default_rng([language, 999]))
        actual = eval_reference(m, samples)
        assert_same_reference(actual, per_length_eval_reference(m, samples))
        assert_same_reference(actual, padded_eval_reference(m, pairs(samples)))
        assert repr(evaluate(m, samples)) == repr(padded_evaluate(m, pairs(samples)))

    def test_one_step_per_level_and_no_forward(self, rng, monkeypatch):
        m = init_model(ALPHABET, 4, 8, rng)
        samples = as_samples(pairs(sample_eval_set(3, 40, 17, rng)) + [labeled(3, "")])
        expected = per_length_eval_reference(m, samples)
        steps = []
        step = rnn._step

        def counted(*args):
            steps.append(len(args[1]))
            return step(*args)

        def refuse(*args):
            raise AssertionError("eval_reference called forward")

        monkeypatch.setattr(rnn, "_step", counted)
        monkeypatch.setattr(rnn, "forward", refuse)
        assert_same_reference(eval_reference(m, samples), expected)
        # Step t runs the distinct prefixes of length t once each.
        strings = [s.x for s in pairs(samples)]
        assert steps == [len({w[:t] for w in strings if len(w) >= t})
                         for t in range(max(map(len, strings)) + 1)]


def assert_same_numbering(model, samples):
    """number_prefixes's four arrays equal the per-level oracle's, dtypes included."""
    actual = rnn.number_prefixes(model, samples)
    expected = per_level_number_prefixes(model, samples)
    for name, a, e in zip(("parents", "tokens", "levels", "visits"), actual, expected):
        assert a.dtype == e.dtype and a.tolist() == e.tolist(), name


class TestNumberPrefixes:
    """The one-sort numbering against the earlier per-level one."""

    @pytest.mark.parametrize("strings", [
        ["ab", "ab", "", "ba", "ab", "b", "b"], [""], ["", "", ""], ["abba"],
        ["aaaa", "aa", "a", "aaab", "b", ""], ["b", "a"], ["ab", "abab", "aba", "ab"]],
        ids=["duplicates", "empty", "empties", "single", "nested", "reversed", "repeated"])
    def test_hand_sets(self, strings):
        for alphabet in (ALPHABET, ("b", "a")):
            m = init_model(alphabet, 3, 4, np.random.default_rng(0))
            assert_same_numbering(m, as_samples(strings, alphabet))

    @pytest.mark.parametrize("language", range(1, 8))
    def test_sampler_shapes(self, language):
        m = init_model(ALPHABET, 3, 4, np.random.default_rng(language))
        rng = np.random.default_rng([language, 31])
        sets = [sample_balanced(language, length, count, rng)
                for length, count in ((1, 2), (7, 15), (10, 100), (15, 500))]
        sets += [sample_eval_set(language, count, max_len, rng)
                 for count, max_len in ((1, 0), (5, 0), (3, 1), (7, 50), (100, 50), (1000, 12))]
        for samples in sets:
            assert_same_numbering(m, samples)
            order = rng.permutation(len(samples))
            assert_same_numbering(m, Samples(samples.tokens[order], samples.lengths[order],
                                             samples.labels[order]))

    def test_padding_is_not_read(self, rng):
        m = init_model(ALPHABET, 3, 4, rng)
        samples = sample_eval_set(4, 200, 9, rng)
        noisy = samples.tokens.copy()
        outside = ~samples.inside[:, 1:]
        noisy[outside] = rng.integers(0, 3, size=int(outside.sum()))
        assert_same_numbering(m, Samples(noisy, samples.lengths, samples.labels))


def pure_adamw_step(params, grads, state_step, state_m, state_v, hyper):
    """The earlier update that returned fresh arrays, verbatim, as the oracle of
    the in-place one; the state's fields are passed one by one."""
    t = state_step + 1
    new_params, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        m = hyper.beta1 * state_m[k] + (1 - hyper.beta1) * g
        v = hyper.beta2 * state_v[k] + (1 - hyper.beta2) * g * g
        m_hat = m / (1 - hyper.beta1 ** t)
        v_hat = v / (1 - hyper.beta2 ** t)
        p_new = p * (1 - hyper.lr * hyper.weight_decay)
        p_new = p_new - hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps)
        new_params[k], new_m[k], new_v[k] = p_new, m, v
    return new_params, new_m, new_v


def bits(arrays):
    return {k: (a.dtype, a.shape, a.tobytes()) for k, a in arrays.items()}


class TestAdamW:
    def _params(self, rng):
        return {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}

    @staticmethod
    def _zeros(params):
        return ({k: np.zeros_like(p) for k, p in params.items()},
                {k: np.zeros_like(p) for k, p in params.items()})

    def test_zero_gradient_pure_decay(self, rng):
        params = self._params(rng)
        before = {k: p.copy() for k, p in params.items()}
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        hyper = dataclasses.replace(HYPER, lr=0.1, weight_decay=0.5)
        adamw_step(params, grads, *self._zeros(params), 1, hyper)
        for k in params:
            assert np.allclose(params[k], before[k] * (1 - 0.1 * 0.5))

    def test_first_step_is_signed_lr(self, rng):
        params = self._params(rng)
        before = {k: p.copy() for k, p in params.items()}
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        hyper = dataclasses.replace(HYPER, lr=1e-3, weight_decay=0.0)
        adamw_step(params, grads, *self._zeros(params), 1, hyper)
        for k in params:
            update = params[k] - before[k]
            assert np.all(np.abs(update) <= hyper.lr + 1e-9)
            mask = np.abs(grads[k]) > 1e-6
            assert np.allclose(update[mask], -hyper.lr * np.sign(grads[k][mask]), atol=1e-6)

    @pytest.mark.parametrize("hyper", [HYPER, AdamWHyper(0.05, 0.8, 0.99, 1e-6, 0.3)],
                             ids=["default", "large"])
    def test_in_place_matches_pure_update_bit_for_bit(self, rng, hyper):
        params = self._params(rng)
        m, v = self._zeros(params)
        expected = ({k: p.copy() for k, p in params.items()}, *self._zeros(params))
        for step in range(1, 8):
            grads = {k: rng.normal(scale=10.0 ** -step, size=p.shape)
                     for k, p in params.items()}
            adamw_step(params, grads, m, v, step, hyper)
            expected = pure_adamw_step(expected[0], grads, step - 1, expected[1],
                                       expected[2], hyper)
            assert [bits(params), bits(m), bits(v)] == [bits(e) for e in expected]

    def test_non_finite_gradient_raises(self, rng):
        params = self._params(rng)
        m, v = self._zeros(params)
        adamw_step(params, {k: rng.normal(size=p.shape) for k, p in params.items()},
                   m, v, 1, HYPER)
        before = [bits(params), bits(m), bits(v)]
        # Only the last array's gradient is bad: the finite ones are not applied either.
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        grads["b"][1] = np.nan
        with pytest.raises(TrainingError, match="non-finite gradient in b"):
            adamw_step(params, grads, m, v, 2, HYPER)
        assert [bits(params), bits(m), bits(v)] == before


class TestGradients:
    def test_bptt_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        m = init_model(ALPHABET, 4, 8, rng)
        ids = np.array([[2, 0, 1, 0, 1, 1, 0], [2, 1, 1, 0, 0, 1, 1]])
        labels = np.array([[1, 0, 1, 0, 1, 1, 0], [1, 0, 0, 0, 1, 0, 1]])
        _, grads = loss_and_grads(m.params, ids, labels)
        step = 1e-6
        for name, p in m.params.items():
            for _ in range(25):
                idx = np.unravel_index(int(rng.integers(p.size)), p.shape)
                shifted = {k: v.copy() for k, v in m.params.items()}
                shifted[name][idx] += step
                up, _ = loss_and_grads(shifted, ids, labels)
                shifted[name][idx] -= 2 * step
                down, _ = loss_and_grads(shifted, ids, labels)
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric), abs(grads[name][idx]), 1e-8)
                assert abs(numeric - grads[name][idx]) / denom <= 1e-4


def float_bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


# Parameter sources: fresh init_model parameters at the golden runs' (embed,
# hidden) = (4, 8) and the shipped (10, 100), and three trained fixture models
# (10, 100), whose saturated states drive 1 - h*h toward 0.
PARAM_SOURCES = ["init 4 8", "init 10 100", "fixture 2", "fixture 5", "fixture 7"]


def source_params(source):
    kind, *args = source.split()
    if kind == "fixture":
        return fixture_model(int(args[0])).params
    embed_dim, hidden_dim = map(int, args)
    return init_model(ALPHABET, embed_dim, hidden_dim, np.random.default_rng(hidden_dim)).params


class TestAgainstTheAllocatingOracle:
    """The in-place recurrence and the one-bincount backward pass keep every
    sum's operands and order, so loss, gradients and hidden states equal the
    earlier allocating code's bit for bit."""

    @pytest.mark.parametrize("source", PARAM_SOURCES)
    def test_loss_and_grads_bit_for_bit(self, source):
        params = source_params(source)
        for batch, width, dtype in itertools.product((1, 3, 16, 52, 64), (1, 2, 101),
                                                     (np.uint8, np.intp)):
            rng = np.random.default_rng([batch, width])
            ids = np.empty((batch, width), dtype=dtype)
            ids[:, 0], ids[:, 1:] = len(ALPHABET), rng.integers(0, 2, size=(batch, width - 1))
            labels = rng.integers(0, 2, size=(batch, width)).astype(bool)
            loss, grads = loss_and_grads(params, ids, labels)
            expected_loss, expected = add_at_loss_and_grads(params, ids, labels)
            assert float_bits(loss) == float_bits(expected_loss), (batch, width, dtype)
            assert grads.keys() == expected.keys()
            for name, grad in expected.items():
                assert grads[name].shape == grad.shape
                assert np.array_equal(float_bits(grads[name]), float_bits(grad)), (
                    name, batch, width, dtype)

    @pytest.mark.parametrize("source", ["init 4 8", "init 10 100", "fixture 6"])
    @pytest.mark.parametrize("rows", [1, 2, 5, 64, 300, 2000])
    def test_step_bit_for_bit(self, source, rows):
        params = source_params(source)
        rng = np.random.default_rng(rows)
        h = np.tanh(3.0 * rng.normal(size=(rows, params["w_hh"].shape[0])))
        tokens = rng.integers(0, len(ALPHABET) + 1, size=rows)
        expected = float_bits(allocating_step(params, h, tokens))
        assert np.array_equal(float_bits(rnn._step(params, h, tokens)), expected)
        out = np.full_like(h, np.nan)
        assert rnn._step(params, h, tokens, out=out) is out
        assert np.array_equal(float_bits(out), expected)


class TestTraining:
    def test_memorization_loss_decreases(self):
        data = sample_balanced(4, 10, 50, np.random.default_rng(0))
        m = init_model(ALPHABET, 4, 16, np.random.default_rng(1))
        _, metrics = train(m, data, data, 3, np.random.default_rng(2), BATCH)
        losses = [e.train_loss for e in metrics]
        assert losses[0] > losses[1] > losses[2]

    def test_tomita1_converges_quickly(self):
        # Miniature run; exact 100% convergence under the default config is
        # checked by the acceptance suite.
        train_set = sample_balanced(1, 16, 2000, np.random.default_rng(3))
        dev_set = sample_balanced(1, 32, 100, np.random.default_rng(4))
        m = init_model(ALPHABET, 8, 32, np.random.default_rng(5))
        ckpts, metrics = train(m, train_set, dev_set, 6, np.random.default_rng(6), BATCH)
        assert max(e.dev_accuracy for e in metrics) >= 0.999

    def test_bitwise_deterministic(self):
        data = sample_balanced(2, 8, 64, np.random.default_rng(0))
        runs = []
        for _ in range(2):
            m = init_model(ALPHABET, 4, 8, np.random.default_rng(1))
            ckpts, _ = train(m, data, data, 2, np.random.default_rng(2), BATCH)
            runs.append(ckpts[-1].params)
        assert all(np.array_equal(runs[0][k], runs[1][k]) for k in runs[0])

    def test_best_checkpoint_prefers_highest_epoch(self):
        ckpts = [Checkpoint({}, {"epoch": e, "dev_accuracy": acc})
                 for e, acc in ((1, 1.0), (2, 0.9), (3, 1.0))]
        assert rnn.best_checkpoint(ckpts).metadata["epoch"] == 3

    def test_empty_sets_rejected(self, rng):
        m = init_model(ALPHABET, 4, 8, rng)
        with pytest.raises(ValueError):
            train(m, as_samples([]), as_samples([labeled(1, "a")]), 1, rng, BATCH)

    def test_mixed_lengths_rejected_before_any_step(self, rng, monkeypatch):
        calls = []
        step = rnn.loss_and_grads
        monkeypatch.setattr(rnn, "loss_and_grads", lambda *a: calls.append(1) or step(*a))
        data = as_samples([labeled(1, "a"), labeled(1, "aa")])
        m = init_model(ALPHABET, 4, 8, rng)
        with pytest.raises(ValueError, match="same-length"):
            train(m, data, data, 1, rng, 1)
        assert calls == []


class TestSaturation:
    """Two worked saturation levels, eps = |h/|h| - sign(h)/sqrt(d)|, and the
    merge tolerance kappa_bound gives each."""

    def test_exact_sign_pattern_is_zero(self, rng):
        # A state on its own sign pattern is saturated exactly: eps = 0, and the
        # bound is its exact value 2/d.
        d = 16
        sign = np.where(rng.normal(size=d) >= 0, 1.0, -1.0)
        h = sign / math.sqrt(d)
        eps = float(np.linalg.norm(h / np.linalg.norm(h) - sign / math.sqrt(d)))
        assert eps == 0.0
        assert kappa_bound(d, eps) == 0.125

    def test_formula_on_basis_vector(self):
        # A basis vector lies far from its sign pattern: eps = 1.0 reaches
        # 1/sqrt(4), so no tolerance is guaranteed safe.
        h = np.array([1.0, 0.0, 0.0, 0.0])
        sign = np.where(h >= 0, 1.0, -1.0)  # sign(0) fixed as +1
        eps = float(np.linalg.norm(h / np.linalg.norm(h) - sign / 2.0))
        assert eps == pytest.approx(math.sqrt((1 - 0.5) ** 2 + 3 * 0.25), abs=1e-12)
        assert eps >= 1 / math.sqrt(4)
        assert kappa_bound(4, eps) is None


class TestKappaBound:
    def test_d100_exact(self):
        assert kappa_bound(100, 0.0) == 0.02

    def test_infeasible_at_threshold(self):
        assert kappa_bound(16, 0.25) is None
        assert kappa_bound(4, 0.7) is None

    def test_d4(self):
        assert kappa_bound(4, 0.1) == pytest.approx(0.32, abs=1e-12)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            kappa_bound(0, 0.1)
        with pytest.raises(ValueError):
            kappa_bound(4, -0.1)


class TestLemmaAndProposition:
    def test_unit_vector_distance_identity(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 30))
            h1 = rng.normal(size=d)
            h2 = rng.normal(size=d)
            h1 /= np.linalg.norm(h1)
            h2 /= np.linalg.norm(h2)
            lhs = np.linalg.norm(h1 - h2) ** 2
            rhs = 2 * (1 - float(h1 @ h2))
            assert abs(lhs - rhs) <= 1e-9

    def test_sign_patterns_agree_under_bound(self, rng):
        # Perturbed normalized sign patterns: cosine above 1 - kappa with
        # kappa inside the feasibility bound forces equal sign patterns.
        violations = 0
        for d in (4, 8, 16):
            for _ in range(2000):
                eps = float(rng.uniform(0, 0.9 / math.sqrt(d)))
                kappa = 0.999 * kappa_bound(d, eps)
                signs = []
                vecs = []
                for _ in range(2):
                    s = np.where(rng.random(d) < 0.5, -1.0, 1.0)
                    delta = rng.normal(size=d)
                    delta *= rng.uniform(0, eps) / max(np.linalg.norm(delta), 1e-12)
                    signs.append(s)
                    vecs.append(s / math.sqrt(d) + delta)
                cos = float(vecs[0] @ vecs[1]) / (np.linalg.norm(vecs[0]) * np.linalg.norm(vecs[1]))
                if cos >= 1 - kappa and not np.array_equal(signs[0], signs[1]):
                    violations += 1
        assert violations == 0


class TestCheckpointIO:
    def test_lossless_round_trip(self, rng):
        m = init_model(ALPHABET, 4, 8, rng)
        ckpt = Checkpoint(m.params, {"language": 3, "epoch": 7, "seed": 0,
                                     "dev_accuracy": 0.98765432101234567,
                                     "param_norm": 12.5})
        back, alphabet = load_checkpoint(save_checkpoint(ckpt, ALPHABET))
        assert alphabet == ALPHABET
        assert back.metadata["language"] == 3
        assert back.metadata["dev_accuracy"] == ckpt.metadata["dev_accuracy"]
        for k in ckpt.params:
            assert np.array_equal(back.params[k], ckpt.params[k])
        restored = model_from_checkpoint(back, alphabet)
        assert np.array_equal(forward(restored, "abba").yhat, forward(m, "abba").yhat)

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            load_checkpoint("format checkpoint 42\n")

    @staticmethod
    def saved_lines(rng):
        ckpt = Checkpoint(init_model(ALPHABET, 2, 3, rng).params, {"epoch": 7, "language": 3})
        return save_checkpoint(ckpt, ALPHABET).splitlines()

    @pytest.mark.parametrize("extra, why", [
        ("alphabet a b", "repeated"), ("meta epoch 7", "repeated"), ("param b_out 2", "repeated"),
        ("param w_extra 2", "unrecognized")])
    def test_rejects_extra_line(self, rng, extra, why):
        text = "\n".join(self.saved_lines(rng) + [extra, "0.0 0.0"]) + "\n"
        with pytest.raises(ValueError, match=f"{why} checkpoint line: '{extra}'"):
            load_checkpoint(text)

    @pytest.mark.parametrize("sizes", ["-1 3", "3 -1", "0 3", "3 0", "3 1.5", "3 x"])
    def test_rejects_sizes_that_are_not_positive_integers(self, rng, sizes):
        # reshape would infer a -1 and take 0 as an empty axis.
        lines = self.saved_lines(rng)
        lines[lines.index("param w_hh 3 3")] = f"param w_hh {sizes}"
        with pytest.raises(ValueError, match=f"positive integers: 'param w_hh {sizes}'"):
            load_checkpoint("\n".join(lines) + "\n")

    @pytest.mark.parametrize("run", sorted(path.name for path in SHIPPED.glob("tomita*")))
    def test_resaving_the_last_shipped_checkpoint_reproduces_it(self, run):
        path = sorted((SHIPPED / run).glob("epoch*.ckpt"))[-1]
        text = path.read_text()
        assert save_checkpoint(*load_checkpoint(text)) == text

    @pytest.mark.parametrize("dropped", ["alphabet", "param w_hh"])
    def test_rejects_missing_line(self, rng, dropped):
        lines = self.saved_lines(rng)
        start = next(i for i, line in enumerate(lines) if line.startswith(dropped))
        del lines[start:start + (2 if dropped.startswith("param") else 1)]
        with pytest.raises(ValueError, match=f"no {dropped} line"):
            load_checkpoint("\n".join(lines) + "\n")
