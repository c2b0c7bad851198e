"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a single
PASS/FAIL verdict line (run with -s to see them on success).  The property
and training-sanity criteria run first; the experiment criteria depend on the
recognizers shipped under artifacts/models, trained with the protocol of
harness.full_scale_config.  The suite never trains:
a shipped run that the training cache does not accept fails the suite, naming
the run, and ``statemerge --out artifacts --language N train``
regenerates it.

Pinned tolerances:
  criterion 1: fidelity exactly 1.0 and gold sizes on all 5 extraction seeds
               for languages 1-6; language 7 mean fidelity >= 0.99 and gold
               size on >= 3 of 5 seeds.
  criterion 2: languages 1-6 fidelity exactly 1.0 with gold sizes; language 7
               mean fidelity in [0.50, 0.65] with minimized size 1.
  criterion 3: gold-equivalent machine from at most 40 strings of length 10.
  criterion 4: binary (overmerged at kappa=0.5, gold 2-state at kappa=0.01).
  criterion 5: trend only (strict median improvement; size trend on >= 5 of
               7 languages).
  criterion 6: gradient check <= 1e-4, norm identity <= 1e-9, 10,000
               sign-pattern trials with zero violations, exact bound value,
               zero oracle disagreements to length 12.
  criterion 7: per-prefix dev accuracy exactly 1.0 for every language.
"""

import dataclasses
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from statemerge.automata import Dfa, determinize, equivalent, minimize
from statemerge.extraction import build_prefix_tree, merge_all
from statemerge.harness import (ExperimentConfig, best_model, eval_set_for, extraction_strings,
                                full_scale_config, load_finished_run, run_dir, run_extraction,
                                run_kmeans_baseline, sweep_data_size)
from statemerge.languages import ALPHABET, gold_dfa
from statemerge.rnn import (eval_reference, init_model, kappa_bound, loss_and_grads,
                            model_from_checkpoint)

from conftest import all_strings, as_samples, random_dfa, random_nfa, same_language
from test_languages import REFERENCE_ORACLES

CACHE = Path(__file__).resolve().parent.parent / "artifacts" / "models"
GOLD_SIZES = {1: 1, 2: 2, 3: 4, 4: 3, 5: 4, 6: 3, 7: 4}
LANGUAGES = tuple(range(1, 8))
SEEDS = (0, 1, 2, 3, 4)
CONFIG = ExperimentConfig()
KAPPA = CONFIG.extraction.kappa


def verdict(number, name, ok, detail):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def shipped_run(language):
    """The shipped run for language, by the training cache's check alone, so
    that a rejected run fails at once and is left as it was."""
    config = full_scale_config(language)
    out_dir = run_dir(config, CACHE)
    run = load_finished_run(config, out_dir)
    if run is None:
        pytest.fail(f"{out_dir} is not a finished run of tomita {language}'s training "
                    f"config and the suite trains nothing; regenerate it from the repository "
                    f"root with PYTHONPATH=src python -m statemerge.cli --out artifacts "
                    f"--language {language} train")
    return run


@pytest.fixture(scope="session")
def shipped_runs():
    """Every shipped run's checkpoints and metrics, parsed once per session."""
    return {language: shipped_run(language) for language in LANGUAGES}


@pytest.fixture(scope="session")
def trained(shipped_runs):
    models, all_metrics = {}, {}
    for language in LANGUAGES:
        checkpoints, metrics = shipped_runs[language]
        peak = max(m.dev_accuracy for m in metrics)
        if peak < 1.0:
            pytest.fail(f"recognizer for tomita {language} peaked at per-prefix "
                        f"dev accuracy {peak:.5f} < 1.0; experiment criteria "
                        f"aborted")
        models[language] = best_model(checkpoints)
        all_metrics[language] = metrics
    return models, all_metrics


@pytest.fixture(scope="session")
def eval_sets():
    """CONFIG's eval set per language, drawn once."""
    return {language: eval_set_for(language, CONFIG) for language in LANGUAGES}


@pytest.fixture(scope="session")
def references(trained, eval_sets):
    """Each best model's decisions on its eval set, computed once."""
    models, _ = trained
    return {language: eval_reference(models[language], eval_sets[language])
            for language in LANGUAGES}


@pytest.fixture(scope="session")
def strings():
    """CONFIG's extraction strings per (language, seed), drawn once."""
    ext = CONFIG.extraction
    return {(language, seed): extraction_strings(language, ext.n_strings, ext.string_len, seed)
            for language in LANGUAGES for seed in SEEDS}


@pytest.fixture(scope="session")
def trees(trained, strings):
    """The best model's prefix tree of each (language, seed)'s strings,
    built once for state merging and k-means alike."""
    models, _ = trained
    return {(language, seed): build_prefix_tree(models[language], strings[language, seed])
            for language, seed in strings}


@pytest.fixture(scope="session")
def epoch_checkpoints(shipped_runs):
    return {language: checkpoints for language, (checkpoints, _) in shipped_runs.items()}


class TestCriterion6Properties:
    def test_automata_random_machines(self, rng):
        for _ in range(100):
            nfa = random_nfa(rng, int(rng.integers(1, 7)))
            dfa = determinize(nfa)
            assert same_language(nfa, dfa, 10)
        for _ in range(100):
            dfa = random_dfa(rng, int(rng.integers(1, 9)))
            small = minimize(dfa)
            assert same_language(dfa, small, 10)
            assert len(minimize(small).states) == len(small.states)
            self._assert_minimality_witness(small)

    @staticmethod
    def _assert_minimality_witness(dfa):
        # Every pair of live states must be separated by some suffix.
        states = sorted(dfa.states)
        for i, p in enumerate(states):
            for q in states[i + 1:]:
                variant = Dfa(dfa.alphabet, dfa.states, q, dict(dfa.transitions),
                              set(dfa.accepting))
                reference = Dfa(dfa.alphabet, dfa.states, p, dict(dfa.transitions),
                                set(dfa.accepting))
                assert not same_language(reference, variant, len(states) + 1)

    def test_rnn_properties(self, rng):
        m = init_model(ALPHABET, 4, 8, np.random.default_rng(11))
        ids = np.array([[2, 0, 1, 0, 1, 1, 0]])
        labels = np.array([[1, 0, 1, 0, 1, 1, 0]])
        _, grads = loss_and_grads(m.params, ids, labels)
        step = 1e-6
        worst = 0.0
        for name, p in m.params.items():
            for _ in range(10):
                idx = np.unravel_index(int(rng.integers(p.size)), p.shape)
                shifted = {k: v.copy() for k, v in m.params.items()}
                shifted[name][idx] += step
                up, _ = loss_and_grads(shifted, ids, labels)
                shifted[name][idx] -= 2 * step
                down, _ = loss_and_grads(shifted, ids, labels)
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric), abs(grads[name][idx]), 1e-8)
                worst = max(worst, abs(numeric - grads[name][idx]) / denom)
        assert worst <= 1e-4

        for _ in range(500):
            d = int(rng.integers(2, 30))
            h1, h2 = rng.normal(size=d), rng.normal(size=d)
            h1 /= np.linalg.norm(h1)
            h2 /= np.linalg.norm(h2)
            assert abs(np.linalg.norm(h1 - h2) ** 2 - 2 * (1 - h1 @ h2)) <= 1e-9

        violations = 0
        for _ in range(10_000):
            d = int(rng.choice((4, 8, 16, 100)))
            eps = float(rng.uniform(0, 0.9 / math.sqrt(d)))
            kappa = 0.999 * kappa_bound(d, eps)
            signs, vecs = [], []
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
        assert kappa_bound(100, 0.0) == 0.02

    def test_extraction_properties(self, rng):
        m = init_model(ALPHABET, 4, 8, np.random.default_rng(0))
        for trial in range(100):
            n = int(rng.integers(1, 12))
            strings = ["".join(rng.choice(ALPHABET, size=rng.integers(0, 9)))
                       for _ in range(n)]
            tree = build_prefix_tree(m, as_samples(strings))
            kappa = float(rng.uniform(0.001, 0.9))
            merged = merge_all(tree, kappa)
            # Every training string keeps a path, and positive strings keep a
            # path ending in an accepting state.
            for w in strings:
                current = {merged.initial}
                for token in w:
                    current = {d for s in current
                               for d in merged.transitions.get((s, token), ())}
                    assert current, f"path lost for {w!r} at kappa={kappa}"
                if tree.labels[tree.state_of(w)]:
                    assert current & merged.accepting
        tree = build_prefix_tree(m, as_samples(["abba", "baab", "bb", "aaa"]))
        untouched = merge_all(tree, 1e-12)
        assert set(untouched.states) == set(range(tree.n_states))

    def test_language_oracles(self):
        words = all_strings(ALPHABET, 12)
        for language in LANGUAGES:
            oracle, gold = REFERENCE_ORACLES[language], gold_dfa(language)
            disagreements = sum(gold.accepts(w) != oracle(w) for w in words)
            assert disagreements == 0

    def test_verdict(self):
        verdict(6, "property suite", True,
                "automata, gradient, saturation, extraction and oracle "
                "properties all hold")


class TestCriterion7TrainingSanity:
    def test_every_language_converges(self, trained):
        _, all_metrics = trained
        peaks = {language: max(m.dev_accuracy for m in metrics)
                 for language, metrics in all_metrics.items()}
        ok = all(p == 1.0 for p in peaks.values())
        verdict(7, "training sanity", ok,
                "peak per-prefix dev accuracy " +
                ", ".join(f"tomita {k}: {v:.5f}" for k, v in peaks.items()))


class TestCriterion1StateMerging:
    def test_table_reproduction(self, references, trees):
        failures = []
        t7_fidelities, t7_gold_hits = [], 0
        for language in LANGUAGES:
            for seed in SEEDS:
                row, report = run_extraction(language, seed, 0, trees[language, seed], KAPPA,
                                             references[language])
                if report.train_fidelity != 1.0:
                    failures.append(f"t{language}s{seed}: train fidelity "
                                    f"{report.train_fidelity:.4f}")
                if language == 7:
                    t7_fidelities.append(row.acc_vs_rnn)
                    t7_gold_hits += row.minimized_size == GOLD_SIZES[7]
                    continue
                if row.acc_vs_rnn != 1.0:
                    failures.append(f"t{language}s{seed}: fidelity {row.acc_vs_rnn:.4f}")
                if row.minimized_size != GOLD_SIZES[language]:
                    failures.append(f"t{language}s{seed}: size {row.minimized_size} "
                                    f"!= {GOLD_SIZES[language]}")
        t7_mean = statistics.fmean(t7_fidelities)
        if t7_mean < 0.99:
            failures.append(f"t7 mean fidelity {t7_mean:.4f} < 0.99")
        if t7_gold_hits < 3:
            failures.append(f"t7 gold size on {t7_gold_hits}/5 seeds < 3")
        verdict(1, "state-merging extraction", not failures,
                f"languages 1-6 exact on all seeds; tomita 7 mean fidelity "
                f"{t7_mean:.4f}, gold size {t7_gold_hits}/5 seeds"
                + ("; " + "; ".join(failures) if failures else ""))


class TestCriterion2KmeansBaseline:
    def test_baseline_table(self, references, trees):
        failures = []
        t7_fidelities, t7_sizes = [], []
        for language in LANGUAGES:
            for seed in SEEDS:
                row, _ = run_kmeans_baseline(language, seed, 0, trees[language, seed],
                                             CONFIG.kmeans_k, references[language])
                if language == 7:
                    t7_fidelities.append(row.acc_vs_rnn)
                    t7_sizes.append(row.minimized_size)
                    continue
                if row.acc_vs_rnn != 1.0:
                    failures.append(f"t{language}s{seed}: fidelity {row.acc_vs_rnn:.4f}")
                if row.minimized_size != GOLD_SIZES[language]:
                    failures.append(f"t{language}s{seed}: size {row.minimized_size} "
                                    f"!= {GOLD_SIZES[language]}")
        t7_mean = statistics.fmean(t7_fidelities)
        if not 0.50 <= t7_mean <= 0.65:
            failures.append(f"t7 mean fidelity {t7_mean:.4f} outside [0.50, 0.65]")
        if any(size != 1 for size in t7_sizes):
            failures.append(f"t7 sizes {t7_sizes} != all 1")
        verdict(2, "k-means baseline", not failures,
                f"languages 1-6 exact on all seeds; tomita 7 mean fidelity "
                f"{t7_mean:.4f}, sizes {t7_sizes}"
                + ("; " + "; ".join(failures) if failures else ""))


class TestCriterion3SampleEfficiency:
    def test_forty_strings_suffice(self, trained, references):
        models, _ = trained
        tree = build_prefix_tree(models[5], extraction_strings(5, 40, 10, 0))
        row, report = run_extraction(5, 0, 0, tree, KAPPA, references[5])
        ok = equivalent(report.final, gold_dfa(5))
        verdict(3, "sample efficiency", ok,
                f"tomita 5 from 40 strings of length 10: minimized size "
                f"{row.minimized_size}, fidelity {row.acc_vs_rnn:.4f}, "
                f"gold-equivalent: {ok}")


class TestCriterion4KappaSensitivity:
    def test_overmerge_and_recovery(self, references, trees):
        _, coarse = run_extraction(2, 0, 0, trees[2, 0], 0.5, references[2])
        _, fine = run_extraction(2, 0, 0, trees[2, 0], 0.01, references[2])
        overmerged = not equivalent(coarse.final, gold_dfa(2))
        recovered = (equivalent(fine.final, gold_dfa(2))
                     and fine.sizes[2] == GOLD_SIZES[2])
        verdict(4, "merge tolerance sensitivity", overmerged and recovered,
                f"kappa=0.5 sizes {coarse.sizes} overmerged: {overmerged}; "
                f"kappa=0.01 sizes {fine.sizes} gold-equivalent: {recovered}")


class TestCriterion5ImplicitMerging:
    GRID = (15, 25, 45, 75, 135, 200, 300, 500)

    def test_training_shrinks_data_needs_and_sizes(self, epoch_checkpoints, eval_sets, strings):
        final = {language: epoch_checkpoints[language][-1].metadata["epoch"]
                 for language in LANGUAGES}
        # The model and its eval reference at epoch 2 and at the final epoch.
        runs = {}
        for language in LANGUAGES:
            for ckpt in epoch_checkpoints[language]:
                if ckpt.metadata["epoch"] in (2, final[language]):
                    model = model_from_checkpoint(ckpt, ALPHABET)
                    runs[language, ckpt.metadata["epoch"]] = (
                        model, eval_reference(model, eval_sets[language]))

        def min_data(epoch):
            """Tomita 6's smallest grid entry at full fidelity, per seed 0-2."""
            model, _ = runs[6, epoch]
            rows = sweep_data_size(dataclasses.replace(CONFIG, languages=(6,), seeds=(0, 1, 2)),
                                   {6: model}, self.GRID, CONFIG.extraction.string_len)
            return [min((row.data_count for row in rows
                         if row.seed == seed and row.acc_vs_rnn == 1.0), default=math.inf)
                    for seed in (0, 1, 2)]

        early_needs, late_needs = min_data(2), min_data(final[6])
        data_ok = statistics.median(late_needs) < statistics.median(early_needs)

        def merged_size(language, epoch):
            model, reference = runs[language, epoch]
            _, report = run_extraction(language, 0, epoch,
                                       build_prefix_tree(model, strings[language, 0]), KAPPA,
                                       reference)
            return report.sizes[1]

        sizes = {language: (merged_size(language, 2), merged_size(language, final[language]))
                 for language in LANGUAGES}
        shrunk = sum(late <= early for early, late in sizes.values())
        size_ok = shrunk >= 5
        verdict(5, "implicit merging trends", data_ok and size_ok,
                f"tomita 6 min data epoch 2 {early_needs} vs final epoch "
                f"{late_needs}; merged sizes (epoch 2, final epoch) {sizes}, "
                f"shrunk or equal for {shrunk}/7 languages")
