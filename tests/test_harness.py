"""Tests for the experiment driver: caching, fidelity, CSV output, summaries."""

import csv
import dataclasses
import io
import json
import logging
import shutil
import statistics
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from statemerge import harness, rnn
from statemerge.automata import AlphabetError, Dfa, prefix_decisions
from statemerge.extraction import build_prefix_tree, extract
from statemerge.harness import (METRIC_FIELDS, RESULT_FIELDS, ExperimentConfig,
                                ExtractionConfig, FidelityResult, ResultRow, TrainingConfig,
                                best_model, ensure_trained, eval_set_for, extraction_strings,
                                fidelity, full_scale_config, load_finished_run,
                                reproduce_table2, run_dir, run_extraction,
                                run_kmeans_baseline, summarize, sweep_epochs, sweep_kappa,
                                to_csv)
from statemerge.kmeans import kmeans_extract
from statemerge.languages import ALPHABET, gold_dfa, sample_eval_set
from statemerge.rnn import (EpochMetrics, eval_reference, forward, init_model, load_checkpoint,
                            save_checkpoint)

from conftest import (as_samples, fixture_model, forward_many, labeled, padded_eval_reference,
                      padded_fidelity, pairs, random_dfa)


SHIPPED = Path(__file__).resolve().parent.parent / "artifacts" / "models"
TINY = dict(n_train=40, train_len=6, n_dev=20, dev_len=8,
            embed_dim=4, hidden_dim=8, epochs=2)
SMALL_EXPERIMENT = ExperimentConfig(extraction=ExtractionConfig(n_strings=40, string_len=6),
                                    n_eval=100)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    cache = tmp_path_factory.mktemp("models")
    config = TrainingConfig(language=1, seed=0, **TINY)
    checkpoints, metrics = ensure_trained(config, cache)
    return cache, config, checkpoints, metrics


class TestTrainingConfig:
    def test_cache_key_stable(self):
        a = TrainingConfig(language=3, seed=1)
        b = TrainingConfig(language=3, seed=1)
        assert a.cache_key() == b.cache_key()

    def test_cache_key_sensitive_to_fields(self):
        base = TrainingConfig(language=3)
        for field in ("seed", "n_train", "epochs", "hidden_dim"):
            changed = dataclasses.replace(base, **{field: getattr(base, field) + 1})
            assert changed.cache_key() != base.cache_key()

    def test_cache_key_sensitive_to_optimizer(self, monkeypatch):
        config = TrainingConfig(language=3)
        key = config.cache_key()
        monkeypatch.setattr(rnn, "ADAMW", dataclasses.replace(rnn.ADAMW, lr=2e-3))
        assert config.record()["lr"] == 2e-3
        assert config.cache_key() != key

    @pytest.mark.parametrize("language", range(1, 8))
    def test_full_scale_config_names_the_shipped_run(self, language):
        config = full_scale_config(language)
        stored = json.loads((run_dir(config, SHIPPED) / "config.json").read_text())
        assert stored == config.record()


class TestCsv:
    def test_rows_round_trip(self):
        rows = [ResultRow(2, "state_merging", 0, 5, 300, 0.01, 1.0, 0.99, 0.98, 7, 2, 0.5)]
        text = to_csv(RESULT_FIELDS, rows)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 1
        assert parsed[0]["language"] == "2"
        assert parsed[0]["acc_vs_gold"] == "0.99"
        assert parsed[0]["prefix_vs_rnn"] == "0.98"
        assert parsed[0]["minimized_size"] == "2"

    def test_metrics_csv_header(self):
        text = to_csv(METRIC_FIELDS, [EpochMetrics(1, 0.5, 0.9, 0.8, 3.0)])
        lines = text.strip().splitlines()
        assert lines[0].split(",")[0] == "epoch"
        assert len(lines) == 2

    @pytest.mark.parametrize("path", sorted(SHIPPED.glob("*/metrics.csv")),
                             ids=lambda path: path.parent.name)
    def test_shipped_metrics_reserialize_byte_for_byte(self, path):
        assert to_csv(METRIC_FIELDS, harness._load_metrics(path)).encode() == path.read_bytes()


class TestSummarize:
    def test_recomputes_mean_and_std(self):
        accs = [1.0, 0.9, 0.95]
        rows = [ResultRow(4, "kmeans", s, 0, 300, 0.0, a, a, a, 5, 5, 0.1)
                for s, a in enumerate(accs)]
        summary = summarize(rows)
        entry = summary[(4, "kmeans")]
        assert entry.mean_acc == pytest.approx(statistics.fmean(accs))
        assert entry.std_acc == pytest.approx(statistics.pstdev(accs))
        assert entry.sizes == [5, 5, 5]

    def test_groups_by_language_and_method(self):
        rows = [ResultRow(1, "state_merging", 0, 0, 300, 0.01, 1.0, 1.0, 1.0, 1, 1, 0.1),
                ResultRow(1, "kmeans", 0, 0, 300, 0.0, 0.8, 0.8, 0.9, 3, 3, 0.1)]
        summary = summarize(rows)
        assert set(summary) == {(1, "state_merging"), (1, "kmeans")}


def rename(dfa, ids):
    """The machine with state q renamed ids[q]."""
    return Dfa(dfa.alphabet, {ids[q] for q in dfa.states}, ids[dfa.initial],
               {(ids[q], t): ids[r] for (q, t), r in dfa.transitions.items()},
               {ids[q] for q in dfa.accepting})


def per_string_fidelity(dfa, model, eval_set):
    """The oracle: each string's machine verdicts by prefix_decisions against
    the model's decisions on that string run alone, counted string by string."""
    eval_set = pairs(eval_set)
    runs = [(prefix_decisions(dfa, s.x), rnn._accepts(forward(model, s.x).yhat).tolist())
            for s in eval_set]
    agree = [p == q for dfa_preds, rnn_preds in runs for p, q in zip(dfa_preds, rnn_preds)]
    return FidelityResult(sum(d[-1] == r[-1] for d, r in runs) / len(runs),
                          sum(d[-1] == s.y[-1] for (d, _), s in zip(runs, eval_set)) / len(runs),
                          sum(agree) / len(agree))


class TestFidelity:
    def test_accept_all_dfa_matches_label_rate(self, rng):
        # A one-state accept-all machine agrees with the stored labels exactly
        # on the positive samples.
        dfa = Dfa(ALPHABET, {0}, 0, {(0, "a"): 0, (0, "b"): 0}, {0})
        model = init_model(ALPHABET, 4, 8, rng)
        eval_set = sample_eval_set(4, 200, 10, rng)
        result = fidelity(dfa, eval_reference(model, eval_set))
        positive_rate = sum(s.y[-1] for s in pairs(eval_set)) / len(eval_set)
        assert result.vs_gold == pytest.approx(positive_rate)

    def test_prefix_decisions_match_per_string_forward(self, rng):
        model = init_model(ALPHABET, 4, 8, rng)
        dfa = gold_dfa(3)
        strings = ["", "a", "ab", "bba", "abab", "ab", "bbab"]
        eval_set = as_samples([labeled(3, w) for w in strings])
        result = fidelity(dfa, eval_reference(model, eval_set))
        assert result == per_string_fidelity(dfa, model, eval_set)

    def test_matches_one_pass_over_the_whole_set(self, rng):
        # The reference's batches, one per length, are the batches of one
        # forward_many call over the whole set.
        model = init_model(ALPHABET, 4, 8, rng)
        dfa = gold_dfa(4)
        samples = sample_eval_set(4, 300, 12, rng)
        eval_set = pairs(samples)
        runs = [rnn._accepts(r.yhat).tolist() for r in forward_many(model, [s.x for s in eval_set])]
        both = [(prefix_decisions(dfa, s.x), r) for s, r in zip(eval_set, runs)]
        agree = [p == q for dfa_preds, rnn_preds in both for p, q in zip(dfa_preds, rnn_preds)]
        result = fidelity(dfa, eval_reference(model, samples))
        assert result.prefix_vs_rnn == sum(agree) / len(agree)
        assert result.vs_rnn == sum(d[-1] == r[-1] for d, r in both) / len(both)
        assert result.vs_gold == sum(d[-1] == s.y[-1]
                                     for (d, _), s in zip(both, eval_set)) / len(both)

    def test_table_walk_matches_per_string_oracle(self, rng):
        model = init_model(ALPHABET, 4, 8, rng)
        eval_set = sample_eval_set(5, 150, 9, rng)
        reference = eval_reference(model, eval_set)
        machines = [gold_dfa(5),
                    # The gold machine with its alphabet listed in the other order.
                    Dfa(("b", "a"), *dataclasses.astuple(gold_dfa(5))[1:]),
                    # A machine over a larger alphabet, with state ids {5, 9}.
                    Dfa(("a", "b", "c"), {5, 9}, 9,
                        {(9, "a"): 5, (5, "b"): 9, (5, "c"): 5, (9, "c"): 9}, {9})]
        for _ in range(30):
            dfa = random_dfa(rng, int(rng.integers(1, 8)))
            ids = rng.choice(100, size=len(dfa.states), replace=False).tolist()
            machines.append(rename(dfa, ids))
        for dfa in machines:
            assert fidelity(dfa, reference) == per_string_fidelity(dfa, model, eval_set)

    def test_machine_missing_a_token_rejected(self, rng):
        model = init_model(ALPHABET, 4, 8, rng)
        reference = eval_reference(model, as_samples([labeled(1, "aa")]))
        with pytest.raises(AlphabetError):
            fidelity(Dfa(("a",), {0}, 0, {(0, "a"): 0}, {0}), reference)

    def test_empty_eval_set_rejected(self, rng):
        model = init_model(ALPHABET, 4, 8, rng)
        with pytest.raises(ValueError):
            eval_reference(model, as_samples([]))


def machines_for(rng, alphabet):
    """Machines to score: gold ones, one missing every b edge (its walks fall
    into the sink row), one over a larger alphabet with state ids {5, 9}, and
    random sparse and dense ones, some renamed."""
    machines = [gold_dfa(2), gold_dfa(6), Dfa(("b", "a"), *dataclasses.astuple(gold_dfa(5))[1:]),
                Dfa(alphabet, {0, 1}, 0, {(0, "a"): 1, (1, "a"): 0}, {1}),
                Dfa(("a", "b", "c"), {5, 9}, 9,
                    {(9, "a"): 5, (5, "b"): 9, (5, "c"): 5, (9, "c"): 9}, {9})]
    for p in (0.3, 0.85, 1.0):
        dfa = random_dfa(rng, int(rng.integers(1, 7)), edge_prob=p)
        machines.append(rename(dfa, rng.choice(50, size=len(dfa.states), replace=False).tolist()))
    return machines


class TestFidelityOracle:
    """fidelity against the earlier walk of the padded eval grid."""

    @staticmethod
    def assert_matches(model, samples, machines):
        """samples is a list of pairs, its tokens indices in the model's alphabet."""
        reference = eval_reference(model, as_samples(samples, model.alphabet))
        padded = padded_eval_reference(model, samples)
        for dfa in machines:
            assert repr(fidelity(dfa, reference)) == repr(padded_fidelity(dfa, padded))

    def test_random_tiny_models(self):
        rng = np.random.default_rng(41)
        for trial in range(24):
            alphabet = ("a", "b") if trial % 2 else ("b", "a")
            model = init_model(alphabet, 3, 5, rng)
            language = trial % 7 + 1
            mixed = pairs(sample_eval_set(language, int(rng.integers(1, 40)), 9, rng))
            mixed += [labeled(language, "")] + [mixed[i] for i in rng.integers(0, len(mixed), 3)]
            sets = [[mixed[i] for i in rng.permutation(len(mixed))], [labeled(language, "")] * 2,
                    [labeled(language, "abba")]]
            for samples in sets:
                self.assert_matches(model, samples, machines_for(rng, alphabet))

    @pytest.mark.parametrize("language", range(1, 8))
    def test_fixture_models(self, language):
        model = fixture_model(language)
        samples = sample_eval_set(language, 200, 50, np.random.default_rng([language, 999]))
        tree = build_prefix_tree(model, extraction_strings(language, 100, 10, 0))
        machines = [extract(tree, 0.01).final, extract(tree, 0.4).final,
                    kmeans_extract(tree, 20, np.random.default_rng(0)), gold_dfa(language)]
        others = machines_for(np.random.default_rng(language), model.alphabet)
        self.assert_matches(model, pairs(samples), machines + others)

    def test_machine_missing_a_token_rejected(self, rng):
        model = init_model(ALPHABET, 4, 8, rng)
        samples = [labeled(1, "aa"), labeled(1, "")]
        dfa = Dfa(("a",), {0}, 0, {(0, "a"): 0}, {0})
        with pytest.raises(AlphabetError):
            fidelity(dfa, eval_reference(model, as_samples(samples)))
        with pytest.raises(AlphabetError):
            padded_fidelity(dfa, padded_eval_reference(model, samples))


class TestTrainingCache:
    def test_writes_artifacts_and_reloads(self, tiny_run):
        cache, config, checkpoints, metrics = tiny_run
        out_dir = cache / f"tomita1_seed0_{config.cache_key()}"
        assert (out_dir / "DONE").exists()
        assert (out_dir / "epoch001.ckpt").exists()
        assert (out_dir / "epoch002.ckpt").exists()
        assert json.loads((out_dir / "config.json").read_text()) == config.record()
        reloaded, metrics2 = ensure_trained(config, cache)
        assert len(reloaded) == len(checkpoints) == config.epochs
        for a, b in zip(checkpoints, reloaded):
            for name in a.params:
                assert np.array_equal(a.params[name], b.params[name])
        assert metrics2 == metrics

    def test_no_temporary_files_remain(self, tiny_run):
        cache, config, _, _ = tiny_run
        assert sorted(p.name for p in run_dir(config, cache).iterdir()) == [
            "DONE", "config.json", "epoch001.ckpt", "epoch002.ckpt", "metrics.csv"]

    @pytest.mark.parametrize("change", [{"n_train": 1}, {"hidden_dim": 0}, {"seed": -1}])
    def test_failed_run_leaves_nothing(self, tmp_path, change):
        config = TrainingConfig(language=1, **dict(TINY, **change))
        with pytest.raises(ValueError):
            ensure_trained(config, tmp_path / "models")
        assert list(tmp_path.iterdir()) == []

    def test_best_model_runs(self, tiny_run):
        _, _, checkpoints, _ = tiny_run
        model = best_model(checkpoints)
        forward(model, "ab")


class TestCacheCheck:
    """A run directory is reused only when every file of the run checks out;
    anything else is retrained from scratch."""

    @staticmethod
    def copied_run(tiny_run, tmp_path):
        cache, config, _, _ = tiny_run
        original, copy = run_dir(config, cache), run_dir(config, tmp_path)
        shutil.copytree(original, copy)
        return config, original, copy

    @staticmethod
    def retrain(config, out_dir, caplog):
        with caplog.at_level(logging.INFO, logger="statemerge.harness"):
            ensure_trained(config, out_dir.parent)
        return caplog.text

    def test_finished_run_is_reused(self, tiny_run, tmp_path, caplog):
        config, _, copy = self.copied_run(tiny_run, tmp_path)
        assert load_finished_run(config, copy) is not None
        assert "training Tomita" not in self.retrain(config, copy, caplog)

    def test_missing_checkpoint_retrains_bit_identical(self, tiny_run, tmp_path, caplog):
        config, original, copy = self.copied_run(tiny_run, tmp_path)
        (copy / "epoch001.ckpt").unlink()
        assert load_finished_run(config, copy) is None
        log = self.retrain(config, copy, caplog)
        assert "epoch001.ckpt" in log and "training Tomita" in log
        for name in ("epoch001.ckpt", "epoch002.ckpt", "metrics.csv"):
            assert (copy / name).read_bytes() == (original / name).read_bytes()
        assert load_finished_run(config, copy) is not None

    def test_truncated_checkpoint_detected(self, tiny_run, tmp_path, caplog):
        config, original, copy = self.copied_run(tiny_run, tmp_path)
        text = (copy / "epoch002.ckpt").read_text()
        last_values = text.index("\n", text.index("param b_out")) + 1
        for cut in (len(text) // 2, last_values, len(text) - 2, len(text) - 1):
            (copy / "epoch002.ckpt").write_text(text[:cut])
            assert load_finished_run(config, copy) is None, cut
        assert "training Tomita" in self.retrain(config, copy, caplog)
        assert (copy / "epoch002.ckpt").read_text() == text

    def test_short_metrics_detected(self, tiny_run, tmp_path):
        config, _, copy = self.copied_run(tiny_run, tmp_path)
        lines = (copy / "metrics.csv").read_text().splitlines(keepends=True)
        (copy / "metrics.csv").write_text("".join(lines[:-1]))
        assert load_finished_run(config, copy) is None

    @pytest.mark.parametrize("change", [
        {"meta": ("language", 2)}, {"meta": ("seed", 1)}, {"meta": ("epoch", 1)},
        {"param": ("w_hh", (7, 7))}, {"param": ("embed", (3, 5))},
    ])
    def test_mismatched_checkpoint_detected(self, tiny_run, tmp_path, change):
        config, _, copy = self.copied_run(tiny_run, tmp_path)
        path = copy / "epoch002.ckpt"
        ckpt, alphabet = load_checkpoint(path.read_text())
        if "meta" in change:
            key, value = change["meta"]
            ckpt.metadata[key] = value
        else:
            name, shape = change["param"]
            ckpt.params[name] = np.zeros(shape)
        path.write_text(save_checkpoint(ckpt, alphabet))
        assert load_finished_run(config, copy) is None

    def test_other_config_not_reused(self, tiny_run, tmp_path):
        config, _, copy = self.copied_run(tiny_run, tmp_path)
        assert load_finished_run(dataclasses.replace(config, hidden_dim=9), copy) is None
        assert load_finished_run(dataclasses.replace(config, epochs=1), copy) is None

    def test_other_optimizer_not_reused(self, tiny_run, tmp_path):
        config, _, copy = self.copied_run(tiny_run, tmp_path)
        stored = json.loads((copy / "config.json").read_text())
        (copy / "config.json").write_text(json.dumps(stored | {"lr": 2e-3}, indent=2))
        assert load_finished_run(config, copy) is None


class TestExperiments:
    def test_extraction_strings_deterministic(self):
        a = extraction_strings(5, 30, 8, seed=2)
        b = extraction_strings(5, 30, 8, seed=2)
        assert pairs(a) == pairs(b)
        assert len(a) == 30
        assert all(len(s.x) == 8 for s in pairs(a))

    def test_eval_set_respects_language(self):
        eval_set = eval_set_for(6, SMALL_EXPERIMENT)
        assert len(eval_set) == SMALL_EXPERIMENT.n_eval
        gold = gold_dfa(6)
        for s in pairs(eval_set):
            assert s.y[-1] == gold.accepts(s.x)

    def test_run_extraction_row(self, tiny_run):
        _, _, checkpoints, _ = tiny_run
        model = best_model(checkpoints)
        strings = extraction_strings(1, 40, 6, seed=0)
        reference = eval_reference(model, eval_set_for(1, SMALL_EXPERIMENT))
        row, report = run_extraction(1, 0, 0, build_prefix_tree(model, strings), 0.01,
                                     reference)
        assert row.method == "state_merging"
        assert (row.data_count, row.kappa) == (40, 0.01)
        assert row.merged_size == report.sizes[1]
        assert row.minimized_size == report.sizes[2]
        fid = fidelity(report.final, reference)
        assert (row.acc_vs_rnn, row.acc_vs_gold, row.prefix_vs_rnn) == dataclasses.astuple(fid)
        # The extracted machine reproduces the model on its own training set.
        assert report.train_fidelity == 1.0

    def test_run_kmeans_row(self, tiny_run):
        _, _, checkpoints, _ = tiny_run
        model = best_model(checkpoints)
        strings = extraction_strings(1, 40, 6, seed=0)
        reference = eval_reference(model, eval_set_for(1, SMALL_EXPERIMENT))
        row, dfa = run_kmeans_baseline(1, 0, 0, build_prefix_tree(model, strings), 3,
                                       reference)
        assert (row.method, row.data_count) == ("kmeans", 40)
        assert row.minimized_size == len(dfa.states)
        fid = fidelity(dfa, reference)
        assert (row.acc_vs_rnn, row.acc_vs_gold, row.prefix_vs_rnn) == dataclasses.astuple(fid)


class TestSweeps:
    CONFIG = dataclasses.replace(SMALL_EXPERIMENT, seeds=(0, 1))

    @pytest.fixture
    def draws(self, monkeypatch):
        """Count the string sets and eval sets the experiments draw, and the
        prefix trees they build."""
        counts = Counter()

        def counted(name, draw):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return draw(*args, **kwargs)
            return wrapper

        for name in ("extraction_strings", "eval_set_for", "build_prefix_tree"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        return counts

    def test_each_input_drawn_once(self, tiny_run, draws):
        _, _, checkpoints, _ = tiny_run
        model = best_model(checkpoints)
        rows, _ = reproduce_table2(dataclasses.replace(self.CONFIG, languages=(1,)), {1: model})
        assert [(r.seed, r.method) for r in rows] == [
            (0, "state_merging"), (0, "kmeans"), (1, "state_merging"), (1, "kmeans")]
        assert draws == {"extraction_strings": 2, "eval_set_for": 1, "build_prefix_tree": 2}
        draws.clear()
        sweep_kappa(dataclasses.replace(self.CONFIG, languages=(1,), seeds=(0,)), model)
        assert draws == {"extraction_strings": 1, "eval_set_for": 1, "build_prefix_tree": 1}
        draws.clear()
        # One tree per (epoch, seed): a tree holds its model's hidden states.
        sweep_epochs(self.CONFIG, {1: checkpoints})
        assert draws == {"extraction_strings": 2, "eval_set_for": 1, "build_prefix_tree": 4}

    def test_table2_thread_pool_gives_the_sequential_rows(self, monkeypatch):
        # threads > 1 runs the (language, seed) jobs on a thread pool, and
        # pool.map must keep the sequential loop's rows and their order.
        config = ExperimentConfig(seeds=(0, 1), n_eval=100,
                                  extraction=ExtractionConfig(n_strings=100))
        models = {language: fixture_model(language) for language in config.languages}
        on_main, run_extraction = set(), harness.run_extraction

        def recorded(*args):
            on_main.add(threading.current_thread() is threading.main_thread())
            return run_extraction(*args)

        monkeypatch.setattr(harness, "run_extraction", recorded)
        results = {}
        for threads in (1, 2):
            on_main.clear()
            rows, summary = reproduce_table2(dataclasses.replace(config, threads=threads), models)
            results[threads] = [dataclasses.replace(row, wall_time=0.0) for row in rows], summary
            assert on_main == {threads == 1}
        assert len(results[1][0]) == 28
        assert results[2] == results[1]

    @pytest.mark.parametrize("languages, seeds", [((1,), (0, 1)), ((1, 2), (0,)), ((1,), ())])
    def test_sweep_kappa_needs_one_language_and_one_seed(self, tiny_run, languages, seeds):
        model = best_model(tiny_run[2])
        config = dataclasses.replace(self.CONFIG, languages=languages, seeds=seeds)
        with pytest.raises(ValueError, match="one language and one seed"):
            sweep_kappa(config, model)

    def test_sweep_epochs_row_per_epoch_and_seed(self, tiny_run):
        _, _, checkpoints, _ = tiny_run
        rows = sweep_epochs(self.CONFIG, {1: checkpoints})
        assert [(r.epoch, r.seed) for r in rows] == [(1, 0), (1, 1), (2, 0), (2, 1)]
        assert all(r.language == 1 and r.data_count == 40 for r in rows)
