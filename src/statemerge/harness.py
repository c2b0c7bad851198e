"""Experiment driver: trains recognizers, runs extractions and the k-means
baseline, computes fidelity, and reproduces the summary table and sweeps."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import logging
import os
import statistics
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rnn
from .automata import Dfa
from .extraction import (ExtractionReport, PrefixTree, build_prefix_tree, extract,
                         machine_verdicts)
from .kmeans import kmeans_extract
from .languages import ALPHABET, LANGUAGE_IDS, Samples, sample_balanced, sample_eval_set
from .rnn import Checkpoint, EvalReference, RnnModel, best_checkpoint, eval_reference

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingConfig:
    language: int
    seed: int = 0
    n_train: int = 20_000
    train_len: int = 50
    n_dev: int = 1_000
    dev_len: int = 100
    embed_dim: int = 10
    hidden_dim: int = 100
    epochs: int = 20
    batch_size: int = 64

    def record(self) -> dict:
        """A run's identity: these fields and the optimizer's.  config.json
        and resolved_config.json store it, and cache_key hashes it."""
        return dataclasses.asdict(self) | dataclasses.asdict(rnn.ADAMW)

    def cache_key(self) -> str:
        blob = json.dumps(self.record(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:10]


def full_scale_config(language: int, seed: int = 0) -> TrainingConfig:
    """The shipped protocol: 100k length-100 strings and 22 epochs, 24 for
    Tomita 7.  Convergence comes within a few epochs; the rest saturate the
    hidden states that merging and clustering rely on."""
    return TrainingConfig(language, seed, n_train=100_000, train_len=100, n_dev=1_000,
                          dev_len=200, epochs=24 if language == 7 else 22)


def light_config(language: int, seed: int = 0) -> TrainingConfig:
    """The benchmark's fixture models: perfbench/make_fixtures.py, its only
    caller, trains them with this protocol."""
    return TrainingConfig(language, seed, n_train=5_000, epochs=20)


@dataclass(frozen=True)
class ExtractionConfig:
    kappa: float = 0.01
    n_strings: int = 300
    string_len: int = 10


@dataclass(frozen=True)
class ExperimentConfig:
    languages: tuple[int, ...] = LANGUAGE_IDS
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    extraction: ExtractionConfig = ExtractionConfig()
    kmeans_k: int = 20
    n_eval: int = 1_000
    threads: int = 1


# The longest eval string, the merge tolerances sweep_kappa runs, and the
# data sizes and string length sweep_data_size runs by default (the length is
# even: Tomita 2 and 5 have no strings of odd length).
EVAL_MAX_LEN = 50
KAPPAS = (0.5, 0.4, 0.01)
DATA_GRID = (15, 25, 45, 75, 135, 200, 300, 500)
DATA_STRING_LEN = 16


@dataclass
class ResultRow:
    language: int
    method: str
    seed: int
    epoch: int
    data_count: int
    kappa: float
    acc_vs_rnn: float
    acc_vs_gold: float
    prefix_vs_rnn: float
    merged_size: int
    minimized_size: int
    wall_time: float


RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(ResultRow))
METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(rnn.EpochMetrics))


def to_csv(fields: tuple[str, ...], records: list) -> str:
    """A header row of fields, then each record's values of those fields."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(fields)
    for record in records:
        writer.writerow([getattr(record, f) for f in fields])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Training with on-disk caching


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def ensure_trained(config: TrainingConfig,
                   cache_dir: Path) -> tuple[list[Checkpoint], list[rnn.EpochMetrics]]:
    """Train a recognizer for one language into its run directory in the model
    cache cache_dir (see run_dir), writing per-epoch checkpoints, a metrics
    table, and config.record() as config.json.  Re-loads from disk if the
    directory already holds a finished run (see load_finished_run); any other
    directory is retrained from scratch.  Each file is written under a
    temporary name and renamed into place, DONE last; the directory is
    created only then, so a run that raises leaves no directory behind."""
    out_dir = run_dir(config, cache_dir)
    cached = load_finished_run(config, out_dir)
    if cached is not None:
        return cached
    (out_dir / "DONE").unlink(missing_ok=True)
    logger.info("training Tomita %d (seed %d, %d epochs)", config.language,
                config.seed, config.epochs)
    rng_data = _rng(config.seed, config.language, 0)
    rng_init = _rng(config.seed, config.language, 1)
    rng_train = _rng(config.seed, config.language, 2)
    train_set = sample_balanced(config.language, config.train_len, config.n_train, rng_data)
    dev_set = sample_balanced(config.language, config.dev_len, config.n_dev, rng_data)
    model = rnn.init_model(ALPHABET, config.embed_dim, config.hidden_dim, rng_init)
    checkpoints, metrics = rnn.train(model, train_set, dev_set, config.epochs,
                                     rng_train, config.batch_size)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ckpt in checkpoints:
        ckpt.metadata.update(language=config.language, seed=config.seed)
        _write_atomic(out_dir / _checkpoint_name(ckpt.metadata["epoch"]),
                      rnn.save_checkpoint(ckpt, ALPHABET))
    _write_atomic(out_dir / "metrics.csv", to_csv(METRIC_FIELDS, metrics))
    _write_atomic(out_dir / "config.json",
                  json.dumps(config.record(), indent=2, sort_keys=True))
    _write_atomic(out_dir / "DONE", "ok\n")
    return checkpoints, metrics


def load_finished_run(config: TrainingConfig, out_dir: Path
                      ) -> tuple[list[Checkpoint], list[rnn.EpochMetrics]] | None:
    """The run in out_dir if it is a finished run of config, else None.

    A run is finished when DONE is present, config.json holds config.record(),
    metrics.csv has one row per epoch, and every epochNNN.ckpt for
    1..epochs parses with metadata (language, seed, epoch) and parameter
    shapes that match config.  The first file that fails is logged."""
    if not (out_dir / "DONE").exists():
        return None

    def reject(name: str, why: str) -> None:
        logger.warning("cached run %s is not a finished run (%s: %s)", out_dir, name, why)

    try:
        stored = json.loads((out_dir / "config.json").read_text())
    except (OSError, ValueError) as exc:
        return reject("config.json", str(exc))
    if stored != config.record():
        return reject("config.json", "does not match the config")
    try:
        metrics = _load_metrics(out_dir / "metrics.csv")
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
        return reject("metrics.csv", str(exc))
    if [m.epoch for m in metrics] != list(range(1, config.epochs + 1)):
        return reject("metrics.csv", f"expected {config.epochs} epoch rows")
    shapes = {name: p.shape for name, p in rnn.init_model(
        ALPHABET, config.embed_dim, config.hidden_dim, np.random.default_rng(0)).params.items()}
    checkpoints = []
    for epoch in range(1, config.epochs + 1):
        name = _checkpoint_name(epoch)
        try:
            text = (out_dir / name).read_text()
            ckpt, alphabet = rnn.load_checkpoint(text)
        except (OSError, ValueError) as exc:
            return reject(name, str(exc))
        if not text.endswith("\n"):
            return reject(name, "truncated")
        meta = {key: ckpt.metadata.get(key) for key in ("language", "seed", "epoch")}
        if meta != {"language": config.language, "seed": config.seed, "epoch": epoch}:
            return reject(name, f"metadata {meta} does not match the config")
        if alphabet != ALPHABET or {k: p.shape for k, p in ckpt.params.items()} != shapes:
            return reject(name, "alphabet or parameter shapes do not match the config")
        checkpoints.append(ckpt)
    return checkpoints, metrics


def _checkpoint_name(epoch: int) -> str:
    return f"epoch{epoch:03d}.ckpt"


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path through a temporary sibling, so that path either
    does not exist or holds the whole text."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _load_metrics(path: Path) -> list[rnn.EpochMetrics]:
    kinds = typing.get_type_hints(rnn.EpochMetrics)
    out = []
    with path.open() as fh:
        for record in csv.DictReader(fh):
            out.append(rnn.EpochMetrics(**{f: kinds[f](record[f]) for f in METRIC_FIELDS}))
    return out


def run_dir(config: TrainingConfig, cache_dir: Path) -> Path:
    """The directory of config's run in the model cache cache_dir."""
    return cache_dir / f"tomita{config.language}_seed{config.seed}_{config.cache_key()}"


def best_model(checkpoints: list[Checkpoint]) -> RnnModel:
    return rnn.model_from_checkpoint(best_checkpoint(checkpoints), ALPHABET)


# ---------------------------------------------------------------------------
# Fidelity


@dataclass(frozen=True)
class FidelityResult:
    vs_rnn: float          # full-string agreement with the model
    vs_gold: float         # full-string agreement with the stored labels
    prefix_vs_rnn: float   # per-prefix agreement, a secondary metric


def fidelity(dfa: Dfa, reference: EvalReference) -> FidelityResult:
    """Agreement of the machine with the model and the labels, walking the
    eval strings' prefix tree once through the machine (machine_verdicts)."""
    prefixes, ends = reference.prefixes, reference.ends
    verdicts = machine_verdicts(dfa, prefixes)
    agree = (verdicts == prefixes.labels)[prefixes.visits]
    agree_rnn, agree_gold, prefix_agree = (int(np.count_nonzero(a)) for a in (
        agree[ends], verdicts[prefixes.visits[ends]] == reference.labels[ends], agree))
    return FidelityResult(agree_rnn / len(ends), agree_gold / len(ends),
                          prefix_agree / len(agree))


# ---------------------------------------------------------------------------
# Experiments


def extraction_strings(language: int, count: int, length: int, seed: int) -> Samples:
    return sample_balanced(language, length, count, _rng(seed, language, 10))


def eval_set_for(language: int, config: ExperimentConfig) -> Samples:
    return sample_eval_set(language, config.n_eval, EVAL_MAX_LEN, _rng(language, 999))


def run_extraction(language: int, seed: int, epoch: int, tree: PrefixTree, kappa: float,
                   reference: EvalReference) -> tuple[ResultRow, ExtractionReport]:
    """One state-merging row; its wall_time leaves out building the tree."""
    start = time.perf_counter()
    report = extract(tree, kappa)
    fid = fidelity(report.final, reference)
    row = ResultRow(language, "state_merging", seed, epoch, tree.n_strings, kappa,
                    fid.vs_rnn, fid.vs_gold, fid.prefix_vs_rnn, report.sizes[1],
                    report.sizes[2], time.perf_counter() - start)
    return row, report


def run_kmeans_baseline(language: int, seed: int, epoch: int, tree: PrefixTree, k: int,
                        reference: EvalReference) -> tuple[ResultRow, Dfa]:
    """One k-means row; its wall_time leaves out building the tree."""
    start = time.perf_counter()
    dfa = kmeans_extract(tree, k, _rng(seed, language, 20))
    fid = fidelity(dfa, reference)
    row = ResultRow(language, "kmeans", seed, epoch, tree.n_strings, 0.0,
                    fid.vs_rnn, fid.vs_gold, fid.prefix_vs_rnn, len(dfa.states),
                    len(dfa.states), time.perf_counter() - start)
    return row, dfa


@dataclass
class Table2Summary:
    mean_acc: float
    std_acc: float
    sizes: list[int]


def summarize(rows: list[ResultRow]) -> dict[tuple[int, str], Table2Summary]:
    grouped: dict[tuple[int, str], list[ResultRow]] = {}
    for row in rows:
        grouped.setdefault((row.language, row.method), []).append(row)
    summary = {}
    for key, group in grouped.items():
        accs = [r.acc_vs_rnn for r in group]
        summary[key] = Table2Summary(
            statistics.fmean(accs),
            statistics.pstdev(accs) if len(accs) > 1 else 0.0,
            [r.minimized_size for r in group])
    return summary


def reproduce_table2(config: ExperimentConfig, models: dict[int, RnnModel]
                     ) -> tuple[list[ResultRow], dict[tuple[int, str], Table2Summary]]:
    """State-merging extraction and k-means baseline per language and seed,
    both on one prefix tree per (language, seed) and one eval set per language."""
    ext = config.extraction
    jobs = [(language, seed) for language in config.languages for seed in config.seeds]
    references = {language: eval_reference(models[language], eval_set_for(language, config))
                  for language in config.languages}

    def one(job: tuple[int, int]) -> list[ResultRow]:
        language, seed = job
        model, reference = models[language], references[language]
        tree = build_prefix_tree(
            model, extraction_strings(language, ext.n_strings, ext.string_len, seed))
        row_sm, _ = run_extraction(language, seed, 0, tree, ext.kappa, reference)
        row_km, _ = run_kmeans_baseline(language, seed, 0, tree, config.kmeans_k, reference)
        return [row_sm, row_km]

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            batches = list(pool.map(one, jobs))
    else:
        batches = [one(job) for job in jobs]
    rows = [row for batch in batches for row in batch]
    return rows, summarize(rows)


def sweep_data_size(config: ExperimentConfig, models: dict[int, RnnModel],
                    grid: tuple[int, ...] = DATA_GRID,
                    string_len: int = DATA_STRING_LEN) -> list[ResultRow]:
    """State-merging rows per language, data size of grid and seed, on
    strings of length string_len."""
    rows = []
    for language in config.languages:
        reference = eval_reference(models[language], eval_set_for(language, config))
        for n_strings in grid:
            for seed in config.seeds:
                tree = build_prefix_tree(
                    models[language], extraction_strings(language, n_strings, string_len, seed))
                row, _ = run_extraction(language, seed, 0, tree, config.extraction.kappa,
                                        reference)
                rows.append(row)
    return rows


def sweep_kappa(config: ExperimentConfig,
                model: RnnModel) -> list[tuple[ResultRow, ExtractionReport]]:
    """Extraction at each of KAPPAS, all on one prefix tree: config must name
    one language (model's) and one seed."""
    if len(config.languages) != 1 or len(config.seeds) != 1:
        raise ValueError(f"sweep_kappa runs one language and one seed; config names "
                         f"languages {config.languages} and seeds {config.seeds}")
    ext, (language,), (seed,) = config.extraction, config.languages, config.seeds
    tree = build_prefix_tree(
        model, extraction_strings(language, ext.n_strings, ext.string_len, seed))
    reference = eval_reference(model, eval_set_for(language, config))
    return [run_extraction(language, seed, 0, tree, kappa, reference) for kappa in KAPPAS]


def sweep_epochs(config: ExperimentConfig,
                 checkpoints: dict[int, list[Checkpoint]]) -> list[ResultRow]:
    """Extraction metrics per training epoch and seed, every epoch on the same
    string sets and eval set; merged_size here is the pre-minimization size."""
    ext = config.extraction
    rows = []
    for language, ckpts in checkpoints.items():
        eval_set = eval_set_for(language, config)
        strings = {seed: extraction_strings(language, ext.n_strings, ext.string_len, seed)
                   for seed in config.seeds}
        for ckpt in ckpts:
            model = rnn.model_from_checkpoint(ckpt, ALPHABET)
            reference = eval_reference(model, eval_set)
            for seed in config.seeds:
                row, _ = run_extraction(language, seed, int(ckpt.metadata["epoch"]),
                                        build_prefix_tree(model, strings[seed]), ext.kappa,
                                        reference)
                rows.append(row)
    return rows

