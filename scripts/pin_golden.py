"""Write tests/golden.txt, the outputs that tests/test_golden.py pins.

Usage: PYTHONPATH=src python scripts/pin_golden.py [-]

Runs the pinned experiments on the committed fixture models
(``perfbench/fixtures``, each checked against its sha256 in
``perfbench/expected.json``), trains one tiny recognizer per language into a
temporary model cache, and overwrites tests/golden.txt, or prints the same
text to stdout when given ``-``.  The header names the numpy and BLAS
builds.  Only a change that is meant to change these outputs rewrites the
file.

BLAS runs on one thread: the thread count changes the last bits of the
hidden states, and k-means can turn those into another machine (Tomita 4,
seed 1 gives 4 states at one thread and 3 at two).
"""
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from statemerge import rnn  # noqa: E402
from statemerge.automata import save_dfa  # noqa: E402
from statemerge.extraction import build_prefix_tree  # noqa: E402
from statemerge.harness import (ExperimentConfig, ExtractionConfig,  # noqa: E402
                                TrainingConfig, ensure_trained, eval_set_for,
                                extraction_strings, run_dir, run_extraction,
                                run_kmeans_baseline)
from statemerge.languages import ALPHABET, LANGUAGE_IDS, Samples, sample_balanced  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.txt"
SEEDS = (0, 1, 2)
KAPPAS = (0.01, 0.4)
CONFIG = ExperimentConfig(n_eval=100, extraction=ExtractionConfig(n_strings=100))
# Every Tomita language has positive and negative strings of length 12.
TRAIN_SIZES = dict(n_train=64, train_len=12, n_dev=20, dev_len=12, embed_dim=4,
                   hidden_dim=8, epochs=2, batch_size=16)
HEADER = ["# Golden outputs of tests/test_golden.py, written by scripts/pin_golden.py.",
          "# eval_set LANGUAGE SHA256(save_dataset)",
          "# evaluate LANGUAGE SHA256(save_dataset of the next language's set) "
          "PREFIX_ACCURACY STRING_ACCURACY",
          "# state_merging LANGUAGE KAPPA SEED SHA256(save_dfa) TRIE,MERGED,MINIMIZED "
          "DETERMINIZED TRAIN_FIDELITY VS_RNN VS_GOLD PREFIX_VS_RNN",
          "# kmeans LANGUAGE K SEED SHA256(save_dfa) STATES VS_RNN VS_GOLD PREFIX_VS_RNN",
          "# train LANGUAGE SHA256(run directory: each file's name, size and bytes, in name "
          "order) FINAL_LOSS DEV_ACCURACY"]


def platform() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
            "one BLAS thread")


def fixture_models() -> dict[int, rnn.RnnModel]:
    """The benchmark's fixture models, each checked against its pinned sha256."""
    pins = json.loads((ROOT / "perfbench" / "expected.json").read_text())["fixtures"]
    models = {}
    for language in LANGUAGE_IDS:
        name = f"tomita{language}.ckpt.gz"
        data = (ROOT / "perfbench" / "fixtures" / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != pins[name]:
            raise SystemExit(f"{name} does not match its sha256 in perfbench/expected.json")
        ckpt, alphabet = rnn.load_checkpoint(gzip.decompress(data).decode())
        models[language] = rnn.model_from_checkpoint(ckpt, alphabet)
    return models


def save_dataset(samples: Samples, language: int, seed: int) -> str:
    """The text the eval_set and evaluate lines hash: two header lines, then
    per sample its string, a tab and one 0/1 label per prefix."""
    lines = ["# dataset-format 1", f"# language {language} seed {seed} count {len(samples)}"]
    for tokens, n, labels in zip(samples.tokens.tolist(), samples.lengths.tolist(),
                                 samples.labels.tolist()):
        lines.append("".join(ALPHABET[t] for t in tokens[:n]) + "\t"
                     + "".join("01"[b] for b in labels[:n + 1]))
    return "\n".join(lines) + "\n"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scores(row) -> str:
    return f"{row.acc_vs_rnn!r} {row.acc_vs_gold!r} {row.prefix_vs_rnn!r}"


def golden_lines() -> list[str]:
    """One eval set and reference per language, and one string set and
    prefix tree per (language, seed) for every kappa and k-means."""
    ext = CONFIG.extraction
    lines = []
    for language, model in fixture_models().items():
        eval_set = eval_set_for(language, CONFIG)
        reference = rnn.eval_reference(model, eval_set)
        trees = {seed: build_prefix_tree(
                     model, extraction_strings(language, ext.n_strings, ext.string_len, seed))
                 for seed in SEEDS}
        lines.append(f"eval_set {language} {sha(save_dataset(eval_set, language, 999))}")
        # Labelled by the next language, so that the accuracies fall short of 1.
        other = language % 7 + 1
        balanced = sample_balanced(other, 20, 200, np.random.default_rng([language, 7]))
        accuracy, string_accuracy = rnn.evaluate(model, balanced)
        lines.append(f"evaluate {language} {sha(save_dataset(balanced, other, 7))} "
                     f"{accuracy!r} {string_accuracy!r}")
        for kappa in KAPPAS:
            for seed in SEEDS:
                row, report = run_extraction(language, seed, 0, trees[seed], kappa, reference)
                sizes = ",".join(map(str, report.sizes))
                lines.append(f"state_merging {language} {kappa} {seed} "
                             f"{sha(save_dfa(report.final))} {sizes} "
                             f"{len(report.determinized.states)} {report.train_fidelity!r} "
                             f"{scores(row)}")
        for seed in SEEDS:
            row, dfa = run_kmeans_baseline(language, seed, 0, trees[seed], CONFIG.kmeans_k,
                                           reference)
            lines.append(f"kmeans {language} {CONFIG.kmeans_k} {seed} "
                         f"{sha(save_dfa(dfa))} {len(dfa.states)} {scores(row)}")
    return lines


def run_sha(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\n{len(data)}\n".encode() + data)
    return digest.hexdigest()


def train_lines() -> list[str]:
    """One tiny ensure_trained run per language, each into an empty cache."""
    lines = []
    for language in LANGUAGE_IDS:
        config = TrainingConfig(language, **TRAIN_SIZES)
        with tempfile.TemporaryDirectory() as cache:
            _, metrics = ensure_trained(config, Path(cache))
            digest = run_sha(run_dir(config, Path(cache)))
        lines.append(f"train {language} {digest} {metrics[-1].train_loss!r} "
                     f"{metrics[-1].dev_accuracy!r}")
    return lines


def main(argv: list[str]) -> None:
    logging.disable(logging.WARNING)  # kappa 0.4 overmerges, and extract says so
    text = "\n".join(HEADER + [f"# {platform()}"] + golden_lines() + train_lines()) + "\n"
    if argv == ["-"]:
        sys.stdout.write(text)
    else:
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
