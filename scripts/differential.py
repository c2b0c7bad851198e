"""Run one fixed battery of program outputs on two revisions and diff them.

Usage: python scripts/differential.py BASE [CHANGE] [--quick]

BASE and CHANGE are git revisions; CHANGE defaults to the working tree.
Each revision is checked out with ``git worktree add`` into a temporary
directory, removed again on exit.  The battery runs once per tree, in a
child process with that tree's ``src`` on PYTHONPATH and one BLAS thread
(the thread count changes the last bits of the hidden states).  The inputs
(the fixture models in ``perfbench/fixtures``, string sets and seeds) and
the battery itself come from this script, so only the program under test
differs.  Every output is one canonical text line.  The script prints the
first differing lines and exits 1 on any difference, 0 when the outputs are
equal and 2 when a checkout or a battery fails.

The battery has six parts.  k-means: ``kmeans.kmeans`` on the
prefix trees of the fixture models (Tomita 1-7, seeds 0-5, 30, 100 and 300
extraction strings of length 10, k = 2, 5 and 20) and on 600 sets of tied
and duplicated points; each line holds digests of the assignments and of the
centroids' bits, and the generator's next draw.  The fixture files are
checked against their sha256 in ``perfbench/expected.json`` first; a
mismatch exits 2.  ``--quick`` keeps seed 0, 30 strings, k = 2 and 20, and 50
point sets.  Samplers: ``languages.sample_balanced`` and
``languages.sample_eval_set`` for Tomita 1-7 on PCG64, Philox, MT19937 and
SFC64 generators, each entered fresh and after one uint32 draw (which leaves
PCG64, Philox and SFC64 holding a buffered half); each line holds a digest of
the set's ``save_dataset`` text, and the generator's next draw.  A revision
whose samplers return anything but a ``languages.Samples`` fails the
battery.  The balanced lengths include 7, at which Tomita 2 and 5 have no
positive string, 31, 32 and 33, where a positive walk's largest bounds cross
32 bits, and 100, where one draw reads up to four uint32s; the eval sets'
maximum lengths include 0, whose length draw reads no word.  ``--quick``
keeps one seed and smaller sets.  Prefix numbering: ``extraction.build_prefix_tree`` on the
fixture models and their extraction strings (Tomita 1-7, seeds 0-2, 30, 100
and 300 strings of length 10), one line of digests of the tree's parents,
tokens, levels, visits, labels and feature bits; and ``rnn.eval_reference``
and ``rnn.evaluate`` on each language's eval set at ``n_eval`` 100 and 1,000,
one line of digests of the reference's prefix arrays, decisions, stored
labels and ends, and the two accuracies.  ``--quick`` keeps seed 0, 30
strings and ``n_eval`` 100.  Merging: ``extraction._lowest_matches`` and
``extraction.merge_all`` at kappa 0.5, 0.4 and 0.01 on the fixture models'
prefix trees (Tomita 1-7; seeds 0-2 with 30, 100 and 300 strings of length
10, and seed 0 with 50, 150 and 500 strings of length 15), one line of
digests of the map of lowest matches and of the merged NFA's canonical text.
``--quick`` keeps seed 0 with 30 strings of length 10 and 150 of length 15.
Golden: the lines tests/golden.txt pins, which
scripts/pin_golden.py writes (eval sets, ``rnn.evaluate``,
``harness.run_extraction`` at kappa 0.01 and 0.4 and
``harness.run_kmeans_baseline`` at k = 20 on 100 strings, seeds 0-2, and one
tiny ``harness.ensure_trained`` run per language); it has no quick variant.
Drivers: the rows of ``harness.reproduce_table2``, ``harness.sweep_data_size``
(at its default string length and at 15, the benchmark's), and
``harness.sweep_kappa`` on the fixture models, and of ``harness.sweep_epochs``
on the tiny runs, with ``ExperimentConfig``'s defaults (the CLI's), one line
per row without ``wall_time``.  ``--quick`` keeps seed 0, 30 extraction
strings, 100 eval strings and data sizes 15 and 75.

``--print`` prints the battery's lines for the ``statemerge`` on the path
instead, which is what each child process runs.
"""
import argparse
import dataclasses
import difflib
import gzip
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FIXTURES = PERFBENCH / "fixtures"
BLAS_ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}
SHOWN = 12
BIT_GENERATORS = (np.random.PCG64, np.random.Philox, np.random.MT19937, np.random.SFC64)
GOLDEN_SEEDS = (0, 1, 2)
GOLDEN_KAPPAS = (0.01, 0.4)
# Every Tomita language has positive and negative strings of length 12.
TRAIN_SIZES = dict(n_train=64, train_len=12, n_dev=20, dev_len=12, embed_dim=4,
                   hidden_dim=8, epochs=2, batch_size=16)


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tied_points(case: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(features, visits, k) with exact ties: saturated rows (tanh of wide
    normals, so many coordinates are exactly +-1), whole rows duplicated and
    stored under several row ids, and few distinct points for k, so seed
    draws pick equal points and clusters come up empty."""
    rng = np.random.default_rng([case, 1])
    m, d = int(rng.integers(2, 40)), int(rng.integers(1, 12))
    rows = np.tanh(rng.normal(size=(m, d)) * rng.choice([0.5, 3.0, 30.0]))
    copies = rng.integers(0, m, size=int(rng.integers(0, m)))
    rows[rng.integers(0, m, size=len(copies))] = rows[copies]
    features = rows[rng.integers(0, m, size=2 * m)]
    visits = rng.integers(0, len(features), size=int(rng.integers(m, 4 * m)))
    return features, visits, int(rng.integers(1, min(len(visits), 20) + 1))


def fixture_models() -> dict:
    """The fixture models by language, each checkpoint checked against its
    sha256 in perfbench/expected.json."""
    from statemerge.rnn import load_checkpoint, model_from_checkpoint

    pins = json.loads((PERFBENCH / "expected.json").read_text())["fixtures"]
    models = {}
    for language in range(1, 8):
        name = f"tomita{language}.ckpt.gz"
        data = (FIXTURES / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != pins[name]:
            fail(f"{FIXTURES / name} does not match its sha256 in perfbench/expected.json")
        models[language] = model_from_checkpoint(*load_checkpoint(gzip.decompress(data).decode()))
    return models


def kmeans_battery(quick: bool) -> list[str]:
    """The k-means lines for the statemerge package on the path."""
    from statemerge.extraction import build_prefix_tree
    from statemerge.harness import extraction_strings
    from statemerge.kmeans import kmeans

    lines = []

    def run_kmeans(label: str, features: np.ndarray, visits: np.ndarray, k: int,
                   seed: int) -> None:
        rng = np.random.default_rng(seed)
        assignments, centroids = kmeans(features, visits, k, rng)
        lines.append(f"kmeans {label} k={k} seed={seed}"
                     f" assignments={digest(assignments.astype(np.int64))}"
                     f" centroids={digest(centroids)} next={rng.integers(2**62)}")

    seeds, sizes, ks = ((0,), (30,), (2, 20)) if quick else (range(6), (30, 100, 300), (2, 5, 20))
    for language, model in fixture_models().items():
        for seed in seeds:
            for size in sizes:
                tree = build_prefix_tree(model, extraction_strings(language, size, 10, seed))
                for k in ks:
                    run_kmeans(f"tomita{language} strings={size}", tree.features,
                               tree.visits, k, seed)
    for case in range(50 if quick else 600):
        run_kmeans(f"tied case={case}", *tied_points(case), case)
    return lines


def sampler_battery(quick: bool) -> list[str]:
    """The sampler lines for the statemerge package on the path."""
    from statemerge.languages import sample_balanced, sample_eval_set

    if quick:
        seeds, count, lengths, max_lens = (0,), 40, (0, 7, 33), (0, 20)
    else:
        seeds, count = range(3), 200
        lengths, max_lens = (0, 1, 7, 10, 20, 31, 32, 33, 50, 100), (0, 50, 100)
    lines = []
    for bit_generator in BIT_GENERATORS:
        for seed, entry, language in itertools.product(seeds, (0, 1), range(1, 8)):
            calls = [(sample_balanced, (language, length, count)) for length in lengths]
            calls += [(sample_eval_set, (language, count, max_len)) for max_len in max_lens]
            for sampler, args in calls:
                rng = np.random.Generator(bit_generator([seed, *args]))
                rng.integers(2**32, size=entry, dtype=np.uint32)
                text = save_dataset(sampler(*args, rng), language, seed)
                lines.append(f"{sampler.__name__}{args} {bit_generator.__name__} seed={seed}"
                             f" entry={entry} samples={sha(text)[:16]}"
                             f" next={rng.integers(2**62)}")
    return lines


def save_dataset(samples, language: int, seed: int) -> str:
    """The text of a languages.Samples that the eval_set, evaluate and sampler
    lines hash: two header lines, then per sample its string, a tab and one
    0/1 label per prefix."""
    from statemerge.languages import ALPHABET

    lines = ["# dataset-format 1", f"# language {language} seed {seed} count {len(samples)}"]
    for tokens, n, labels in zip(samples.tokens.tolist(), samples.lengths.tolist(),
                                 samples.labels.tolist()):
        lines.append("".join(ALPHABET[t] for t in tokens[:n]) + "\t"
                     + "".join("01"[b] for b in labels[:n + 1]))
    return "\n".join(lines) + "\n"


def prefix_battery(quick: bool) -> list[str]:
    """The prefix-numbering lines for the statemerge package on the path."""
    from statemerge.extraction import build_prefix_tree
    from statemerge.harness import ExperimentConfig, eval_set_for, extraction_strings
    from statemerge.rnn import eval_reference, evaluate

    def ints(array: np.ndarray) -> str:
        return digest(array.astype(np.int64))

    def numbering(prefixes) -> str:
        return " ".join(f"{field}={ints(getattr(prefixes, field))}"
                        for field in ("parents", "tokens", "levels", "visits"))

    seeds, sizes, n_evals = ((0,), (30,), (100,)) if quick else (range(3), (30, 100, 300),
                                                                 (100, 1000))
    lines = []
    for language, model in fixture_models().items():
        for seed in seeds:
            for size in sizes:
                tree = build_prefix_tree(model, extraction_strings(language, size, 10, seed))
                lines.append(f"prefix_tree tomita{language} strings={size} seed={seed}"
                             f" {numbering(tree)} labels={digest(tree.labels)}"
                             f" features={digest(tree.features)}")
        for n_eval in n_evals:
            eval_set = eval_set_for(language, ExperimentConfig(n_eval=n_eval))
            reference = eval_reference(model, eval_set)
            lines.append(f"eval_reference tomita{language} n_eval={n_eval}"
                         f" {numbering(reference.prefixes)}"
                         f" decisions={digest(reference.prefixes.labels)}"
                         f" labels={digest(reference.labels)} ends={ints(reference.ends)}"
                         f" evaluate={evaluate(model, eval_set)!r}")
    return lines


def nfa_text(nfa) -> str:
    """An automata.Nfa as canonical text: sorted states, the initial state,
    sorted accepting states and sorted transitions."""
    edges = (f"{src} {token} {dst}" for (src, token), dsts in sorted(nfa.transitions.items())
             for dst in sorted(dsts))
    return "\n".join([f"states {sorted(nfa.states)}", f"initial {nfa.initial}",
                      f"accepting {sorted(nfa.accepting)}", *edges]) + "\n"


def merge_battery(quick: bool) -> list[str]:
    """The state-merging lines for the statemerge package on the path."""
    from statemerge.extraction import _lowest_matches, build_prefix_tree, merge_all
    from statemerge.harness import extraction_strings

    if quick:
        shapes = [(0, 30, 10), (0, 150, 15)]
    else:  # (seed, strings, length): the golden sizes, the benchmark's sweep, the CLI grid's top
        shapes = [(seed, size, 10) for seed in range(3) for size in (30, 100, 300)]
        shapes += [(0, size, 15) for size in (50, 150, 500)]
    lines = []
    for language, model in fixture_models().items():
        for seed, size, length in shapes:
            tree = build_prefix_tree(model, extraction_strings(language, size, length, seed))
            for kappa in (0.5, 0.4, 0.01):
                lowest = _lowest_matches(tree, kappa).astype(np.int64)
                lines.append(f"merge tomita{language} strings={size}x{length} seed={seed}"
                             f" kappa={kappa} lowest={digest(lowest)}"
                             f" nfa={sha(nfa_text(merge_all(tree, kappa)))[:16]}")
    return lines


def golden_battery() -> list[str]:
    """The lines tests/golden.txt pins, for the statemerge package on the path:
    per language one eval set and reference, one rnn.evaluate on a balanced
    set, and one string set and prefix tree per seed for state merging at
    every kappa and for k-means; then the tiny runs of tiny_runs."""
    from statemerge.automata import save_dfa
    from statemerge.extraction import build_prefix_tree
    from statemerge.harness import (ExperimentConfig, ExtractionConfig, eval_set_for,
                                    extraction_strings, run_extraction, run_kmeans_baseline)
    from statemerge.languages import sample_balanced
    from statemerge.rnn import eval_reference, evaluate

    def scores(row) -> str:
        return f"{row.acc_vs_rnn!r} {row.acc_vs_gold!r} {row.prefix_vs_rnn!r}"

    config = ExperimentConfig(n_eval=100, extraction=ExtractionConfig(n_strings=100))
    ext, k = config.extraction, config.kmeans_k
    lines = []
    for language, model in fixture_models().items():
        eval_set = eval_set_for(language, config)
        reference = eval_reference(model, eval_set)
        trees = {seed: build_prefix_tree(
                     model, extraction_strings(language, ext.n_strings, ext.string_len, seed))
                 for seed in GOLDEN_SEEDS}
        lines.append(f"eval_set {language} {sha(save_dataset(eval_set, language, 999))}")
        # Labelled by the next language, so that the accuracies fall short of 1.
        other = language % 7 + 1
        balanced = sample_balanced(other, 20, 200, np.random.default_rng([language, 7]))
        accuracy, string_accuracy = evaluate(model, balanced)
        lines.append(f"evaluate {language} {sha(save_dataset(balanced, other, 7))} "
                     f"{accuracy!r} {string_accuracy!r}")
        for kappa, seed in itertools.product(GOLDEN_KAPPAS, GOLDEN_SEEDS):
            row, report = run_extraction(language, seed, 0, trees[seed], kappa, reference)
            lines.append(f"state_merging {language} {kappa} {seed} "
                         f"{sha(save_dfa(report.final))} {','.join(map(str, report.sizes))} "
                         f"{len(report.determinized.states)} {report.train_fidelity!r} "
                         f"{scores(row)}")
        for seed in GOLDEN_SEEDS:
            row, dfa = run_kmeans_baseline(language, seed, 0, trees[seed], k, reference)
            lines.append(f"kmeans {language} {k} {seed} {sha(save_dfa(dfa))} "
                         f"{len(dfa.states)} {scores(row)}")
    for language, (run, _, metrics) in tiny_runs().items():
        lines.append(f"train {language} {run} {metrics[-1].train_loss!r} "
                     f"{metrics[-1].dev_accuracy!r}")
    return lines


def tiny_runs() -> dict:
    """Per language, one tiny ensure_trained run into an empty cache: the
    sha256 over its run directory's files, its checkpoints and its metrics."""
    from statemerge.harness import TrainingConfig, ensure_trained, run_dir

    runs = {}
    for language in range(1, 8):
        training = TrainingConfig(language, **TRAIN_SIZES)
        with tempfile.TemporaryDirectory() as cache:
            checkpoints, metrics = ensure_trained(training, Path(cache))
            run = hashlib.sha256()
            for path in sorted(run_dir(training, Path(cache)).iterdir()):
                data = path.read_bytes()
                run.update(f"{path.name}\n{len(data)}\n".encode() + data)
        runs[language] = run.hexdigest(), checkpoints, metrics
    return runs


def driver_battery(quick: bool) -> list[str]:
    """The experiment drivers' rows for the statemerge package on the path,
    one line per row with wall_time dropped: reproduce_table2,
    sweep_data_size at its default string length and at the benchmark's 15
    and sweep_kappa on the fixture models, and sweep_epochs on the tiny runs
    of tiny_runs."""
    from statemerge.harness import (RESULT_FIELDS, ExperimentConfig, ExtractionConfig,
                                    reproduce_table2, sweep_data_size, sweep_epochs, sweep_kappa)

    def rows(driver: str, results) -> list[str]:
        return [f"{driver} " + " ".join(f"{field}={getattr(row, field)!r}"
                                        for field in RESULT_FIELDS if field != "wall_time")
                for row in results]

    models = fixture_models()
    config, grid = ExperimentConfig(), {}  # the CLI's table2 and sweeps
    if quick:
        config = ExperimentConfig(seeds=(0,), n_eval=100,
                                  extraction=ExtractionConfig(n_strings=30))
        grid = {"grid": (15, 75)}
    lines = rows("reproduce_table2", reproduce_table2(config, models)[0])
    lines += rows("sweep_data_size(default)", sweep_data_size(config, models, **grid))
    lines += rows("sweep_data_size(15)", sweep_data_size(config, models, **grid, string_len=15))
    for language, model in models.items():
        one = dataclasses.replace(config, languages=(language,), seeds=(0,))
        lines += rows("sweep_kappa", (row for row, _ in sweep_kappa(one, model)))
    return lines + rows("sweep_epochs", sweep_epochs(
        config, {language: checkpoints for language, (_, checkpoints, _) in tiny_runs().items()}))


def battery(quick: bool) -> list[str]:
    """The battery's lines for the statemerge package on the path.  The golden
    part has no quick variant."""
    return (kmeans_battery(quick) + sampler_battery(quick) + prefix_battery(quick)
            + merge_battery(quick) + golden_battery() + driver_battery(quick))


def differences(base: list[str], change: list[str], base_name: str,
                change_name: str) -> list[str]:
    """The unified diff of two batteries' lines, without context."""
    return list(difflib.unified_diff(base, change, base_name, change_name, n=0, lineterm=""))


def fail(message: str) -> None:
    print(message, file=sys.stderr)
    sys.exit(2)


def run_battery(tree: Path, quick: bool) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_ONE_THREAD)
    run = subprocess.run([sys.executable, __file__, "--print"] + ["--quick"] * quick,
                         env=env, capture_output=True, text=True)
    if run.returncode:
        fail(f"the battery failed on {tree}:\n{run.stderr}")
    return run.stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", metavar="BASE", help="git revision to compare from")
    parser.add_argument("change", nargs="?", metavar="CHANGE",
                        help="git revision to compare to (default: the working tree)")
    parser.add_argument("--quick", action="store_true", help="run the short battery")
    parser.add_argument("--print", action="store_true",
                        help="print the battery's lines for the statemerge on the path")
    args = parser.parse_args()
    if args.print:
        print("\n".join(battery(args.quick)))
        return 0
    if args.base is None:
        parser.error("BASE is required")
    repo = Path(subprocess.run(["git", "-C", str(Path(__file__).resolve().parent), "rev-parse",
                                "--show-toplevel"], check=True, capture_output=True,
                               text=True).stdout.strip())
    added = []
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        try:
            trees = []
            for name, rev in (("base", args.base), ("change", args.change)):
                if rev is None:
                    trees.append(repo)
                    continue
                path = Path(tmp) / name
                if subprocess.run(["git", "-C", str(repo), "worktree", "add", "--detach",
                                   "--quiet", str(path), rev]).returncode:
                    fail(f"cannot check out {rev}")
                added.append(path)
                trees.append(path)
            base, change = (run_battery(tree, args.quick) for tree in trees)
        finally:
            for path in added:
                subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force",
                                str(path)], check=True)
    diff = differences(base, change, args.base, args.change or "working tree")
    if diff:
        print("\n".join(diff[:SHOWN]))
        changed = sum(line.startswith("-") and not line.startswith("---") for line in diff)
        print(f"{changed} of {len(base)} lines differ")
        return 1
    print(f"{len(base)} lines, no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
