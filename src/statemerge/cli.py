"""Command line entry point.

Subcommands: train, extract, baseline, eval, sweep {data,kappa,epochs},
table2, export-dot.  Every command that trains or loads a model starts from
the shipped protocol (harness.full_scale_config), with explicit training
flags on top, so --out artifacts reuses the shipped runs.  Every run writes
its resolved configuration next to its outputs.  @FILE is replaced in place
by FILE's arguments, one per line; a later argument overrides an earlier one.
Loaded before numpy, it sets one BLAS thread, because the thread count
changes the bits that training writes.
"""

from __future__ import annotations

import os
import sys

if "numpy" not in sys.modules:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import argparse
import dataclasses
import json
import logging
import time
from collections.abc import Callable
from pathlib import Path

from . import harness, rnn
from .automata import Dfa, load_dfa, save_dfa, to_dot
from .extraction import build_prefix_tree
from .harness import (RESULT_FIELDS, ExperimentConfig, ExtractionConfig, ResultRow,
                      TrainingConfig, best_model, ensure_trained, fidelity, to_csv)
from .languages import LANGUAGE_IDS


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def _open_unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {value}")
    return value


# Command line argument -> converter, for the TrainingConfig field of that name.
# n_train and n_dev are at least 2: a balanced draw needs a positive and a negative string.
TRAINING_FIELDS = {"n_train": _int_at_least(2), "train_len": _int_at_least(0),
                   "n_dev": _int_at_least(2), "dev_len": _int_at_least(0),
                   "embed_dim": _int_at_least(1), "hidden_dim": _int_at_least(1),
                   "epochs": _int_at_least(1)}
# Command line argument -> ExtractionConfig field.
EXTRACTION_FIELDS = {"kappa": "kappa", "data": "n_strings", "length": "string_len"}


def _training_config(args: argparse.Namespace, language: int) -> TrainingConfig:
    """The shipped protocol, with every explicit training flag on top."""
    return dataclasses.replace(harness.full_scale_config(language, args.seed),
                               **{f: getattr(args, f) for f in TRAINING_FIELDS
                                  if getattr(args, f, None) is not None})


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment the command runs: extract, baseline, eval and sweep kappa
    run one language (sweep kappa's default is 2) on --seed's strings; table2
    and sweep data / epochs run the protocol's seeds."""
    extraction = ExtractionConfig(**{name: getattr(args, arg)
                                     for arg, name in EXTRACTION_FIELDS.items()
                                     if getattr(args, arg, None) is not None})
    config = ExperimentConfig(extraction=extraction, threads=getattr(args, "threads", 1),
                              **({"kmeans_k": args.k} if "k" in args else {}))
    if args.command in ("extract", "baseline", "eval") or getattr(args, "kind", "") == "kappa":
        return dataclasses.replace(config, languages=(args.language or 2,), seeds=(args.seed,))
    if args.language is not None:
        return dataclasses.replace(config, languages=(args.language,))
    return config


def _trained(args: argparse.Namespace, languages: tuple[int, ...]
             ) -> tuple[list[TrainingConfig], dict[int, list[rnn.Checkpoint]]]:
    """The training config per language, and the checkpoints of its run in
    the model cache under --out, trained if the cache lacks it."""
    training = [_training_config(args, language) for language in languages]
    return training, {cfg.language: ensure_trained(cfg, Path(args.out) / "models")[0]
                      for cfg in training}


def _best_models(checkpoints: dict[int, list[rnn.Checkpoint]]) -> dict[int, rnn.RnnModel]:
    return {language: best_model(ckpts) for language, ckpts in checkpoints.items()}


def _write_run(out: Path, training: list[TrainingConfig],
               experiment: ExperimentConfig | None = None,
               table: tuple[str, list[ResultRow]] | None = None,
               machines: dict[str, Dfa] | None = None) -> None:
    """Every command's outputs: the result table (file name, rows), each machine
    as TAG.dfa and TAG.dot, and resolved_config.json naming what ran."""
    out.mkdir(parents=True, exist_ok=True)
    if table is not None:
        name, rows = table
        (out / name).write_text(to_csv(RESULT_FIELDS, rows))
    for tag, dfa in (machines or {}).items():
        (out / f"{tag}.dfa").write_text(save_dfa(dfa))
        (out / f"{tag}.dot").write_text(to_dot(dfa))
    resolved = {"training": [cfg.record() for cfg in training]}
    if experiment is not None:
        resolved["experiment"] = dataclasses.asdict(experiment)
    (out / "resolved_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True, default=str) + "\n")


def cmd_train(args: argparse.Namespace) -> int:
    configs = []
    for language in (args.language,) if args.language else LANGUAGE_IDS:
        cfg, start = _training_config(args, language), time.perf_counter()
        checkpoints, metrics = ensure_trained(cfg, Path(args.out) / "models")
        final = metrics[-1]
        print(f"tomita {language}: {len(checkpoints)} checkpoints, "
              f"final dev accuracy {final.dev_accuracy:.4f}, "
              f"param norm {final.param_norm:.2f}, {time.perf_counter() - start:.1f} s")
        configs.append(cfg)
    _write_run(Path(args.out), configs)
    return 0


def cmd_machine(args: argparse.Namespace) -> int:
    """extract, baseline and eval: one model and one eval reference; extract
    and baseline draw one string set from --seed."""
    stored = load_dfa(Path(args.dfa).read_text()) if args.command == "eval" else None
    language, seed = args.language, args.seed
    training, checkpoints = _trained(args, (language,))
    model = best_model(checkpoints[language])
    config = _experiment_config(args)
    reference = rnn.eval_reference(model, harness.eval_set_for(language, config))
    if stored is not None:
        result = fidelity(stored, reference)
        print(f"fidelity vs RNN {result.vs_rnn:.4f}, vs gold {result.vs_gold:.4f}, "
              f"per-prefix vs RNN {result.prefix_vs_rnn:.4f}")
        return 0
    ext = config.extraction
    tree = build_prefix_tree(
        model, harness.extraction_strings(language, ext.n_strings, ext.string_len, seed))
    tag = f"tomita{language}_seed{seed}"
    if args.command == "extract":
        row, report = harness.run_extraction(language, seed, 0, tree, ext.kappa, reference)
        dfa = report.final
        print(f"tomita {language}: sizes {report.sizes}, "
              f"fidelity vs RNN {row.acc_vs_rnn:.4f}, vs gold {row.acc_vs_gold:.4f}")
    else:
        row, dfa = harness.run_kmeans_baseline(language, seed, 0, tree, config.kmeans_k,
                                               reference)
        tag += "_kmeans"
        print(f"tomita {language} kmeans: {len(dfa.states)} states, "
              f"fidelity vs RNN {row.acc_vs_rnn:.4f}")
    _write_run(Path(args.out), training, config, ("results.csv", [row]), {tag: dfa})
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    training, checkpoints = _trained(args, config.languages)
    rows, summary = harness.reproduce_table2(config, _best_models(checkpoints))
    _write_run(Path(args.out), training, config, ("table2_rows.csv", rows))
    for (language, method), s in sorted(summary.items()):
        print(f"tomita {language} {method:13s}: {100 * s.mean_acc:6.2f} "
              f"± {100 * s.std_acc:.2f}, sizes {s.sizes}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    out = Path(args.out)
    config = _experiment_config(args)
    training, checkpoints = _trained(args, config.languages)
    machines = {}
    if args.kind == "epochs":
        rows = harness.sweep_epochs(config, checkpoints)
    elif args.kind == "data":
        rows = harness.sweep_data_size(config, _best_models(checkpoints))
    else:
        (language, model), = _best_models(checkpoints).items()
        results = harness.sweep_kappa(config, model)
        rows = [row for row, _ in results]
        for row, report in results:
            tag = f"tomita{language}_kappa{row.kappa}"
            machines.update({f"{tag}_merged": report.determinized, f"{tag}_final": report.final})
            print(f"kappa {row.kappa}: merged {report.sizes[1]}, "
                  f"minimized {report.sizes[2]}, fidelity {row.acc_vs_rnn:.4f}")
    _write_run(out, training, config, (f"sweep_{args.kind}.csv", rows), machines)
    print(f"wrote sweep results to {out}")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    dfa = load_dfa(Path(args.dfa).read_text())
    text = to_dot(dfa)
    if args.out_file:
        Path(args.out_file).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statemerge", description="DFA extraction from RNN recognizers",
        fromfile_prefix_chars="@",
        epilog="@FILE reads arguments from FILE, one per line (--opt=value), in "
               "place; top-level options go before the subcommand, and a later "
               "argument overrides an earlier one.")
    parser.add_argument("--language", type=int, choices=LANGUAGE_IDS, default=None)
    parser.add_argument("--seed", type=_int_at_least(0), default=0)
    parser.add_argument("--out", type=str, default="out",
                        help="output directory")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    training = argparse.ArgumentParser(add_help=False)
    for field, convert in TRAINING_FIELDS.items():
        training.add_argument(f"--{field.replace('_', '-')}", type=convert, default=None,
                              dest=field)
    sample = argparse.ArgumentParser(add_help=False)
    # A balanced draw needs a positive and a negative string.
    sample.add_argument("--data", type=_int_at_least(2), default=300)
    sample.add_argument("--length", type=_int_at_least(0), default=10)

    p_train = sub.add_parser("train", help="train a recognizer", parents=[training])
    p_train.set_defaults(func=cmd_train)

    p_extract = sub.add_parser("extract", help="state-merging extraction",
                               parents=[training, sample])
    p_extract.add_argument("--kappa", type=_open_unit_float, default=0.01)
    p_extract.set_defaults(func=cmd_machine)

    p_baseline = sub.add_parser("baseline", help="k-means extraction baseline",
                                parents=[training, sample])
    p_baseline.add_argument("--k", type=_int_at_least(1), default=20)
    p_baseline.set_defaults(func=cmd_machine)

    p_eval = sub.add_parser("eval", help="evaluate a stored DFA against a model",
                            parents=[training])
    p_eval.add_argument("--dfa", required=True)
    p_eval.set_defaults(func=cmd_machine)

    p_sweep = sub.add_parser("sweep", help="parameter sweeps")
    p_sweep.add_argument("kind", choices=("data", "kappa", "epochs"))
    p_sweep.add_argument("--kappa", type=_open_unit_float, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_table2 = sub.add_parser("table2", help="reproduce the accuracy table")
    p_table2.add_argument("--threads", type=_int_at_least(1), default=1)
    p_table2.set_defaults(func=cmd_table2)

    p_dot = sub.add_parser("export-dot", help="render a stored DFA as DOT")
    p_dot.add_argument("--dfa", required=True)
    p_dot.add_argument("--out-file", default=None)
    p_dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command in ("extract", "baseline", "eval") and args.language is None:
        parser.error(f"{args.command} requires --language")
    if args.command == "sweep" and args.kind == "kappa" and args.kappa is not None:
        parser.error("sweep kappa runs its own kappa grid and takes no --kappa")
    try:
        return args.func(args)
    except (ValueError, rnn.TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
