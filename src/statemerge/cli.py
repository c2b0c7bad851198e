"""Command line entry point.

Subcommands: train, extract, baseline, eval, sweep {data,kappa,epochs},
table2, export-dot.  Every run writes its resolved configuration next to its
outputs.  STATEMERGE_SEED and STATEMERGE_THREADS provide environment-variable
defaults for --seed and --threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import statistics
import sys
from pathlib import Path

from . import harness, rnn
from .automata import load_dfa, save_dfa, to_dot
from .harness import (ExperimentConfig, ExtractionConfig, TrainingConfig,
                      ensure_trained, best_model, fidelity, rows_to_csv)
from .languages import LANGUAGE_IDS

logger = logging.getLogger(__name__)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _open_unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {value}")
    return value


def _write_resolved_config(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")


TRAIN_SIZE_FIELDS = ("n_train", "train_len", "n_dev", "dev_len",
                     "embed_dim", "hidden_dim")
# Command line argument -> ExtractionConfig field.
EXTRACTION_FIELDS = {"kappa": "kappa", "data": "n_strings", "length": "string_len"}


def _training_config(args: argparse.Namespace, language: int) -> TrainingConfig:
    if getattr(args, "full", False):
        return harness.full_scale_config(language, args.seed)
    cfg = TrainingConfig(language, args.seed)
    if getattr(args, "epochs", None) is not None:
        cfg = dataclasses.replace(cfg, epochs=args.epochs)
    overrides = {f: getattr(args, f) for f in TRAIN_SIZE_FIELDS
                 if getattr(args, f, None) is not None}
    return dataclasses.replace(cfg, **overrides)


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    language = getattr(args, "language", None)
    languages = LANGUAGE_IDS if language is None else (language,)
    extraction = ExtractionConfig(**{name: getattr(args, arg)
                                     for arg, name in EXTRACTION_FIELDS.items()
                                     if getattr(args, arg, None) is not None})
    return ExperimentConfig(languages=languages, extraction=extraction,
                            threads=args.threads)


def _load_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Apply JSON config values through the converter and range check of the
    option each one sets; a rejected value exits with status 2."""
    if not args.config:
        return
    try:
        overrides = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config {args.config}: {exc}")
    if not isinstance(overrides, dict):
        parser.error(f"config {args.config} must hold a JSON object")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for p in (parser, subparsers.choices[args.command])
               for a in p._actions}
    for key, value in overrides.items():
        if not hasattr(args, key):
            parser.error(f"unknown config key {key!r} in {args.config}")
        action = actions.get(key)
        if action is not None:
            if action.type is not None:
                try:
                    value = action.type(str(value))
                except (argparse.ArgumentTypeError, ValueError) as exc:
                    parser.error(f"config key {key!r} in {args.config}: {exc}")
            if action.choices is not None and value not in action.choices:
                parser.error(f"config key {key!r} in {args.config}: "
                             f"{value!r} not in {list(action.choices)}")
        setattr(args, key, value)


def _trained_model(args: argparse.Namespace, language: int):
    cfg = _training_config(args, language)
    checkpoints, _ = ensure_trained(cfg, Path(args.out) / "models")
    return best_model(checkpoints), cfg


def cmd_train(args: argparse.Namespace) -> int:
    out = Path(args.out)
    for language in (args.language,) if args.language else LANGUAGE_IDS:
        cfg = _training_config(args, language)
        checkpoints, metrics = ensure_trained(cfg, out / "models")
        final = metrics[-1]
        print(f"tomita {language}: {len(checkpoints)} checkpoints, "
              f"final dev accuracy {final.dev_accuracy:.4f}, "
              f"param norm {final.param_norm:.2f}")
        _write_resolved_config(out, dataclasses.asdict(cfg))
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    out = Path(args.out)
    model, train_cfg = _trained_model(args, args.language)
    config = _experiment_config(args)
    row, report = harness.run_extraction(model, args.language, args.seed, 0, config)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"tomita{args.language}_seed{args.seed}"
    (out / f"{tag}.dfa").write_text(save_dfa(report.final))
    (out / f"{tag}.dot").write_text(to_dot(report.final))
    (out / "results.csv").write_text(rows_to_csv([row]))
    _write_resolved_config(out, {"training": dataclasses.asdict(train_cfg),
                                 "experiment": dataclasses.asdict(config),
                                 "cosine_threshold": 1.0 - config.extraction.kappa})
    print(f"tomita {args.language}: sizes {report.sizes}, "
          f"fidelity vs RNN {row.acc_vs_rnn:.4f}, vs gold {row.acc_vs_gold:.4f}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    out = Path(args.out)
    model, train_cfg = _trained_model(args, args.language)
    config = dataclasses.replace(_experiment_config(args), kmeans_k=args.k)
    row, dfa = harness.run_kmeans_baseline(model, args.language, args.seed, 0, config)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"tomita{args.language}_seed{args.seed}_kmeans"
    (out / f"{tag}.dfa").write_text(save_dfa(dfa))
    (out / f"{tag}.dot").write_text(to_dot(dfa))
    (out / "results.csv").write_text(rows_to_csv([row]))
    _write_resolved_config(out, {"training": dataclasses.asdict(train_cfg),
                                 "experiment": dataclasses.asdict(config)})
    print(f"tomita {args.language} kmeans: {len(dfa.states)} states, "
          f"fidelity vs RNN {row.acc_vs_rnn:.4f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    dfa = load_dfa(Path(args.dfa).read_text())
    model, _ = _trained_model(args, args.language)
    config = _experiment_config(args)
    eval_set = harness.eval_set_for(args.language, config)
    result = fidelity(dfa, model, eval_set)
    print(f"fidelity vs RNN {result.vs_rnn:.4f}, vs gold {result.vs_gold:.4f}, "
          f"per-prefix vs RNN {result.prefix_vs_rnn:.4f}")
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    out = Path(args.out)
    config = _experiment_config(args)
    models = {}
    for language in config.languages:
        checkpoints, _ = ensure_trained(_training_config(args, language),
                                        out / "models")
        models[language] = best_model(checkpoints)
    rows, summary = harness.reproduce_table2(config, models)
    out.mkdir(parents=True, exist_ok=True)
    (out / "table2_rows.csv").write_text(rows_to_csv(rows))
    _write_resolved_config(out, json.loads(config.to_json()))
    for (language, method), s in sorted(summary.items()):
        print(f"tomita {language} {method:13s}: {100 * s.mean_acc:6.2f} "
              f"± {100 * s.std_acc:.2f}, sizes {s.sizes}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    out = Path(args.out)
    config = _experiment_config(args)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "data":
        models = {}
        for language in config.languages:
            checkpoints, _ = ensure_trained(_training_config(args, language), out / "models")
            models[language] = best_model(checkpoints)
        rows = harness.sweep_data_size(config, models)
        (out / "sweep_data.csv").write_text(rows_to_csv(rows))
    elif args.kind == "kappa":
        language = args.language or 2
        model, _ = _trained_model(args, language)
        results = harness.sweep_kappa(config, model, language, out_dir=out)
        rows = [row for row, _ in results]
        (out / "sweep_kappa.csv").write_text(rows_to_csv(rows))
        for row, report in results:
            print(f"kappa {row.kappa}: merged {report.sizes[1]}, "
                  f"minimized {report.sizes[2]}, fidelity {row.acc_vs_rnn:.4f}")
    else:
        checkpoints = {}
        for language in config.languages:
            ckpts, _ = ensure_trained(harness.light_config(language, args.seed),
                                      out / "models")
            checkpoints[language] = ckpts
        rows = harness.sweep_epochs(config, checkpoints)
        (out / "sweep_epochs.csv").write_text(rows_to_csv(rows))
    _write_resolved_config(out, json.loads(config.to_json()))
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
    parser = argparse.ArgumentParser(prog="statemerge",
                                     description="DFA extraction from RNN recognizers")
    parser.add_argument("--language", type=int, choices=LANGUAGE_IDS, default=None)
    # String defaults go through `type`, so the environment gets the same checks.
    parser.add_argument("--seed", type=int,
                        default=os.environ.get(harness.SEED_ENV_VAR) or "0")
    parser.add_argument("--threads", type=_positive_int,
                        default=os.environ.get(harness.THREADS_ENV_VAR) or "1")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file overriding argument defaults")
    parser.add_argument("--out", type=str, default="out",
                        help="output directory")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    sizes = argparse.ArgumentParser(add_help=False)
    for field in TRAIN_SIZE_FIELDS:
        sizes.add_argument(f"--{field.replace('_', '-')}", default=None, dest=field,
                           type=_nonnegative_int if field.endswith("_len") else int)

    p_train = sub.add_parser("train", help="train a recognizer", parents=[sizes])
    p_train.add_argument("--epochs", type=_positive_int, default=None)
    p_train.add_argument("--full", action="store_true",
                         help="use the full-scale training protocol")
    p_train.set_defaults(func=cmd_train)

    p_extract = sub.add_parser("extract", help="state-merging extraction",
                               parents=[sizes])
    p_extract.add_argument("--data", type=_positive_int, default=300)
    p_extract.add_argument("--kappa", type=_open_unit_float, default=0.01)
    p_extract.add_argument("--length", type=_nonnegative_int, default=10)
    p_extract.add_argument("--epochs", type=_positive_int, default=None)
    p_extract.set_defaults(func=cmd_extract, full=False)

    p_baseline = sub.add_parser("baseline", help="k-means extraction baseline",
                                parents=[sizes])
    p_baseline.add_argument("--data", type=_positive_int, default=300)
    p_baseline.add_argument("--length", type=_nonnegative_int, default=10)
    p_baseline.add_argument("--k", type=_positive_int, default=20)
    p_baseline.add_argument("--epochs", type=_positive_int, default=None)
    p_baseline.set_defaults(func=cmd_baseline, full=False)

    p_eval = sub.add_parser("eval", help="evaluate a stored DFA against a model",
                            parents=[sizes])
    p_eval.add_argument("--epochs", type=_positive_int, default=None)
    p_eval.add_argument("--dfa", required=True)
    p_eval.set_defaults(func=cmd_eval, full=False)

    p_sweep = sub.add_parser("sweep", help="parameter sweeps")
    p_sweep.add_argument("kind", choices=("data", "kappa", "epochs"))
    p_sweep.add_argument("--kappa", type=_open_unit_float, default=0.01)
    p_sweep.set_defaults(func=cmd_sweep, full=False)

    p_table2 = sub.add_parser("table2", help="reproduce the accuracy table")
    p_table2.set_defaults(func=cmd_table2, full=False)

    p_dot = sub.add_parser("export-dot", help="render a stored DFA as DOT")
    p_dot.add_argument("--dfa", required=True)
    p_dot.add_argument("--out-file", default=None)
    p_dot.set_defaults(func=cmd_export_dot, full=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    _load_config_file(parser, args)
    if args.command in ("extract", "baseline", "eval") and args.language is None:
        parser.error(f"{args.command} requires --language")
    try:
        return args.func(args)
    except (ValueError, rnn.TrainingError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
