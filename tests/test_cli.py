"""End-to-end tests of the command line interface on a tiny training setup."""

import csv
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from statemerge import cli, harness, rnn
from statemerge.automata import load_dfa, save_dfa, to_dot
from statemerge.cli import _experiment_config, _training_config, build_parser, main
from statemerge.harness import (RESULT_FIELDS, ExperimentConfig, ExtractionConfig, TrainingConfig,
                                best_model, ensure_trained, load_finished_run, run_dir, to_csv)
from statemerge.languages import gold_dfa

TINY = dict(n_train=40, train_len=6, n_dev=20, dev_len=8, embed_dim=4, hidden_dim=8, epochs=2)
TINY_ARGS = [arg for field, value in TINY.items()
             for arg in (f"--{field.replace('_', '-')}", str(value))]


def run_cli(args):
    return main(args)


def write_args(path, lines):
    """Write an argument file, one argument per line; return its @ reference."""
    path.write_text("".join(f"{line}\n" for line in lines))
    return f"@{path}"


# Experiment configs whose every default differs from the shipped protocol's.
@dataclasses.dataclass(frozen=True)
class OtherExtraction(ExtractionConfig):
    kappa: float = 0.02
    n_strings: int = 301
    string_len: int = 11


@dataclasses.dataclass(frozen=True)
class OtherExperiment(ExperimentConfig):
    kmeans_k: int = 21
    threads: int = 2


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_extract_requires_language(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extract"])
        assert exc.value.code == 2
        assert "error: extract requires --language" in capsys.readouterr().err

    def test_sweep_kappa_requires_language(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "kappa"])
        assert exc.value.code == 2
        assert "error: sweep kappa requires --language" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["extract", "--kappa", "0"], ["extract", "--kappa", "1"],
        ["extract", "--kappa", "-0.5"], ["extract", "--kappa", "nan"],
        ["sweep", "kappa", "--kappa", "1.5"], ["extract", "--data", "0"],
        ["baseline", "--data", "-3"], ["baseline", "--k", "0"],
        ["train", "--epochs", "0"], ["extract", "--epochs", "-1"],
        ["table2", "--threads", "-4"], ["table2", "--threads", "0"],
        ["extract", "--length", "-1"], ["baseline", "--length", "-2"],
        ["train", "--train-len", "-1"], ["eval", "--dfa", "x", "--dev-len", "-1"],
        ["extract", "--data", "1"], ["baseline", "--data", "1"],
        ["train", "--n-train", "1"], ["extract", "--n-dev", "1"],
        ["train", "--embed-dim", "0"], ["baseline", "--hidden-dim", "0"],
        ["--seed", "-1", "train"]])
    def test_out_of_range_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--language", "1"] + argv)
        assert exc.value.code == 2
        assert "must" in capsys.readouterr().err

    # Each case holds the arguments after --language 1: an argument file with
    # them exits 2, as the same arguments typed do.  Cases 11-16 and 22-24
    # name options the command lacks or give a flag a value; case 18 gives
    # sweep kappa a --kappa its grid would ignore.  The ids carry these case
    # numbers, so a case keeps its id when others are added or removed.
    CHECKED = {
        0: ["table2", "--threads=-4"], 1: ["extract", "--kappa=0"],
        2: ["extract", "--data=0"], 3: ["--language=9", "extract"],
        4: ["table2", "--threads=x"], 8: ["extract", "--length=-1"],
        9: ["extract", "--train-len=-1"], 10: ["extract", "--dev-len=-3"],
        11: ["--no-such-key=1", "extract"], 12: ["--func=1", "extract"],
        13: ["--command=train", "extract"], 14: ["extract", "--full"],
        15: ["--verbose=no", "extract"], 16: ["--config=other.json", "extract"],
        17: ["extract", "--data=1"], 18: ["sweep", "kappa", "--kappa=0.3"],
        19: ["train", "--n-train=1"], 20: ["train", "--hidden-dim=0"],
        21: ["--seed=-1", "train"], 22: ["extract", "--threads=2"],
        23: ["--threads=2", "table2"], 24: ["train", "--full"]}

    @pytest.mark.parametrize("config", CHECKED.values(),
                             ids=[f"config{i}-env{i}" for i in CHECKED])
    def test_config_and_env_values_checked(self, config, tmp_path, capsys):
        for tail in ([write_args(tmp_path / "run.args", config)], config):
            with pytest.raises(SystemExit) as exc:
                main(["--language", "1"] + tail)
            assert exc.value.code == 2
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, argv", [
        (None, []),
        # Two arguments on one line read as one argument, which nothing accepts.
        ("extract\n--kappa 0.2\n", []),
        # A JSON object where arguments belong is one unrecognized argument.
        ('{"kappa": 0.2}\n', ["extract"]),
        ("bogus\n", ["sweep"])], ids=["missing", "malformed", "non-object", "bad-choice"])
    def test_bad_config_file_exits_2(self, text, argv, tmp_path, capsys):
        path = tmp_path / "run.args"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["--language", "1"] + argv + [f"@{path}"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_config_keys_of_the_command_accepted(self, tmp_path):
        typed = ["--seed=4", "--verbose", "train", "--epochs=3"]
        parser = build_parser()
        args = parser.parse_args([write_args(tmp_path / "run.args", typed)])
        assert args == parser.parse_args(typed)
        assert (args.verbose, args.epochs, args.seed) == (True, 3, 4)
        assert _training_config(args, 2) == dataclasses.replace(
            harness.full_scale_config(2, seed=4), epochs=3)

    def test_training_flags_apply_on_top_of_the_shipped_protocol(self):
        args = build_parser().parse_args(["train", "--epochs", "3", "--n-train", "50"])
        cfg = _training_config(args, 2)
        assert (cfg.epochs, cfg.n_train, cfg.train_len, cfg.dev_len) == (3, 50, 100, 200)

    @pytest.mark.parametrize("argv", [
        ["train"], ["extract"], ["baseline"], ["eval", "--dfa", "x"], ["table2"],
        ["sweep", "data"], ["sweep", "kappa"], ["sweep", "epochs"]],
        ids=["train", "extract", "baseline", "eval", "table2", "sweep-data", "sweep-kappa",
             "sweep-epochs"])
    def test_every_command_starts_from_the_shipped_protocol(self, argv):
        cfg = _training_config(build_parser().parse_args(["--language", "7"] + argv), 7)
        assert cfg == harness.full_scale_config(7) and cfg.epochs == 24

    def test_explicit_values_kept(self):
        args = build_parser().parse_args(["--language", "1", "extract", "--kappa", "0.5",
                                          "--data", "2", "--length", "0", "--epochs", "1"])
        extraction = _experiment_config(args).extraction
        assert (extraction.kappa, extraction.n_strings, extraction.string_len) == (0.5, 2, 0)
        assert _training_config(args, 1).epochs == 1

    def test_sweep_kappa_reaches_the_data_and_epoch_sweeps(self):
        parse = build_parser().parse_args
        for kind in ("data", "epochs"):
            args = parse(["sweep", kind, "--kappa", "0.3"])
            assert _experiment_config(args).extraction.kappa == 0.3
        args = parse(["--language", "2", "sweep", "kappa"])
        assert _experiment_config(args).extraction.kappa == 0.01

    def test_seed_and_threads_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert (args.seed, _experiment_config(args).threads) == (0, ExperimentConfig().threads)

    @pytest.mark.parametrize("argv", [
        ["extract"], ["baseline"], ["table2"], ["sweep", "data"], ["sweep", "epochs"]],
        ids=["extract", "baseline", "table2", "sweep-data", "sweep-epochs"])
    def test_the_configs_own_the_experiment_defaults(self, argv, monkeypatch):
        # No flag typed, so every value comes from the configs' defaults,
        # whatever they are.
        monkeypatch.setattr(cli, "ExtractionConfig", OtherExtraction)
        monkeypatch.setattr(cli, "ExperimentConfig", OtherExperiment)
        config = _experiment_config(build_parser().parse_args(["--language", "1"] + argv))
        ext = config.extraction
        assert (ext.kappa, ext.n_strings, ext.string_len) == (0.02, 301, 11)
        assert (config.kmeans_k, config.threads) == (21, 2)

    def test_only_table2_reads_threads(self):
        parse = build_parser().parse_args
        assert _experiment_config(parse(["table2", "--threads", "2"])).threads == 2
        assert _experiment_config(parse(["--language", "1", "extract"])).threads == 1


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_out")
    code = run_cli(["--language", "1", "--out", str(out), "train"] + TINY_ARGS)
    assert code == 0
    return out


class TestTrainExtractEval:
    def test_train_artifacts(self, out_dir):
        resolved = json.loads((out_dir / "resolved_config.json").read_text())
        assert [cfg["language"] for cfg in resolved["training"]] == [1]
        model_dirs = list((out_dir / "models").glob("tomita1_seed0_*"))
        assert len(model_dirs) == 1
        assert (model_dirs[0] / "DONE").exists()

    def test_train_reuses_cache(self, out_dir):
        assert run_cli(["--language", "1", "--out", str(out_dir), "train"] + TINY_ARGS) == 0
        assert len(list((out_dir / "models").glob("tomita1_seed0_*"))) == 1

    def test_extract_writes_outputs(self, out_dir):
        code = run_cli(["--language", "1", "--out", str(out_dir), "extract",
                        "--data", "40", "--length", "6"] + TINY_ARGS)
        assert code == 0
        assert (out_dir / "tomita1_seed0.dfa").exists()
        assert (out_dir / "tomita1_seed0.dot").exists()
        assert (out_dir / "results.csv").exists()
        resolved = json.loads((out_dir / "resolved_config.json").read_text())
        assert set(resolved) == {"training", "experiment"}
        assert resolved["experiment"]["extraction"]["kappa"] == 0.01
        load_dfa((out_dir / "tomita1_seed0.dfa").read_text())

    def test_baseline_writes_outputs(self, out_dir):
        code = run_cli(["--language", "1", "--out", str(out_dir), "baseline",
                        "--data", "40", "--length", "6", "--k", "3"] + TINY_ARGS)
        assert code == 0
        assert (out_dir / "tomita1_seed0_kmeans.dfa").exists()

    def test_eval_runs_on_extracted_dfa(self, out_dir, capsys):
        code = run_cli(["--language", "1", "--out", str(out_dir), "eval",
                        "--dfa", str(out_dir / "tomita1_seed0.dfa")] + TINY_ARGS)
        assert code == 0
        assert "fidelity vs RNN" in capsys.readouterr().out


class TestErrorsAndUtilities:
    def test_missing_dfa_file_exits_nonzero(self, tmp_path, capsys):
        code = run_cli(["export-dot", "--dfa", str(tmp_path / "nope.dfa")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["export-dot", "--dfa", "{dir}"],
        ["export-dot", "--dfa", "{dir}/ok.dfa", "--out-file", "{dir}"],
        ["--language", "1", "eval", "--dfa", "{dir}"]],
        ids=["export-dot-dfa", "export-dot-out-file", "eval-dfa"])
    def test_directory_path_exits_nonzero(self, argv, tmp_path, capsys):
        (tmp_path / "ok.dfa").write_text(save_dfa(gold_dfa(2)))
        assert run_cli([arg.format(dir=tmp_path) for arg in argv]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_dfa_file_exits_nonzero(self, tmp_path, capsys):
        dfa_path = tmp_path / "bad.dfa"
        dfa_path.write_text(save_dfa(gold_dfa(1)) + "initial\n")
        assert run_cli(["export-dot", "--dfa", str(dfa_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_export_dot_stdout_and_file(self, tmp_path, capsys):
        dfa_path = tmp_path / "gold2.dfa"
        dfa_path.write_text(save_dfa(gold_dfa(2)))
        assert run_cli(["export-dot", "--dfa", str(dfa_path)]) == 0
        assert "digraph" in capsys.readouterr().out
        out_file = tmp_path / "gold2.dot"
        assert run_cli(["export-dot", "--dfa", str(dfa_path),
                        "--out-file", str(out_file)]) == 0
        assert "digraph" in out_file.read_text()

    def test_config_file_overrides(self, tmp_path):
        # Arguments apply in order: the file beats the --seed before it, and
        # the --kappa typed after a file beats the file's.
        seed_file = write_args(tmp_path / "seed.args", ["--seed=5"])
        kappa_file = write_args(tmp_path / "kappa.args", ["--kappa=0.3"])
        args = build_parser().parse_args(["--language", "1", "--seed", "2", seed_file,
                                          "extract", kappa_file, "--kappa", "0.2"])
        assert (args.seed, _experiment_config(args).extraction.kappa) == (5, 0.2)

    def test_config_file_unknown_key(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli([write_args(tmp_path / "run.args", ["--no-such-option=1"]), "table2"])
        assert exc.value.code == 2


def resolved_config(out):
    return json.loads((out / "resolved_config.json").read_text())


def without_wall_time(text):
    return [{k: v for k, v in row.items() if k != "wall_time"}
            for row in csv.DictReader(text.splitlines())]


class TestRecordedRuns:
    """resolved_config.json names the experiment that ran and every training
    config it used."""

    @pytest.fixture
    def tiny(self, monkeypatch):
        """The tiny training config, for commands that take no training flags."""
        monkeypatch.setattr(cli, "_training_config",
                            lambda args, language: TrainingConfig(language, args.seed, **TINY))

    @pytest.mark.parametrize("command", ["extract", "baseline"])
    def test_records_its_seed(self, command, tmp_path):
        assert run_cli(["--language", "1", "--seed", "3", "--out", str(tmp_path), command,
                        "--data", "40", "--length", "6"] + TINY_ARGS) == 0
        resolved = resolved_config(tmp_path)
        assert resolved["training"] == [TrainingConfig(1, 3, **TINY).record()]
        assert (resolved["experiment"]["languages"], resolved["experiment"]["seeds"]) == ([1], [3])

    def test_sweep_kappa_writes_machines(self, tiny, tmp_path):
        assert run_cli(["--language", "2", "--seed", "3", "--out", str(tmp_path), "sweep",
                        "kappa"]) == 0
        resolved = resolved_config(tmp_path)
        config = TrainingConfig(2, 3, **TINY)
        assert resolved["training"] == [config.record()]
        assert (resolved["experiment"]["languages"], resolved["experiment"]["seeds"]) == ([2], [3])
        model = best_model(ensure_trained(config, tmp_path / "models")[0])
        expected = harness.sweep_kappa(ExperimentConfig(languages=(2,), seeds=(3,)), model)
        assert (without_wall_time((tmp_path / "sweep_kappa.csv").read_text())
                == without_wall_time(to_csv(RESULT_FIELDS, [row for row, _ in expected])))
        written = {"models", "resolved_config.json", "sweep_kappa.csv"}
        for row, report in expected:
            for stage, dfa in (("merged", report.determinized), ("final", report.final)):
                tag = f"tomita2_kappa{row.kappa}_{stage}"
                assert load_dfa((tmp_path / f"{tag}.dfa").read_text()) == dfa
                assert (tmp_path / f"{tag}.dot").read_text() == to_dot(dfa)
                written |= {f"{tag}.dfa", f"{tag}.dot"}
        assert {p.name for p in tmp_path.iterdir()} == written

    def test_table2_records_its_training_config(self, tiny, tmp_path):
        assert run_cli(["--language", "4", "--seed", "2", "--out", str(tmp_path), "table2"]) == 0
        resolved = resolved_config(tmp_path)
        assert resolved["training"] == [TrainingConfig(4, 2, **TINY).record()]
        assert (resolved["experiment"]["languages"], resolved["experiment"]["seeds"]) == (
            [4], [0, 1, 2, 3, 4])


SHIPPED_TOMITA1 = run_dir(harness.full_scale_config(1),
                          Path(__file__).resolve().parent.parent / "artifacts" / "models")


def files_under(root):
    """Each path under root, with the sha256 of its bytes if it is a file."""
    return {str(path.relative_to(root)):
            hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
            for path in root.rglob("*")}


class TestShippedRun:
    """table2 and the data and epoch sweeps on a copy of the shipped Tomita 1
    run train nothing, leave the model cache as it was, and write the
    drivers' rows on that run."""

    @pytest.fixture(scope="class")
    def shipped(self, tmp_path_factory):
        # A copy, not a link: a run that failed the cache check would be
        # retrained in place.
        out = tmp_path_factory.mktemp("shipped")
        shutil.copytree(SHIPPED_TOMITA1, out / "models" / SHIPPED_TOMITA1.name)
        checkpoints, _ = load_finished_run(harness.full_scale_config(1), SHIPPED_TOMITA1)
        return out, checkpoints

    @pytest.mark.parametrize("command, table, driver", [
        (["table2"], "table2_rows.csv",
         lambda config, ckpts: harness.reproduce_table2(config, {1: best_model(ckpts)})[0]),
        (["sweep", "data"], "sweep_data.csv",
         lambda config, ckpts: harness.sweep_data_size(config, {1: best_model(ckpts)})),
        (["sweep", "epochs"], "sweep_epochs.csv",
         lambda config, ckpts: harness.sweep_epochs(config, {1: ckpts}))],
        ids=["table2", "sweep-data", "sweep-epochs"])
    def test_writes_the_drivers_rows_and_trains_nothing(self, command, table, driver, shipped,
                                                        monkeypatch):
        out, checkpoints = shipped

        def no_training(*args, **kwargs):
            raise AssertionError("a command trained a model")

        monkeypatch.setattr(rnn, "train", no_training)
        models = files_under(out / "models")
        assert run_cli(["--language", "1", "--out", str(out)] + command) == 0
        assert files_under(out / "models") == models
        assert resolved_config(out)["training"] == [harness.full_scale_config(1).record()]
        expected = driver(ExperimentConfig(languages=(1,)), checkpoints)
        assert (without_wall_time((out / table).read_text())
                == without_wall_time(to_csv(RESULT_FIELDS, expected)))

    def test_sweep_data_records_the_strings_it_drew(self, shipped):
        # The grid is the table's data sizes, and the driver on the recorded
        # grid and string length gives the table's rows.
        out, checkpoints = shipped
        assert run_cli(["--language", "1", "--out", str(out), "sweep", "data"]) == 0
        drawn = resolved_config(out)["data_sweep"]
        table = without_wall_time((out / "sweep_data.csv").read_text())
        assert sorted({int(row["data_count"]) for row in table}) == drawn["grid"]
        expected = harness.sweep_data_size(ExperimentConfig(languages=(1,)),
                                           {1: best_model(checkpoints)},
                                           grid=tuple(drawn["grid"]),
                                           string_len=drawn["string_len"])
        assert table == without_wall_time(to_csv(RESULT_FIELDS, expected))


def test_train_all_languages_records_each_config(tmp_path):
    assert run_cli(["--out", str(tmp_path), "train"] + TINY_ARGS) == 0
    resolved = json.loads((tmp_path / "resolved_config.json").read_text())
    assert [cfg["language"] for cfg in resolved["training"]] == list(range(1, 8))
    assert all(cfg["epochs"] == 2 for cfg in resolved["training"])


SRC = Path(__file__).resolve().parent.parent / "src"
# Tomita 7 at d = 100: one epoch on 128 strings of length 20 is enough for the
# BLAS thread count to change the bytes a run writes.
THREADED = TrainingConfig(7, n_train=128, train_len=20, epochs=1, hidden_dim=100)
ENSURE_TRAINED = ("import sys; from pathlib import Path; "
                  "from statemerge.harness import TrainingConfig, ensure_trained; "
                  f"ensure_trained({THREADED!r}, Path(sys.argv[1]))")


def run_files(argv, threads, run):
    """Run argv in a child process whose BLAS starts with the given thread
    count; return the sha256 of each file in the run directory run."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               **{var: str(threads) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS")})
    child = subprocess.run([sys.executable] + argv, env=env, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(run.iterdir())}


def test_train_runs_at_one_blas_thread(tmp_path):
    """train writes the bytes of a one-thread run, whatever thread count the
    process starts with."""
    one, two, cli_out = (tmp_path / name for name in ("one", "two", "cli"))
    expected = run_files(["-c", ENSURE_TRAINED, str(one)], 1, run_dir(THREADED, one))
    if run_files(["-c", ENSURE_TRAINED, str(two)], 2, run_dir(THREADED, two)) == expected:
        pytest.skip("two BLAS threads train the same bytes as one on this machine, "
                    "so it cannot show a thread count leaking into training")
    argv = ["-m", "statemerge.cli", "--language", "7", "--out", str(cli_out), "train",
            "--n-train", "128", "--train-len", "20", "--dev-len", "100", "--epochs", "1",
            "--hidden-dim", "100"]
    assert run_files(argv, 2, run_dir(THREADED, cli_out / "models")) == expected


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("imports, expected", [
    ("statemerge.cli, numpy", ["1", "1", "1"]),
    ("numpy, statemerge.cli", [None, None, None])])
def test_blas_variables_set_only_before_numpy_loads(imports, expected):
    """The CLI sets one BLAS thread when it loads before numpy, the only case
    in which the variables act; after numpy it leaves the environment that a
    library caller's children inherit as it was."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARS}
    env["PYTHONPATH"] = str(SRC)
    child = subprocess.run(
        [sys.executable, "-c", f"import json, os; import {imports}; "
         f"print(json.dumps([os.environ.get(var) for var in {BLAS_VARS!r}]))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == expected
