"""End-to-end tests of the command line interface on a tiny training setup."""

import json

import pytest

from statemerge.automata import load_dfa, save_dfa
from statemerge.cli import _experiment_config, _training_config, build_parser, main
from statemerge.languages import gold_dfa

TINY_ARGS = ["--n-train", "40", "--train-len", "6", "--n-dev", "20",
             "--dev-len", "8", "--embed-dim", "4", "--hidden-dim", "8",
             "--epochs", "2"]


def run_cli(args):
    return main(args)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_extract_requires_language(self, capsys):
        with pytest.raises(SystemExit):
            main(["extract"])

    @pytest.mark.parametrize("argv", [
        ["extract", "--kappa", "0"], ["extract", "--kappa", "1"],
        ["extract", "--kappa", "-0.5"], ["extract", "--kappa", "nan"],
        ["sweep", "kappa", "--kappa", "1.5"], ["extract", "--data", "0"],
        ["baseline", "--data", "-3"], ["baseline", "--k", "0"],
        ["train", "--epochs", "0"], ["extract", "--epochs", "-1"],
        ["--threads", "-4", "table2"], ["--threads", "0", "table2"],
        ["extract", "--length", "-1"], ["baseline", "--length", "-2"],
        ["train", "--train-len", "-1"], ["eval", "--dfa", "x", "--dev-len", "-1"]])
    def test_out_of_range_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--language", "1"] + argv)
        assert exc.value.code == 2
        assert "must" in capsys.readouterr().err

    @pytest.mark.parametrize("config, env", [
        ({"threads": -4}, {}), ({"kappa": 0}, {}), ({"data": 0}, {}),
        ({"language": 9}, {}), ({"threads": "x"}, {}),
        ({}, {"STATEMERGE_THREADS": "-4"}), ({}, {"STATEMERGE_THREADS": "x"}),
        ({}, {"STATEMERGE_SEED": "x"}), ({"length": -1}, {}), ({"train_len": -1}, {}),
        ({"dev_len": -3}, {}), ({"no_such_key": 1}, {})])
    def test_config_and_env_values_checked(self, config, env, tmp_path, monkeypatch, capsys):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(["--language", "1", "--config", str(cfg), "extract"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, argv", [
        (None, ["extract"]), ("{", ["extract"]), ("[1, 2]", ["extract"]),
        ('{"kind": "bogus"}', ["sweep", "data"])], ids=["missing", "malformed", "non-object",
                                                        "bad-choice"])
    def test_bad_config_file_exits_2(self, text, argv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["--language", "1", "--config", str(cfg)] + argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_explicit_values_kept(self):
        args = build_parser().parse_args(["--language", "1", "extract", "--kappa", "0.5",
                                          "--data", "1", "--length", "0", "--epochs", "1"])
        extraction = _experiment_config(args).extraction
        assert (extraction.kappa, extraction.n_strings, extraction.string_len) == (0.5, 1, 0)
        assert _training_config(args, 1).epochs == 1

    def test_seed_env_default(self, monkeypatch):
        monkeypatch.setenv("STATEMERGE_SEED", "7")
        # The default is captured at parser build time.
        args = build_parser().parse_args(["table2"])
        assert args.seed == 7
        monkeypatch.setenv("STATEMERGE_THREADS", "3")
        assert build_parser().parse_args(["table2"]).threads == 3


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_out")
    code = run_cli(["--language", "1", "--out", str(out), "train"] + TINY_ARGS)
    assert code == 0
    return out


class TestTrainExtractEval:
    def test_train_artifacts(self, out_dir):
        assert (out_dir / "resolved_config.json").exists()
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
        assert resolved["cosine_threshold"] == 0.99
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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        args_out = tmp_path / "o"
        dfa_path = tmp_path / "gold1.dfa"
        dfa_path.write_text(save_dfa(gold_dfa(1)))
        assert run_cli(["--config", str(cfg), "--out", str(args_out),
                        "export-dot", "--dfa", str(dfa_path),
                        "--out-file", str(tmp_path / "x.dot")]) == 0

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_option": 1}))
        with pytest.raises(SystemExit):
            run_cli(["--config", str(cfg), "table2"])
