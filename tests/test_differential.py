"""scripts/differential.py: its battery is deterministic, so any difference
between two revisions is the program's, and the diff names the lines that
differ.  Runs the quick battery, its golden part included, in this process,
without git."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "differential.py"
_spec = importlib.util.spec_from_file_location("differential", SCRIPT)
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)


def test_quick_battery_is_deterministic():
    first = differential.battery(quick=True)
    assert differential.battery(quick=True) == first
    # k-means: 7 fixture trees at k = 2 and 20, and 50 point sets.  Samplers:
    # 7 languages on four bit generators, each entered fresh and after one
    # draw, 3 balanced sets and 2 eval sets each.  Prefix numbering: 7
    # fixture trees and 7 eval references.  Merging: 7 languages, 2 trees, 3
    # kappas.  Golden, in full: per language an eval set, an evaluate, state
    # merging at 2 kappas and k-means on 3 seeds, and a training run.
    # Drivers, per language on seed 0: table 2's two rows, the data sweep's
    # 2 sizes at 2 lengths, 3 kappas, and the epoch sweep's 2 epochs.
    assert len(first) == (7 * 2 + 50 + 4 * 2 * 7 * 5 + 7 + 7 + 7 * 2 * 3
                          + 7 * (1 + 1 + 2 * 3 + 3 + 1) + 7 * (2 + 2 * 2 + 3 + 2)) == 561
    assert sum(line.startswith("kmeans tomita") for line in first) == 7 * 2
    assert sum(line.startswith("eval_set ") for line in first) == 7
    assert sum(line.startswith("evaluate ") for line in first) == 7
    assert sum(line.startswith("state_merging ") for line in first) == 7 * 2 * 3
    assert sum(re.match(r"kmeans \d", line) is not None for line in first) == 7 * 3
    assert sum(line.startswith("train ") for line in first) == 7
    assert sum(line.startswith("prefix_tree tomita") for line in first) == 7
    assert sum(line.startswith("eval_reference tomita") for line in first) == 7
    assert sum(line.startswith("merge tomita") for line in first) == 7 * 2 * 3
    assert sum(" strings=150x15 " in line for line in first) == 7 * 3
    assert sum(line.startswith("sample_balanced(") for line in first) == 4 * 2 * 7 * 3
    assert sum(line.startswith("sample_eval_set(") for line in first) == 4 * 2 * 7 * 2
    for driver, rows in (("reproduce_table2", 2), ("sweep_data_size(default)", 2),
                         ("sweep_data_size(15)", 2), ("sweep_kappa", 3), ("sweep_epochs", 2)):
        assert sum(line.startswith(f"{driver} ") for line in first) == 7 * rows
    for name in ("PCG64", "Philox", "MT19937", "SFC64"):
        assert sum(f" {name} " in line for line in first) == 2 * 7 * 5
    assert sum(" entry=1 " in line for line in first) == 4 * 7 * 5
    assert len(set(first)) == len(first)


def test_tampered_fixture_is_refused(tmp_path, monkeypatch, capsys):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(differential.FIXTURES, fixtures)
    tampered = fixtures / "tomita4.ckpt.gz"
    tampered.write_bytes(tampered.read_bytes() + b"\0")
    monkeypatch.setattr(differential, "FIXTURES", fixtures)
    with pytest.raises(SystemExit) as exit_:
        differential.kmeans_battery(quick=True)
    assert exit_.value.code == 2
    assert f"{tampered} does not match its sha256" in capsys.readouterr().err


def test_differences_name_the_changed_lines():
    base = ["kmeans a k=2 assignments=00", "kmeans b k=2 assignments=11"]
    assert differential.differences(base, list(base), "BASE", "CHANGE") == []
    change = [base[0], "kmeans b k=2 assignments=12"]
    assert differential.differences(base, change, "BASE", "CHANGE") == [
        "--- BASE", "+++ CHANGE", "@@ -2 +2 @@",
        "-kmeans b k=2 assignments=11", "+kmeans b k=2 assignments=12"]

