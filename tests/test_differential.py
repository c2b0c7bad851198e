"""scripts/differential.py: its battery is deterministic, so any difference
between two revisions is the program's, and the diff names the lines that
differ.  Runs the quick battery in this process, without git."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "differential.py"
_spec = importlib.util.spec_from_file_location("differential", SCRIPT)
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)


def test_quick_battery_is_deterministic():
    first = differential.battery(quick=True)
    assert differential.battery(quick=True) == first
    # k-means: 7 fixture trees at k = 2 and 20, and 50 point sets.  Samplers:
    # 7 languages on two bit generators, 3 balanced sets and 1 eval set each.
    assert len(first) == 7 * 2 + 50 + 2 * 7 * 4
    assert sum(line.startswith("kmeans tomita") for line in first) == 7 * 2
    assert sum(line.startswith("sample_balanced(") for line in first) == 2 * 7 * 3
    assert sum(" philox " in line for line in first) == 7 * 4
    assert len(set(first)) == len(first)


def test_differences_name_the_changed_lines():
    base = ["kmeans a k=2 assignments=00", "kmeans b k=2 assignments=11"]
    assert differential.differences(base, list(base), "BASE", "CHANGE") == []
    change = [base[0], "kmeans b k=2 assignments=12"]
    assert differential.differences(base, change, "BASE", "CHANGE") == [
        "--- BASE", "+++ CHANGE", "@@ -2 +2 @@",
        "-kmeans b k=2 assignments=11", "+kmeans b k=2 assignments=12"]

