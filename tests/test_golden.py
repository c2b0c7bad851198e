"""Golden outputs: fixed-seed runs must give the machines, sizes, fidelities
and training runs pinned in tests/golden.txt.

On the committed fixture models the pins cover the eval sets, state merging
at kappa 0.01 and 0.4 and k-means at k = 20 (100 extraction strings, seeds
0-2), and rnn.evaluate on a fixed balanced set.  Training is pinned by one
tiny harness.ensure_trained run per language: the sha256 of its run
directory, its final loss and its final dev accuracy.  Floats are pinned by
repr, so a difference in the last bit fails.  The lines are the golden part
of scripts/differential.py's battery (golden_battery); scripts/pin_golden.py
prints them in a child process with one BLAS thread, and rewrites the file
when run without arguments; do that only for a change meant to change these
outputs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.txt"


def split(text: str) -> tuple[str, list[str]]:
    """(the platform line of the header, the pinned lines)."""
    lines = text.splitlines()
    return ([line for line in lines if line.startswith("#")][-1].lstrip("# "),
            [line for line in lines if line and not line.startswith("#")])


def test_outputs_match_golden_file():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "pin_golden.py"), "-"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    pinned_on, expected = split(GOLDEN.read_text())
    running_on, actual = split(run.stdout)
    differ = [f"- {e}\n+ {a}" for e, a in zip(expected, actual) if e != a]
    assert len(actual) == len(expected) and not differ, (
        f"{len(differ)} of {len(expected)} golden lines differ; pinned on {pinned_on}, "
        f"running on {running_on}; python scripts/differential.py HEAD shows the wider "
        "diff against the last commit\n" + "\n".join(differ[:10]))
