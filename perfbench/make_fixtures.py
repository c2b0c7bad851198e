"""Train the benchmark's fixture recognizers, one per Tomita language.

Each model is ``harness.light_config(language, seed=0)`` (5000 strings of
length 50, d = 100, 20 epochs), trained through ``harness.ensure_trained`` in
a temporary cache.  The best epoch is written in the program's checkpoint
format, gzip-compressed with a zero timestamp, to
``perfbench/fixtures/tomita<L>.ckpt.gz``.  Regenerating changes the warm
workloads' inputs: update the pinned sha256 sums and expected rows in
``perfbench/expected.json`` afterwards (``python3 perfbench/run.py --pin``).

Usage: python3 perfbench/make_fixtures.py [LANGUAGE ...]   (default: 1-7)
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gzip
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from statemerge import harness, rnn  # noqa: E402
from statemerge.languages import ALPHABET  # noqa: E402

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


def main(languages: list[int]) -> None:
    FIXTURE_DIR.mkdir(exist_ok=True)
    for language in languages:
        config = harness.light_config(language, seed=0)
        with tempfile.TemporaryDirectory(dir=ROOT) as cache:
            checkpoints, _ = harness.ensure_trained(config, Path(cache))
        best = rnn.best_checkpoint(checkpoints)
        text = rnn.save_checkpoint(best, ALPHABET)
        path = FIXTURE_DIR / f"tomita{language}.ckpt.gz"
        path.write_bytes(gzip.compress(text.encode(), mtime=0))
        print(f"tomita{language}: epoch {best.metadata['epoch']}, "
              f"dev accuracy {best.metadata['dev_accuracy']}, {path.stat().st_size} bytes",
              flush=True)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or list(range(1, 8)))
