"""Write tests/golden.txt, the outputs that tests/test_golden.py pins.

Usage: PYTHONPATH=src python scripts/pin_golden.py [-]

Prints the golden part of scripts/differential.py's battery
(``golden_battery``: the pinned experiments on the committed fixture models,
and one tiny training run per language) under a header that names the numpy
and BLAS builds.  Overwrites tests/golden.txt, or prints the same text to
stdout when given ``-``.  Only a change that is meant to change these
outputs rewrites the file.  A fixture model that does not match its sha256
in ``perfbench/expected.json`` exits 2.

BLAS runs on one thread: the thread count changes the last bits of the
hidden states, and k-means can turn those into another machine (Tomita 4,
seed 1 gives 4 states at one thread and 3 at two).
"""
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import logging  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from differential import golden_battery  # noqa: E402

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden.txt"
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


def main(argv: list[str]) -> None:
    logging.disable(logging.WARNING)  # kappa 0.4 overmerges, and extract says so
    text = "\n".join(HEADER + [f"# {platform()}"] + golden_battery()) + "\n"
    if argv == ["-"]:
        sys.stdout.write(text)
    else:
        GOLDEN.write_text(text)
        print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main(sys.argv[1:])
