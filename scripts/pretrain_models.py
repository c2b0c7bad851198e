"""Train the shipped recognizers into artifacts/models, the suite's model cache.

Usage: PYTHONPATH=src python scripts/pretrain_models.py [LANGUAGE ...]

Trains the given Tomita languages (all seven by default) with the shipped
protocol, ``harness.full_scale_config``.  A language whose run is already
finished there is only re-checked, not retrained.

BLAS runs on one thread: the thread count changes how OpenBLAS sums, and
Tomita 7's training amplifies those last-bit differences into different
models, so the shipped runs are reproducible only at a fixed count.
"""
import logging
import os
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

from statemerge.harness import ensure_trained, full_scale_config  # noqa: E402
from statemerge.languages import LANGUAGE_IDS  # noqa: E402

CACHE = Path(__file__).resolve().parent.parent / "artifacts" / "models"


def main(languages: list[int]) -> None:
    logging.basicConfig(level=logging.INFO)
    for language in languages or LANGUAGE_IDS:
        config = full_scale_config(language)
        start = time.perf_counter()
        ensure_trained(config, CACHE)
        print(f"done tomita {language}: {config.epochs} epochs in "
              f"{time.perf_counter() - start:.0f} s", flush=True)


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]])
