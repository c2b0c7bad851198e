"""Self-tests of the benchmark: its checks catch wrong outputs and inputs,
its reference kernel stays out of the program's peak memory, its tracer
sees every layer each workload should touch and nothing else, and it
refuses to run without the program.

Usage: python3 perfbench/selftest.py      (about three minutes; exit 0 = all pass)
"""

import copy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # perfbench/run.py; sets the BLAS thread variables on import
from tracer import SPAN_NAMES

# Span names each workload must call; every other span must record 0 calls.
EXTRACTION_LAYERS = {
    "harness.run_extraction", "harness.fidelity", "languages.sample_balanced",
    "languages.sample_eval_set", "rnn.forward", "rnn.load_checkpoint",
    "extraction.build_prefix_tree", "extraction.merge_all",
    "automata.determinize", "automata.minimize"}
CALLED = {
    "cold_fill": {"harness.ensure_trained", "languages.sample_balanced",
                  "rnn.loss_and_grads", "rnn.adamw_step", "rnn.evaluate",
                  "rnn.save_checkpoint"},
    "table2": EXTRACTION_LAYERS | {"harness.reproduce_table2", "harness.run_kmeans_baseline",
                                   "kmeans.kmeans", "kmeans.kmeans_extract"},
    "data_sweep": EXTRACTION_LAYERS | {"harness.sweep_data_size"},
}
# Each workload's role: the share of its traced pass its defining layers take.
ROLE_SHARES = {"cold_fill": ("bptt_plus_sampling", 0.80),
               "table2": ("kmeans_extract", 0.50),
               "data_sweep": ("merge_all", 0.50)}

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("PASS " if ok else "FAIL ") + message, flush=True)
    if not ok:
        failures.append(message)


def test_corrupted_pins_fail() -> None:
    expected = run.load_expected()
    corrupted = copy.deepcopy(expected)
    corrupted["cold_fill"]["dev_accuracy"] += 1e-6
    result, detail = run.run_workload("cold_fill", run.DEFAULT_SEED, 1, False, corrupted)
    check(detail["wall_clock"]["fail_rate"] > 0 and not result["correct"],
          f"a corrupted cold_fill pin fails ({result['failed']}/{result['attempted']})")
    corrupted = copy.deepcopy(expected)
    key = sorted(corrupted["data_sweep"])[0]
    corrupted["data_sweep"][key][1] += 1
    result, _ = run.run_workload("data_sweep", run.DEFAULT_SEED, 1, False, corrupted)
    check(result["failed"] == 1,
          "a corrupted data_sweep row fails exactly once "
          f"({result['failed']}/{result['attempted']})")


def test_fixture_hash_mismatch_refused() -> None:
    expected = run.load_expected()
    expected["fixtures"]["tomita3.ckpt.gz"] = "0" * 64
    try:
        run.run_workload("table2", run.DEFAULT_SEED, 1, False, expected)
    except run.BenchError as exc:
        check("tomita3.ckpt.gz" in str(exc) and "sha256" in str(exc),
              f"a fixture hash mismatch is refused: {exc}")
    else:
        check(False, "a fixture hash mismatch is refused")


def test_reference_kept_out_of_peak() -> None:
    """The reference kernel runs in a helper process; what it adds to the
    helper's resident set stays well below the program's peak on table2,
    the workload whose peak the program's k-means sets."""
    result, detail = run.run_workload("table2", run.DEFAULT_SEED, 1, False, run.load_expected())
    peak = result["metrics"]["peak_rss_mb"]["value"]
    kernel = detail["reference_peak_rss_mb"]
    check(result["correct"] and kernel < 0.1 * peak,
          f"table2: the reference kernel adds {kernel:.1f} MB to its own process, "
          f"below a tenth of the program's peak of {peak:.1f} MB")


def test_tracer_coverage() -> None:
    expected = run.load_expected()
    for workload, called in CALLED.items():
        result, detail = run.run_workload(workload, 5, 1, True, expected)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        check(result["correct"], f"{workload}: traced outputs equal the untraced ones")
        missing = sorted(n for n in called if metrics[f"{n}.calls"] < 1)
        check(not missing, f"{workload}: every expected layer records calls {missing or ''}")
        stray = sorted(n for n in SPAN_NAMES if n not in called and metrics[f"{n}.calls"] > 0)
        check(not stray, f"{workload}: no other layer records calls {stray or ''}")
        share_name, floor = ROLE_SHARES[workload]
        share = detail["shares"][share_name]
        check(share >= floor, f"{workload}: {share_name} takes {share:.1%} (>= {floor:.0%})")


def test_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, Path(bare) / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table2",
                              "--seconds", "1"], cwd=bare, capture_output=True, text=True,
                             timeout=180)
    check(out.returncode != 0 and not out.stdout.strip(),
          f"without src/ the benchmark exits {out.returncode} and prints no result")


if __name__ == "__main__":
    test_refuses_without_program()
    test_fixture_hash_mismatch_refused()
    test_corrupted_pins_fail()
    test_reference_kept_out_of_peak()
    test_tracer_coverage()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)
