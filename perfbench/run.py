"""Benchmark of statemerge's two user paths, end to end and per layer.

Workloads (why each was chosen: perfbench/NOTES.md):

  cold_fill   harness.ensure_trained into a fresh cache: sampling + BPTT
  table2      harness.reproduce_table2 on the fixture models: k-means bound
  data_sweep  harness.sweep_data_size on the fixture models: merge bound

Usage:

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --pin     # rewrite perfbench/expected.json

Each run repeats one fixed amount of work (a pass) for about --seconds.  A
pass is a few calls into the program (units).  Between the units the
benchmark times a fixed reference kernel of its own in a helper process
(perfbench/reference.py), for about a tenth of the time, and scales the
end-to-end times to a host on which that kernel takes REF_NOMINAL_S.  This divides out the speed of the shared host, which
drifts by up to half over minutes; the wall-clock figures are in the
detail record.  With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of one traced pass,
measured by wrapping the package's functions from outside
(perfbench/tracer.py), next to untraced passes of the same inputs.  The
line before it is a JSON record of the machine and the per-pass figures.

The program gets only generated inputs: configs carrying the workload seed,
and the committed fixture models, whose sha256 sums are pinned in
expected.json.  Every pass is checked: against the pinned rows at the
default seed, and against invariants and the run's first pass otherwise.
"""

import os

# One BLAS thread, set before numpy is first imported.  An unpinned OpenBLAS
# spins a second thread on the second core and makes timings drift.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURE_DIR = BENCH_DIR / "fixtures"
EXPECTED_PATH = BENCH_DIR / "expected.json"
SPEC_PATH = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer  # noqa: E402

WORKLOADS = ("cold_fill", "table2", "data_sweep")
DEFAULT_SEED = 0
LANGUAGES = tuple(range(1, 8))
SETUP_REPEATS = 9
LOSS_RTOL = 1e-9
# Seconds the reference kernel takes on the host the end-to-end times are
# scaled to.  The kernel is sized to take about this on a 2-core x86 VM
# (numpy 2.4, OpenBLAS 0.3.31) at its faster level.
REF_NOMINAL_S = 0.05
# Reference time per second in the program: the kernel samples the host's
# speed about evenly in time, whatever the length of a workload's units.
REF_SHARE = 0.1
# Traced and untraced passes alternated to measure the tracing overhead.
TRACED_PAIRS = 2

# Work in one pass of each workload.
COLD_FILL = dict(language=2, n_train=500, train_len=100, n_dev=100, dev_len=100,
                 epochs=8, batch_size=64)
# Two extraction seeds per table2 pass: Lloyd iteration counts, and so the
# work, vary with the seed, and a pass averages over two.  (Four seeds of 60
# strings were no steadier, and their fidelity varied more with the seed.)
TABLE2 = dict(n_strings=100, n_eval=100, seeds_per_pass=2)
SWEEP = dict(grid=(50, 150), string_len=15, n_eval=100)


class BenchError(Exception):
    """The benchmark cannot run as defined: no program, wrong inputs, BLAS not pinned."""


# ---------------------------------------------------------------------------
# Set-up


def load_program():
    """Import statemerge from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        from statemerge import harness, rnn
    except ImportError as exc:
        raise BenchError(f"cannot import statemerge from {SRC}: {exc}") from exc
    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"statemerge was imported from {harness.__file__}, not {SRC}")
    return harness, rnn


def load_expected() -> dict:
    try:
        return json.loads(EXPECTED_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {EXPECTED_PATH}: {exc}") from exc


def fixture_path(language: int) -> Path:
    return FIXTURE_DIR / f"tomita{language}.ckpt.gz"


def load_fixtures(rnn, pins: dict[str, str]) -> dict:
    """The fixture models, after checking each file against its pinned sha256."""
    models = {}
    for language in LANGUAGES:
        path = fixture_path(language)
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise BenchError(f"fixture {path.name} is missing: {exc}") from exc
        digest = hashlib.sha256(data).hexdigest()
        if digest != pins.get(path.name):
            raise BenchError(f"fixture {path.name} has sha256 {digest}, but "
                             f"expected.json pins {pins.get(path.name)}; refusing to run "
                             "on different inputs")
        ckpt, alphabet = rnn.load_checkpoint(gzip.decompress(data).decode())
        models[language] = rnn.model_from_checkpoint(ckpt, alphabet)
    return models


def set_up(workload: str, expected: dict):
    harness, rnn = load_program()
    models = {} if workload == "cold_fill" else load_fixtures(rnn, expected["fixtures"])
    return harness, rnn, models


def setup_probe(workload: str, expected: dict) -> float:
    """Set-up seconds in this fresh interpreter."""
    start = time.perf_counter()
    set_up(workload, expected)
    return time.perf_counter() - start


def measure_setup(workload: str, reference: "Reference") -> list[tuple[float, float]]:
    """(set-up seconds, reference seconds) of setup_probe in SETUP_REPEATS
    fresh interpreters, one after another; the reference is the median of
    three kernel calls right after each probe."""
    probes = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                "--workload", workload, "--setup-probe"],
                               cwd=ROOT, capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{child.stderr}")
        probes.append((float(child.stdout.split()[-1]),
                       statistics.median(reference.times(3))))
    return probes


# ---------------------------------------------------------------------------
# Host speed


class Reference:
    """The reference kernel (perfbench/reference.py), timed in a helper
    process that the program never touches: fixed work that is not the
    program's, about REF_NOMINAL_S on a quiet host.  Averaged over a run,
    its time tracks the speed of the host; a single call is a loose sample
    of it.  Use as a context manager, which stops the helper."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        self.times(1)  # the first call in a process is slow; keep it out

    def _ask(self, request: str):
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"the reference helper exited with code {self.proc.wait()}")
        return json.loads(line)

    def times(self, n: int) -> list[float]:
        """Seconds taken by each of n kernel calls, one after another."""
        return self._ask(str(n))

    def peak_rss_mb(self) -> float:
        """Resident set the kernel added to the helper's peak."""
        return self._ask("peak")

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def normalized(seconds: float, ref: float) -> float:
    """Seconds scaled to the host on which the reference takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref


# ---------------------------------------------------------------------------
# Machine record


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "statemerge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def machine_record() -> dict:
    # Imported here, not at the top, so that a set-up probe times numpy's
    # import as the program's.
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    }


# ---------------------------------------------------------------------------
# The units of one pass.  A unit takes a context manager (the tracer, or a
# null context) to enter around its call into the program, and returns
# (seconds in that call, outcomes by operation key).

Unit = Callable[[contextlib.AbstractContextManager], tuple[float, dict]]


def cold_fill_units(harness, rnn, models, seed) -> list[Unit]:
    sizes = dict(COLD_FILL)
    config = dataclasses.replace(harness.TrainingConfig(sizes.pop("language"), seed), **sizes)

    def train(around):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as cache:
            with around:
                start = time.perf_counter()
                checkpoints, metrics = harness.ensure_trained(config, Path(cache))
                wall = time.perf_counter() - start
            files = sorted(Path(cache).glob("*/epoch*.ckpt"))
            round_trips = len(files) == len(checkpoints) == config.epochs and all(
                _round_trips(rnn, path, ckpt) for path, ckpt in zip(files, checkpoints))
        outcome = [metrics[-1].train_loss, metrics[-1].dev_accuracy, round_trips]
        return wall, {f"{config.language},train,{seed},{config.n_train}": outcome}

    return [train]


def _round_trips(rnn, path: Path, ckpt) -> bool:
    loaded, alphabet = rnn.load_checkpoint(path.read_text())
    return (alphabet == ("a", "b") and loaded.metadata == ckpt.metadata
            and loaded.params.keys() == ckpt.params.keys()
            and all(loaded.params[k].shape == v.shape and (loaded.params[k] == v).all()
                    for k, v in ckpt.params.items()))


def table2_units(harness, rnn, models, seed) -> list[Unit]:
    """One reproduce_table2 call per language and extraction seed: the same
    rows as one call over all, in units short enough to track the host's
    speed."""
    def table2(language, extraction_seed):
        config = harness.ExperimentConfig(
            languages=(language,), seeds=(extraction_seed,), threads=1,
            n_eval=TABLE2["n_eval"],
            extraction=harness.ExtractionConfig(n_strings=TABLE2["n_strings"]))

        def unit(around):
            with around:
                start = time.perf_counter()
                rows, _ = harness.reproduce_table2(config, models)
                wall = time.perf_counter() - start
            return wall, _row_outcomes(rows)
        return unit

    return [table2(language, s) for language in LANGUAGES for s in table2_seeds(seed)]


def table2_seeds(seed: int) -> tuple[int, ...]:
    return tuple(range(seed, seed + TABLE2["seeds_per_pass"]))


def data_sweep_units(harness, rnn, models, seed) -> list[Unit]:
    """One sweep_data_size call per language, as in table2_units."""
    def sweep(language):
        config = harness.ExperimentConfig(languages=(language,), seeds=(seed,), threads=1,
                                          n_eval=SWEEP["n_eval"])

        def unit(around):
            with around:
                start = time.perf_counter()
                rows = harness.sweep_data_size(config, models, grid=SWEEP["grid"],
                                               string_len=SWEEP["string_len"])
                wall = time.perf_counter() - start
            return wall, _row_outcomes(rows)
        return unit

    return [sweep(language) for language in LANGUAGES]


def _row_outcomes(rows) -> dict[str, list]:
    return _merge_outcomes([{f"{r.language},{r.method},{r.seed},{r.data_count}":
                             [r.merged_size, r.minimized_size, r.acc_vs_rnn, r.acc_vs_gold]}
                            for r in rows])


def _merge_outcomes(parts: list[dict]) -> dict[str, list]:
    out: dict[str, list] = {}
    for part in parts:
        for key, value in part.items():
            # A duplicated key is an output error; None never passes a check.
            out[key] = None if key in out else value
    return out


UNITS = {"cold_fill": cold_fill_units, "table2": table2_units, "data_sweep": data_sweep_units}


@dataclasses.dataclass
class Pass:
    walls: list[float]     # seconds in each unit's call into the program
    refs: list[float]      # reference seconds timed between the units
    outcomes: dict

    @property
    def wall(self) -> float:
        return sum(self.walls)


def run_pass(workload, program, seed, tracer=None,
             reference: Reference | None = None) -> Pass | None:
    """One pass, or None if the program raised.  With a reference, its
    kernel is timed once before the first unit and, after each unit,
    REF_SHARE of the unit's time over REF_NOMINAL_S times (at least once)."""
    walls, refs, parts = [], [], []
    try:
        if reference is not None:
            refs += reference.times(1)
        for unit in UNITS[workload](*program, seed):
            wall, outcomes = unit(tracer or contextlib.nullcontext())
            walls.append(wall)
            parts.append(outcomes)
            if reference is not None:
                refs += reference.times(max(1, round(REF_SHARE * wall / REF_NOMINAL_S)))
    except BenchError:
        raise
    except Exception:  # a failing program is a measured outcome, not a crash
        traceback.print_exc()
        return None
    return Pass(walls, refs, _merge_outcomes(parts))


def work_per_pass(workload: str) -> int:
    """Training strings x epochs (cold_fill), result rows (table2),
    extractions (data_sweep)."""
    if workload == "cold_fill":
        return COLD_FILL["n_train"] * COLD_FILL["epochs"]
    return len(planned_keys(workload, DEFAULT_SEED))


def planned_keys(workload: str, seed: int) -> list[str]:
    """The operations one pass attempts: one training run, or one result row each."""
    if workload == "cold_fill":
        return [f"{COLD_FILL['language']},train,{seed},{COLD_FILL['n_train']}"]
    if workload == "table2":
        return [f"{lang},{method},{s},{TABLE2['n_strings']}" for lang in LANGUAGES
                for s in table2_seeds(seed) for method in ("state_merging", "kmeans")]
    return [f"{lang},state_merging,{seed},{n}" for lang in LANGUAGES for n in SWEEP["grid"]]


# ---------------------------------------------------------------------------
# Checks


def check_outcome(workload: str, key: str, value, seed: int, expected: dict) -> bool:
    """Pinned values at the default seed; invariants at every seed."""
    if value is None:
        return False
    if workload == "cold_fill":
        loss, dev_accuracy, round_trips = value
        ok = round_trips and math.isfinite(loss) and loss > 0 and 0.0 <= dev_accuracy <= 1.0
        if seed == DEFAULT_SEED:
            pin = expected["cold_fill"]
            ok = ok and (abs(loss - pin["train_loss"]) <= LOSS_RTOL * abs(pin["train_loss"])
                         and dev_accuracy == pin["dev_accuracy"])
        return ok
    merged, minimized, acc_rnn, acc_gold = value
    ok = 0.0 <= acc_rnn <= 1.0 and 0.0 <= acc_gold <= 1.0 and merged >= minimized >= 1
    if seed == DEFAULT_SEED:
        ok = ok and expected[workload].get(key) == value
    return ok


def check_pass(workload, seed, done: Pass | None, reference: dict | None,
               expected) -> tuple[int, int]:
    """(attempted, failed) for one pass; reference holds the outcomes of an
    earlier pass of the same inputs, which this one must repeat exactly."""
    outcomes = done.outcomes if done else {}
    keys = planned_keys(workload, seed)
    extra = set(outcomes) - set(keys)
    failed = len(extra)
    for key in keys:
        value = outcomes.get(key)
        if not check_outcome(workload, key, value, seed, expected) or (
                reference is not None and reference.get(key) != value):
            failed += 1
    return len(keys) + len(extra), failed


# ---------------------------------------------------------------------------
# Runs


def normalized_total(passes: list[Pass]) -> float:
    """The passes' program seconds, scaled by the mean of their reference times."""
    return normalized(sum(p.wall for p in passes),
                      statistics.fmean(r for p in passes for r in p.refs))


def end_to_end(workload, passes: list[Pass]) -> tuple[dict[str, float], dict]:
    """(end-to-end metrics except setup_s, detail figures).  The rate is the
    run's total work over its total program seconds, scaled by the mean of
    all its reference times: the few references of one pass sample the
    host's speed too thinly to scale that pass by."""
    work = work_per_pass(workload) * len(passes)
    rate = work / normalized_total(passes)
    wall_rate = work / sum(p.wall for p in passes)
    outcomes = passes[0].outcomes
    if workload == "cold_fill":
        value = next(iter(outcomes.values()))
        accuracy = value[1] if value else math.nan
        named = {"train_strings_per_s": wall_rate, "dev_accuracy": accuracy}
    else:
        sm = [v[2] for k, v in outcomes.items() if v and ",state_merging," in k]
        km = [v[2] for k, v in outcomes.items() if v and ",kmeans," in k]
        accuracy = statistics.fmean(sm) if sm else math.nan
        named = {"rows_per_s" if workload == "table2" else "extractions_per_s": wall_rate,
                 "fidelity_mean": accuracy}
        if km:
            named["kmeans_fidelity_mean"] = statistics.fmean(km)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"norm_work_per_s": rate, "peak_rss_mb": peak_rss_mb, "accuracy": accuracy}
    return metrics, named


def measured_run(workload, seed, seconds, expected, program) -> tuple[dict, dict, int, int]:
    """Passes for about `seconds`, ending at the pass boundary nearest to it:
    (metrics, detail, attempted, failed)."""
    with Reference() as reference:
        probes = measure_setup(workload, reference)
        passes: list[Pass] = []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            done = run_pass(workload, program, seed, reference=reference)
            n, bad = check_pass(workload, seed, done, passes[0].outcomes if passes else None,
                                expected)
            attempted, failed = attempted + n, failed + bad
            if done is not None:
                passes.append(done)
            elapsed = time.perf_counter() - start
            typical = elapsed / (len(passes) + (done is None))
            if elapsed + typical / 2 > seconds:  # end at the pass nearest to `seconds`
                break
        reference_peak_rss_mb = reference.peak_rss_mb()
    if not passes:
        raise BenchError("every pass raised; see the tracebacks above")
    metrics, named = end_to_end(workload, passes)
    metrics["setup_s"] = statistics.median(normalized(s, r) for s, r in probes)
    named.update(setup_s=statistics.median(s for s, _ in probes),
                 peak_rss_mb=metrics["peak_rss_mb"], fail_rate=failed / attempted)
    detail = {"passes": len(passes),
              "pass_s": [p.wall for p in passes],
              "ref_s": [p.refs for p in passes],
              "setup_probes": [{"setup_s": s, "ref_s": r} for s, r in probes],
              "reference_peak_rss_mb": reference_peak_rss_mb,
              "wall_clock": named}
    return metrics, detail, attempted, failed


def traced_run(workload, seed, expected, program) -> tuple[dict, dict, int, int]:
    """An untraced warm-up pass; set-up under the first tracer; then
    TRACED_PAIRS pairs of a traced and an untraced pass.  Every pass must
    repeat the warm-up's outputs.  The layer metrics are the first traced
    pass's; the overhead compares the wall time of all traced passes with
    that of all untraced ones.  (Scaling single passes by the reference
    times between their units made it noisier: at the scale of one pass the
    kernel's time and the program's are only loosely correlated.)"""
    first = run_pass(workload, program, seed)
    if first is None:
        raise BenchError("the untraced pass raised; see the traceback above")
    attempted, failed = check_pass(workload, seed, first, None, expected)
    harness, rnn, _ = program
    tracers = [Tracer() for _ in range(TRACED_PAIRS)]
    if workload != "cold_fill":
        with tracers[0]:
            models = load_fixtures(rnn, expected["fixtures"])
        program = (harness, rnn, models)
    traced, untraced = [], []
    for tracer in tracers:
        for side, tracing in ((traced, tracer), (untraced, None)):
            done = run_pass(workload, program, seed, tracing)
            n, bad = check_pass(workload, seed, done, first.outcomes, expected)
            attempted, failed = attempted + n, failed + bad
            if done is None:
                raise BenchError("a pass raised; see the traceback above")
            side.append(done)
    metrics = tracers[0].summary()
    metrics["traced_pass_s"] = traced[0].wall
    metrics["trace_overhead"] = (sum(p.wall for p in traced) / sum(p.wall for p in untraced)
                                 - 1.0)
    detail = {"traced_pass_s": [p.wall for p in traced],
              "untraced_pass_s": [first.wall] + [p.wall for p in untraced],
              "shares": role_shares(metrics)}
    return metrics, detail, attempted, failed


def role_shares(layer: dict[str, float]) -> dict[str, float]:
    """Busy time as a share of the traced pass, for the layers each workload
    is built around and every layer above 1%.  Fixture loading
    (rnn.load_checkpoint) is set-up: its share is relative, not a part."""
    total = layer["traced_pass_s"]
    busy = {name[:-len(".busy_s")]: v / total for name, v in layer.items()
            if name.endswith(".busy_s")}
    return {"bptt_plus_sampling": busy["rnn.loss_and_grads"] + busy["languages.sample_balanced"],
            "kmeans_extract": busy["kmeans.kmeans_extract"],
            "merge_all": busy["extraction.merge_all"],
            **{name: share for name, share in busy.items() if share >= 0.01}}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: dict) -> tuple[dict, dict]:
    """(result, detail): result is the benchmark's last output line."""
    units = metric_units(trace)
    program = set_up(workload, expected)
    machine = machine_record()
    if machine["blas_threads"] not in (None, 1):
        raise BenchError(f"BLAS runs {machine['blas_threads']} threads, not 1")
    if trace:
        metrics, detail, attempted, failed = traced_run(workload, seed, expected, program)
    else:
        metrics, detail, attempted, failed = measured_run(workload, seed, seconds,
                                                          expected, program)
    if metrics.keys() != units.keys():
        raise BenchError(f"metrics {sorted(metrics.keys() ^ units.keys())} do not match "
                         "BENCHMARK.json")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    detail = {"workload": workload, "seed": seed, "trace": int(trace),
              "machine": machine, **detail}
    return result, detail


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH}: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def pin() -> None:
    """Rewrite expected.json from the fixtures on disk and one pass of each
    workload at the default seed."""
    pins = {"fixtures": {fixture_path(lang).name:
                         hashlib.sha256(fixture_path(lang).read_bytes()).hexdigest()
                         for lang in LANGUAGES}}
    for workload in WORKLOADS:
        done = run_pass(workload, set_up(workload, pins), DEFAULT_SEED)
        if done is None:
            raise BenchError("the program raised; nothing pinned")
        if workload == "cold_fill":
            loss, dev_accuracy, round_trips = next(iter(done.outcomes.values()))
            if not round_trips:
                raise BenchError("checkpoints do not round-trip; nothing pinned")
            pins[workload] = {"train_loss": loss, "dev_accuracy": dev_accuracy}
        else:
            pins[workload] = done.outcomes
    EXPECTED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite expected.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.pin:
            pin()
            return 0
        expected = load_expected()
        if args.setup_probe:
            print(setup_probe(args.workload, expected))
            return 0
        result, detail = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), expected)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
