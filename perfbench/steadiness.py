"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median, next to
the metric's bound from BENCHMARK.json.

Usage: python3 perfbench/steadiness.py [--workloads NAME ...] [--seeds N ...]
                                       [--out FILE]

Runs are made one at a time from the repository root with the command and
run_seconds of BENCHMARK.json; --out writes every value, each metric's
median, quartiles and spread, and each run's detail record, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {}
    summary: dict[str, dict[str, dict[str, float]]] = {}
    details: list[dict] = []
    ok = True
    for workload in args.workloads:
        values[workload] = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(out.stdout.splitlines()[-1]) if out.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed\n{out.stderr}", file=sys.stderr)
                ok = False
                continue
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            details.append(json.loads(out.stdout.splitlines()[-2])["detail"])
            print(workload, seed, {n: round(v[-1], 4) for n, v in values[workload].items()},
                  flush=True)
        for name, vals in values[workload].items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary.setdefault(workload, {})[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
            verdict = "ok" if spread <= bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "TOO NOISY")
            print(f"  {workload:11s} {name:12s} median {median:10.4f}  spread {spread:.4f}"
                  f"  bound {bounds[name]}  {verdict}")
    if args.out:
        record = {"values": values, "summary": summary, "details": details}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
