"""Steadiness check: run each workload on several seeds and report the spread.

Usage: python3 bench/steady.py [--runs 10] [--workloads W ...]

Each run is `bench/run.py --trace 0` with its own seed, 1 to --runs, and
the run length of BENCHMARK.json.  For every
end-to-end metric the command prints the median, the quartiles (from
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median next to
the metric's bound in BENCHMARK.json, and it checks that the share of failed
operations is the same in every run.  It exits 1 when a run is not correct,
the failed shares differ, or a spread is wider than its bound.  The figures are also written to bench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()

    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    steady = True
    for workload in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, correct={correct}, "
              f"failed shares {sorted(shares)}")
        print(f"  {'metric':14s} {'median':>10s} {'Q1':>10s} {'Q3':>10s} "
              f"{'spread':>7s} {'bound':>6s}")
        summary = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            ok = bound is None or spread <= bound
            steady &= ok
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "values": values}
            print(f"  {name:14s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} "
                  f"{bound if bound is not None else '-':>6} "
                  f"{'' if ok else 'WIDER THAN BOUND'}"
                  f"{'above bound/3' if ok and bound and spread > bound / 3 else ''}")
        steady &= correct and len(shares) == 1
        with open(os.path.join(BENCH, "out", f"steady-{workload}.json"), "w") as f:
            json.dump({"workload": workload, "seconds": spec["run_seconds"], "runs": results,
                       "summary": summary}, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
