"""The ribbonops benchmark.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

- desk-queries: the CLI, one query per fresh process, cold caches;
- route-scan: both q-LR routes over every skew shape with |outer| <= 15,
  n in {2, 3}, in one warm process per round;
- verify-sweep: the five identity checkers at n = 2, 3 on each partition
  of size <= 6, then the algebra dimension for seven (n, k).

A run repeats whole rounds of its workload until S seconds have passed,
always at least one.  Every route-scan and verify-sweep round is a fresh
process, so each round pays the same cold start.  The correctness checks
run after the timed rounds.  The last line of stdout is one JSON object:
with --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics of the traced rounds, which alternate with untraced
ones so that the tracing overhead can be reported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

WORKLOADS = ("desk-queries", "route-scan", "verify-sweep")
# the highest of 75, 90, 95, 98, 99 and 99.5 that leaves at least ten samples
# beyond it in a 30 s run at the reference speed (see README.md)
TAIL_PERCENT = {"desk-queries": 75, "route-scan": 99.5, "verify-sweep": 98}
SETUP_PER_ROUND = 3
SETUP_MIN = 15


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def median(values):
    return percentile(values, 50)


def _env():
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _worker(workload, seed, env, *flags):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), workload, "--seed", str(seed),
           "--launched", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), *flags]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rounds(seconds, trace, one_round, one_setup):
    """Whole rounds until `seconds` have passed; traced runs alternate the two kinds.

    SETUP_PER_ROUND set-up launches precede each round, so the set-up
    samples are spread over the whole run; a run with few rounds tops them
    up to SETUP_MIN at its end.
    """
    rounds, setups = [], []
    deadline = time.perf_counter() + seconds
    while (not rounds or time.perf_counter() < deadline
           or (trace and len(rounds) < 2)):
        setups += [one_setup() for _ in range(SETUP_PER_ROUND)]
        rounds.append(one_round(trace and len(rounds) % 2 == 1))
    while len(setups) < SETUP_MIN:
        setups.append(one_setup())
    return setups, rounds


def run_desk(seed, seconds, trace, env):
    import desk

    queries = desk.build_queries(seed)
    setups, rounds = _rounds(seconds, trace,
                             lambda traced: desk.run_round(queries, env, ROOT, traced),
                             lambda: desk.setup_sample(env, ROOT))
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    failures = []
    for r in rounds:
        failures += desk.check_round(queries, r.pop("outputs"))
        r["peak_rss_mib"] = peak
    return setups, rounds, failures


def run_worker_rounds(workload, seed, seconds, trace, env):
    setups, rounds = _rounds(
        seconds, trace,
        lambda traced: _worker(workload, seed, env, *(["--trace"] if traced else [])),
        lambda: _worker(workload, seed, env, "--setup-only")["setup_s"])
    failures = [f for r in rounds for f in r.pop("check_failures")]
    return setups, rounds, failures


def end_to_end(workload, setups, rounds):
    latencies = [x for r in rounds for x in r["requests"]]
    return {
        "setup_s": median(setups),
        "p50_ms": percentile(latencies, 50) * 1000,
        "tail_ms": percentile(latencies, TAIL_PERCENT[workload]) * 1000,
        "part1_s": median([r["part1_s"] for r in rounds]),
        "part2_s": median([r["part2_s"] for r in rounds]),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in rounds),
    }


def per_layer(names, rounds):
    """Median over the traced rounds; a name no round reports reads 0."""
    traced = [r for r in rounds if "layers" in r]
    plain = [r for r in rounds if "layers" not in r]
    out = {name: median([r["layers"].get(name, 0) for r in traced]) for name in names}
    out["trace.overhead_s"] = (median([r["round_s"] for r in traced])
                               - median([r["round_s"] for r in plain]))
    return out


def main():
    ap = argparse.ArgumentParser(description="ribbonops benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ribbonops", "__init__.py")):
        print(f"error: no ribbonops sources under {os.path.join(ROOT, 'src')}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = _env()
    if args.workload == "desk-queries":
        setups, rounds, failures = run_desk(args.seed, args.seconds, args.trace, env)
    else:
        setups, rounds, failures = run_worker_rounds(
            args.workload, args.seed, args.seconds, args.trace, env)

    for line in failures[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    values = (per_layer(units, rounds) if args.trace
              else end_to_end(args.workload, setups, rounds))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed, {len(failures)} check failures")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
