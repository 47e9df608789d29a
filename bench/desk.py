"""The desk-queries workload: one ribbonops CLI query at a time, each in a
fresh process, so every query starts with cold caches (closed loop, one
client).

A round is a fixed list of 15 queries whose shapes the seed chooses:

- five degree-9 queries at n = 2, where the Jacobi-Trudi expansion of
  (1^9) dominates: the q-LR table and the (1^9) coefficient of a straight
  shape A and a skew shape B, and the (1^9) yamanouchi query on A;
- ten queries dominated by start-up: the q-LR table of one shape for each
  of (n, degree) in (2, 4..8) and (3, 4..6), the monomial ribbon function of
  A, and a yamanouchi query with a hook or (s,2) shape at (2, 6).

Skew shapes have an inner shape of size 2, so the operator route does the
same amount of work whatever the seed.  Every shape can be tiled by
n-ribbons; that is tested with the reference before it is used.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from typing import NamedTuple

import reference

LIGHT_CLASSES = ((2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6))
HEAVY_CLASS = (2, 9)
YAMANOUCHI_CLASS = (2, 6)
INNER_SIZE = 2
SETUP_ARGS = ("quotient", "1", "--n", "1")   # the trivial call timed as set-up
CLI_ENTRY = "import sys; from ribbonops.cli import main; sys.exit(main())"


def _fmt(la):
    return ",".join(map(str, la)) if la else "-"


def _shape(rng, n, m, skew):
    """A seeded outer/inner of n*m cells that n-ribbons can tile."""
    inner = rng.choice(reference.partitions(INNER_SIZE)) if skew else ()
    outers = [la for la in reference.partitions(n * m + sum(inner)) if reference.contains(la, inner)]
    while True:
        outer = rng.choice(outers)
        if reference.standard_spin_poly(outer, inner, n):
            return outer, inner


def _positive_shapes(m):
    """Hooks (a, 1^b) and two-row shapes (s, 2) of size m."""
    hooks = [(a,) + (1,) * (m - a) for a in range(1, m + 1)]
    return hooks + [(m - 2, 2)] if m >= 4 else hooks


class Query(NamedTuple):
    verb: str
    n: int
    outer: tuple
    inner: tuple
    nu: tuple | None = None

    def args(self):
        out = [self.verb, "--n", str(self.n), "--outer", _fmt(self.outer),
               "--inner", _fmt(self.inner)]
        if self.verb == "ribbonfn":
            out += ["--basis", "monomial"]
        if self.nu is not None:
            out += ["--nu", _fmt(self.nu)]
        return out + ["--format", "json"]

    @property
    def key(self):
        return (self.n, self.outer, self.inner)


def build_queries(seed):
    rng = random.Random(seed)
    n, m = HEAVY_CLASS
    a = _shape(rng, n, m, skew=False)
    b = _shape(rng, n, m, skew=True)
    ones = (1,) * m
    queries = [
        Query("qlr", n, *a),
        Query("qlr", n, *a, nu=ones),
        Query("yamanouchi", n, *a, nu=ones),
        Query("qlr", n, *b),
        Query("qlr", n, *b, nu=ones),
        Query("ribbonfn", n, *a),
    ]
    for i, (n, m) in enumerate(LIGHT_CLASSES):
        shape = _shape(rng, n, m, skew=bool(i % 2))
        queries.append(Query("qlr", n, *shape))
        if (n, m) == YAMANOUCHI_CLASS:
            queries.append(Query("yamanouchi", n, *shape, nu=rng.choice(_positive_shapes(m))))
    return queries


def launch(args, env, root, traced=False):
    """Run one CLI call; (seconds from launch to exit, completed process)."""
    if traced:
        cmd = [sys.executable, os.path.join(root, "bench", "trace_cli.py"), *args]
        env = dict(env, BENCH_LAUNCHED=repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    else:
        cmd = [sys.executable, "-c", CLI_ENTRY, *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=170)
    return time.perf_counter() - t0, proc


def setup_sample(env, root):
    """Seconds from launch to exit of the trivial CLI call timed as set-up."""
    return launch(SETUP_ARGS, env, root)[0]


def run_round(queries, env, root, traced):
    """One pass over the query list; per-query latencies, outputs and layers."""
    latencies, outputs, layer_rows = [], [], []
    part1 = part2 = 0.0
    failed = 0
    for q in queries:
        dt, proc = launch(q.args(), env, root, traced)
        latencies.append(dt)
        if q.verb == "qlr":
            part1 += dt
        else:
            part2 += dt
        if proc.returncode != 0:
            failed += 1
            print(f"desk-queries {' '.join(q.args())}: exit {proc.returncode}: "
                  f"{proc.stderr.strip()[-300:]}", file=sys.stderr)
        outputs.append((proc.returncode, proc.stdout))
        if traced:
            tagged = [ln for ln in proc.stderr.splitlines() if ln.startswith("BENCH-LAYERS ")]
            if tagged:
                layer_rows.append(json.loads(tagged[-1][len("BENCH-LAYERS "):]))
    out = {"requests": latencies, "part1_s": part1, "part2_s": part2,
           "round_s": sum(latencies), "ops": len(queries), "failed": failed,
           "outputs": outputs}
    if traced:
        out["layers"] = _merge_layers(layer_rows)
    return out


def _merge_layers(rows):
    """Sum a round's per-query numbers; start-up is a median, cache size a maximum."""
    merged = {}
    for row in rows:
        for k, v in row.items():
            merged[k] = merged.get(k, 0) + v
    if rows:
        startups = sorted(r["cli.startup_ms"] for r in rows)
        merged["cli.startup_ms"] = startups[(len(startups) - 1) // 2]
        merged["cache.entries"] = max(r["cache.entries"] for r in rows)
    return merged


def _nonneg(pairs):
    return all(c >= 0 for _, c in pairs)


def check_round(queries, outputs):
    """Check one round's answers against the reference; a list of failures."""
    bad = []
    tables = {}
    for q, (rc, text) in zip(queries, outputs):
        if rc != 0:
            bad.append(f"{' '.join(q.args())}: exit {rc}")
            continue
        try:
            data = json.loads(text)
        except ValueError:
            bad.append(f"{' '.join(q.args())}: output is not JSON")
            continue
        where = f"{q.verb} n={q.n} {_fmt(q.outer)}/{_fmt(q.inner)}"
        std = reference.standard_spin_poly(q.outer, q.inner, q.n)
        m = (sum(q.outer) - sum(q.inner)) // q.n
        if q.verb == "qlr" and q.nu is None:
            entries = {tuple(e["nu"]): e["coeffs"] for e in data["entries"]}
            tables[q.key] = entries
            if data.get("routes_agree") is not True:
                bad.append(f"{where}: routes_agree is not true")
            if set(entries) != set(reference.partitions(m)):
                bad.append(f"{where}: the table does not list every nu of degree {m}")
            if not all(_nonneg(c) for c in entries.values()):
                bad.append(f"{where}: a coefficient is outside N[q]")
            total = {}
            for nu, pairs in entries.items():
                total = reference.poly_add_scaled(total, reference.poly_from_pairs(pairs),
                                                  reference.standard_count(nu))
            if total != std:
                bad.append(f"{where}: sum f^nu c^nu != standard ribbon tableaux {std}")
        elif q.verb == "qlr":
            if data.get("routes_agree") is not True or not _nonneg(data["coeffs"]):
                bad.append(f"{where} nu={_fmt(q.nu)}: routes disagree or leave N[q]")
            if q.key in tables and (reference.poly_from_pairs(data["coeffs"])
                                    != reference.poly_from_pairs(tables[q.key][q.nu])):
                bad.append(f"{where} nu={_fmt(q.nu)}: differs from the table")
        elif q.verb == "ribbonfn":
            got = {tuple(e["mu"]): e["coeffs"] for e in data["entries"]}
            if reference.poly_from_pairs(got.get((1,) * m, [])) != std:
                bad.append(f"{where}: m[1^{m}] coefficient != standard ribbon tableaux")
        elif q.verb == "yamanouchi":
            if data.get("matches_operator_route") is not True:
                bad.append(f"{where} nu={_fmt(q.nu)}: matches_operator_route is not true")
            if q.key not in tables or (reference.poly_from_pairs(data["coeffs"])
                                       != reference.poly_from_pairs(tables[q.key][q.nu])):
                bad.append(f"{where} nu={_fmt(q.nu)}: differs from the table's c^nu")
    return bad
