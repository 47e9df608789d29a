"""One round of the route-scan or verify-sweep workload, in a fresh process.

Usage: python3 bench/worker.py WORKLOAD --seed N --launched T [--setup-only] [--trace]

T is the CLOCK_MONOTONIC reading taken by the parent just before it started
this process, so setup_s covers interpreter start, `import ribbonops` and
building the inputs.  The timed phase follows; the correctness checks run
after it.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

import reference

ROUTE_MAX_SIZE = 15           # route-scan: every skew shape with |outer| <= 15
ROUTE_SAMPLE = 200            # shapes whose standard-tableaux identity is checked
VERIFY_MAX_SIZE = 6           # verify-sweep: checkers over partitions of size <= 6
VERIFY_DIMENSIONS = ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1))
CHECKER_ORDER = ("relations", "hcommute", "cauchy", "heisenberg", "haction")
CASES_PER_SHAPE = {"hcommute": 6, "cauchy": 25, "heisenberg": 36}


# ---------------------------------------------------------------- route-scan

def route_inputs(seed):
    """The shapes [(outer, [(inner, n), ...])] by growing |outer|, and the seed.

    The scan is exhaustive and its order fixed, because the order decides
    which request pays for filling a shared memo table; the seed only picks
    the shapes whose standard-tableaux identity is checked.
    """
    out = []
    for size in range(ROUTE_MAX_SIZE + 1):
        for la in reference.partitions(size):
            work = [(mu, n) for mu in reference.subpartitions(la) for n in (2, 3)
                    if (size - sum(mu)) % n == 0]
            out.append((la, work))
    return {"shapes": out, "seed": seed}


def route_round(inputs):
    """Both routes for every request; the checks of each shape run after its timing.

    Only counters and a seeded reservoir sample of nonzero tables are kept,
    so the round holds no tables the program itself would not keep.
    """
    from ribbonops.qlr import qlr_table_via_operators, qlr_via_expansion

    rng = random.Random(inputs["seed"])
    requests, sample = [], []
    part1 = part2 = 0.0
    failed = tables = mismatched = nonzero = 0
    negative = []
    for la, work in inputs["shapes"]:
        t0 = time.perf_counter()
        try:
            ops = [qlr_table_via_operators(la, mu, n) for mu, n in work]
            t1 = time.perf_counter()
            exps = [qlr_via_expansion(la, mu, n) for mu, n in work]
            t2 = time.perf_counter()
        except Exception as e:  # a failing shape batch is counted, not fatal
            failed += len(work)
            print(f"route-scan {la}: {e!r}", file=sys.stderr)
            continue
        requests.append(t2 - t0)
        part1 += t1 - t0
        part2 += t2 - t1
        for (mu, n), a, b in zip(work, ops, exps):
            tables += 1
            mismatched += a.entries != b.entries
            if any(c < 0 for poly in b.entries.values() for c in poly.coeffs.values()):
                negative.append(f"{la}/{mu} n={n}")
            if not any(b.entries.values()):
                continue
            nonzero += 1
            entry = (la, mu, n, {nu: dict(poly.coeffs) for nu, poly in b.entries.items()})
            if len(sample) < ROUTE_SAMPLE:
                sample.append(entry)
            elif (slot := rng.randrange(nonzero)) < ROUTE_SAMPLE:
                sample[slot] = entry
    ops_total = sum(len(work) for _, work in inputs["shapes"])
    return ({"requests": requests, "part1_s": part1, "part2_s": part2,
             "ops": ops_total, "failed": failed},
            (tables, mismatched, negative, sample))


def route_checks(inputs, state, seed):
    tables, mismatched, negative, sample = state
    bad = [f"coefficient outside N[q] in {where}" for where in negative]
    if mismatched:
        bad.append(f"{mismatched} shapes where the two q-LR routes differ")
    expected = sum(len(work) for _, work in inputs["shapes"])
    if tables != expected:
        bad.append(f"{tables} tables for {expected} enumerated shapes")
    if len(sample) < ROUTE_SAMPLE:
        bad.append(f"only {len(sample)} nonzero tables to sample")
    for la, mu, n, entries in sample:
        total = {}
        for nu, coeffs in entries.items():
            total = reference.poly_add_scaled(total, coeffs, reference.standard_count(nu))
        if total != reference.standard_spin_poly(la, mu, n):
            bad.append(f"sum f^nu c^nu != standard ribbon tableaux for {la}/{mu} n={n}")
    return bad


# -------------------------------------------------------------- verify-sweep

def verify_inputs(seed):
    """One request per (n, checker, partition of size <= 6), then the dimensions."""
    shapes = [la for size in range(VERIFY_MAX_SIZE + 1) for la in reference.partitions(size)]
    requests = [("identity", name, n, la) for n in (2, 3) for name in CHECKER_ORDER
                for la in shapes]
    requests += [("dimension", n, k) for n, k in VERIFY_DIMENSIONS]
    return {"requests": requests, "seed": seed}


def verify_round(inputs):
    from ribbonops.verify import algebra_dimension, run_identity

    requests, reports = [], []
    part1 = part2 = 0.0
    failed = 0
    for req in inputs["requests"]:
        t0 = time.perf_counter()
        try:
            if req[0] == "identity":
                rep = run_identity(req[1], req[2], VERIFY_MAX_SIZE, [req[3]])
            else:
                rep = algebra_dimension(req[1], req[2], seed=inputs["seed"])
        except Exception as e:  # a failing request is counted, not fatal
            failed += 1
            print(f"verify-sweep {req}: {e!r}", file=sys.stderr)
            continue
        dt = time.perf_counter() - t0
        requests.append(dt)
        if req[0] == "identity":
            part1 += dt
        else:
            part2 += dt
        reports.append((req, rep))
    cases = sum(rep.cases for req, rep in reports if req[0] == "identity")
    return {"requests": requests, "part1_s": part1, "part2_s": part2,
            "ops": len(inputs["requests"]), "failed": failed, "cases": cases}, reports


def verify_checks(inputs, reports, seed):
    from ribbonops.operators import heisenberg_scalar
    from ribbonops.symfunc import h_eval_at_q2

    bad = []
    n_shapes = sum(reference.partition_count(s) for s in range(VERIFY_MAX_SIZE + 1))
    sweeps = {}
    for req, rep in reports:
        if req[0] == "identity":
            cases, ok = sweeps.get(req[1:3], (0, True))
            sweeps[req[1:3]] = (cases + rep.cases, ok and rep.ok)
        else:
            _, n, k = req
            if rep.rank != reference.catalan(k + 1) ** n or not rep.stable:
                bad.append(f"dimension n={n} k={k}: rank {rep.rank}, stable={rep.stable}, "
                           f"expected C_{k + 1}^{n} = {reference.catalan(k + 1) ** n}")
    for name in CHECKER_ORDER:
        for n in (2, 3):
            cases, ok = sweeps.get((name, n), (0, False))
            if not ok or cases <= 0:
                bad.append(f"{name} n={n}: ok={ok} with {cases} cases")
            if name in CASES_PER_SHAPE and cases != n_shapes * CASES_PER_SHAPE[name]:
                bad.append(f"{name} n={n}: {cases} cases, expected "
                           f"{n_shapes} x {CASES_PER_SHAPE[name]}")
    for n in (2, 3):
        for k in range(1, 4):
            want = {2 * k * j: k for j in range(n)}
            if heisenberg_scalar(k, n).coeffs != want:
                bad.append(f"heisenberg_scalar({k}, {n}) != {want}")
        for i in range(5):
            if h_eval_at_q2(i, n).coeffs != reference.h_at_q2(i, n):
                bad.append(f"h_eval_at_q2({i}, {n}) != multiset count")
    return bad


WORKLOADS = {
    "route-scan": (route_inputs, route_round, route_checks),
    "verify-sweep": (verify_inputs, verify_round, verify_checks),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import ribbonops  # noqa: F401  (part of the measured set-up)

    make_inputs, run_round, checks = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = {"setup_s": start - args.launched}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.trace:
        import cProfile

        import layers

        before = layers.cache_snapshot()
        profile = cProfile.Profile()
        profile.enable()
    t0 = time.perf_counter()
    result, state = run_round(inputs)
    round_s = time.perf_counter() - t0
    if args.trace:
        profile.disable()
        out["layers"] = layers.collect(profile, before, layers.cache_snapshot())
        out["layers"]["verify.cases"] = result.get("cases", 0)
    out.update(result, round_s=round_s,
               peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    out["check_failures"] = checks(inputs, state, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
