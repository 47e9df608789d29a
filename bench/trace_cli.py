"""Run one ribbonops CLI query under cProfile and report its per-layer numbers.

Usage: BENCH_LAUNCHED=T python3 bench/trace_cli.py ARGS...

ARGS are those of the `ribbonops` command and T is the parent's
CLOCK_MONOTONIC reading just before it started this process.  The query's
output goes to stdout unchanged and its exit code is kept; the per-layer
numbers are the last line of stderr, after the prefix "BENCH-LAYERS ".
"""

import os
import sys
import time

launched = float(os.environ["BENCH_LAUNCHED"])

from ribbonops.cli import main  # noqa: E402  (import time is part of start-up)

entered = time.clock_gettime(time.CLOCK_MONOTONIC)

import cProfile  # noqa: E402
import json  # noqa: E402

import layers  # noqa: E402

before = layers.cache_snapshot()
profile = cProfile.Profile()
rc = profile.runcall(main, sys.argv[1:])
numbers = layers.collect(profile, before, layers.cache_snapshot())
numbers["cli.startup_ms"] = (entered - launched) * 1000
sys.stdout.flush()
print("BENCH-LAYERS " + json.dumps(numbers), file=sys.stderr)
sys.exit(rc)
