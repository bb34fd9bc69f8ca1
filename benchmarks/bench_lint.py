#!/usr/bin/env python
"""Benchmark guard: full-repo lint wall time.

The linter runs on every CI push, so it must stay cheap enough that
nobody is tempted to skip it.  This script times ``lint_paths`` over
``src`` — one sequential pass that parses every file, runs the
file-scope rules and the whole-program dataflow pass — best of a few
rounds.  Every run is cold: there is no result cache.  Target: < 2 s.

The number lands in ``BENCH_lint.json`` at the repo root, with the file
count and ``cpu_count`` of the measuring host.  If a committed
``BENCH_lint.json`` exists, its cold time also acts as a regression
baseline: more than 2x slower fails the run the same way a rule
violation would.

Run via ``make bench-lint`` or ``python benchmarks/bench_lint.py``.
"""

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
OUT = REPO_ROOT / "BENCH_lint.json"

COLD_TARGET_S = 2.0
REGRESSION_FACTOR = 2.0
ROUNDS = 3

sys.path.insert(0, str(SRC))


def main() -> int:
    from repro.analysis import all_rules, lint_paths

    # Warm-up: import and register the ruleset outside the timed runs.
    rules = all_rules()

    previous = None
    if OUT.exists():
        try:
            previous = json.loads(OUT.read_text())
        except ValueError:
            previous = None

    timings = []
    result = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = lint_paths([SRC])
        timings.append(time.perf_counter() - started)
    cold = min(timings)

    document = {
        "description": "Full-repo static analysis (python -m repro.cli "
                       "lint src): stdlib-ast engine plus whole-program "
                       "dataflow, one sequential pass, no result cache.",
        "workload": {
            "files": result.files_scanned,
            "rules": len(rules),
            "rounds": ROUNDS,
            "timing": "best of rounds, seconds",
            "cpu_count": os.cpu_count(),
        },
        "results": {
            "cold_wall_s": cold,
            "cold_target_s": COLD_TARGET_S,
            "findings": len(result.findings),
            "suppressed": result.suppressed,
        },
    }
    OUT.write_text(json.dumps(document, indent=2) + "\n")
    print(f"lint: {result.files_scanned} files, {len(rules)} rules | "
          f"cold {cold:.3f} s (target {COLD_TARGET_S:.1f} s) "
          f"-> {OUT.name}")

    failed = False
    if cold > COLD_TARGET_S:
        print(f"FAIL: cold lint wall time {cold:.3f} s exceeds the "
              f"{COLD_TARGET_S:.1f} s target", file=sys.stderr)
        failed = True
    if previous is not None:
        prior_cold = previous.get("results", {}).get("cold_wall_s")
        if (isinstance(prior_cold, (int, float))
                and cold > prior_cold * REGRESSION_FACTOR):
            print(f"FAIL: cold lint {cold:.3f} s regressed more than "
                  f"{REGRESSION_FACTOR:.0f}x over the committed "
                  f"{prior_cold:.3f} s", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
