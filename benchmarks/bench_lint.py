#!/usr/bin/env python
"""Benchmark guard: full-repo lint wall time.

The linter runs on every CI push, so it must stay cheap enough that
nobody is tempted to skip it.  This script times ``lint_paths`` over
``src`` — one sequential pass that parses every file, runs the
file-scope rules and the whole-program dataflow pass — best of a few
rounds.  Every run is cold: there is no result cache.

The number lands in ``BENCH_lint.json`` at the repo root.  The guards:
a cold wall time under ``COLD_TARGET_S``, and no more than 2x slower
than the committed ``BENCH_lint.json``.

Run via ``make bench-lint`` or ``python benchmarks/bench_lint.py``.
"""

import harness

OUT = harness.REPO_ROOT / "BENCH_lint.json"

COLD_TARGET_S = 2.0
ROUNDS = 3

GUARDS = (harness.ceiling("cold_wall_s", COLD_TARGET_S),
          harness.regression("cold_wall_s", better="lower"))


def main() -> int:
    from repro.analysis import all_rules, lint_paths

    # Warm-up: import and register the ruleset outside the timed runs.
    rules = all_rules()
    src = harness.REPO_ROOT / "src"
    best, outputs = harness.best_of({"cold": lambda _: lint_paths([src])},
                                    ROUNDS)
    result = outputs["cold"][-1]
    cold = best["cold"]
    print(f"lint: {result.files_scanned} files, {len(rules)} rules | "
          f"cold {cold:.3f} s")
    return harness.record(
        OUT,
        "Full-repo static analysis (python -m repro.cli lint src): "
        "stdlib-ast engine plus whole-program dataflow, one sequential "
        "pass, no result cache.",
        {"files": result.files_scanned, "rules": len(rules),
         "rounds": ROUNDS, "timing": "best of rounds, seconds"},
        {"cold_wall_s": cold, "findings": len(result.findings),
         "suppressed": result.suppressed},
        GUARDS)


if __name__ == "__main__":
    harness.run(main)
