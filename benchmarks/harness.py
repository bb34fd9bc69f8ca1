"""Shared machinery of the per-layer BENCH guard scripts.

Each ``benchmarks/bench_*.py`` script measures one hot layer and keeps
only its workload code and a list of :class:`Guard` entries.  This
module owns the rest:

* :func:`best_of` — the one timing loop: best-of-``rounds`` seconds per
  call of named variants, rounds interleaved so host drift hits every
  variant alike, with an optional untimed setup around each timed
  block;
* :func:`host` — the measuring host (``cpu_count``, ``nproc``, python
  and numpy versions), recorded because the regression guard compares
  runs across hosts;
* :func:`floor`, :func:`ceiling` and :func:`regression` — guards as
  data.  A regression guard fails when a value is more than
  ``REGRESSION_FACTOR`` worse than the committed file's value at the
  same ``results`` key, in the direction the guard names as better;
* :func:`record` — reads the committed file, evaluates every guard,
  prints every failure, and writes one document layout for every
  script: ``{description, workload, host, results, guards}``.

Run a script via its ``make bench-*`` target or
``PYTHONPATH=src python benchmarks/bench_<name>.py``.
"""

import contextlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, ContextManager, Dict, List, Mapping,
                    Optional, Sequence, Tuple)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A guarded value more than this many times worse than the committed
#: one fails its regression guard.
REGRESSION_FACTOR = 2.0


def best_of(variants: Mapping[str, Callable[[Any], Any]], rounds: int, *,
            setup: Optional[Callable[[str], ContextManager]] = None,
            calls: int = 1) -> Tuple[Dict[str, float], Dict[str, List]]:
    """Best seconds per call of each named variant.

    Every round runs each variant once, in order.  When ``setup`` is
    given, ``setup(name)`` is entered untimed around the variant's
    timed block and the value it yields is the variant's argument
    (``None`` without a setup).  The timed block is ``calls`` back-to-
    back calls of the variant.  Returns the best per-call seconds by
    name, and by name the value of the last timed call of each round.
    """
    best = {name: math.inf for name in variants}
    outputs: Dict[str, List] = {name: [] for name in variants}
    for _ in range(rounds):
        for name, call in variants.items():
            with (setup(name) if setup else contextlib.nullcontext()) as arg:
                started = time.perf_counter()
                for _ in range(calls):
                    output = call(arg)
                elapsed = time.perf_counter() - started
            best[name] = min(best[name], elapsed / calls)
            outputs[name].append(output)
    return best, outputs


def host() -> Dict[str, Any]:
    """The measuring host: core counts and interpreter versions."""
    import numpy

    return {"cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


@dataclass(frozen=True)
class Guard:
    """One bound on the value at dotted ``key`` of a ``results`` dict.

    ``kind`` is ``"floor"`` (value >= bound), ``"ceiling"`` (value <=
    bound) or ``"regression"``, whose bound derives from the committed
    value: ``previous / REGRESSION_FACTOR`` as a floor when ``better``
    is ``"higher"``, ``previous * REGRESSION_FACTOR`` as a ceiling when
    it is ``"lower"``.
    """

    key: str
    kind: str
    better: str
    bound: Optional[float] = None


def floor(key: str, bound: float) -> Guard:
    return Guard(key, "floor", "higher", bound)


def ceiling(key: str, bound: float) -> Guard:
    return Guard(key, "ceiling", "lower", bound)


def regression(key: str, better: str = "higher") -> Guard:
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower': {better!r}")
    return Guard(key, "regression", better)


def lookup(results: Any, key: str) -> Any:
    """The value at dotted ``key`` (list positions as integers), or
    ``None`` when any step of the path is missing."""
    node = results
    for part in key.split("."):
        if isinstance(node, dict):
            node = node.get(part)
        elif isinstance(node, list) and part.isdigit() \
                and int(part) < len(node):
            node = node[int(part)]
        else:
            return None
    return node


def previous_results(path: Path) -> Dict[str, Any]:
    """``results`` of the committed document at ``path``; empty when the
    file is missing or not a JSON document with a ``results`` object."""
    try:
        results = json.loads(path.read_text()).get("results")
    except (OSError, ValueError, AttributeError):
        return {}
    return results if isinstance(results, dict) else {}


def _number(value: Any) -> Optional[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def evaluate(guard: Guard, results: Mapping,
             previous: Mapping) -> Dict[str, Any]:
    """One guard's entry: key, kind, bound, value, previous, passed."""
    value = _number(lookup(results, guard.key))
    prior = _number(lookup(previous, guard.key))
    lower_is_better, bound = guard.better == "lower", guard.bound
    if guard.kind == "regression" and prior is not None:
        bound = (prior * REGRESSION_FACTOR if lower_is_better
                 else prior / REGRESSION_FACTOR)
    if value is None or bound is None:
        # A missing value fails; a regression guard without a committed
        # value has no bound and passes.
        passed = value is not None
    else:
        passed = value <= bound if lower_is_better else value >= bound
    return {"key": guard.key, "kind": guard.kind, "bound": bound,
            "value": value, "previous": prior, "passed": passed}


def _failure(entry: Mapping) -> str:
    if entry["value"] is None:
        return f"FAIL: {entry['key']} missing from the results"
    side = "above" if entry["value"] > entry["bound"] else "below"
    limit = (f"{REGRESSION_FACTOR:g}x off the committed "
             f"{entry['previous']:.6g}" if entry["kind"] == "regression"
             else f"the {entry['kind']}")
    return (f"FAIL: {entry['key']} {entry['value']:.6g} {side} "
            f"{entry['bound']:.6g} ({limit})")


def record(path: Path, description: str, workload: Mapping,
           results: Mapping, guards: Sequence[Guard]) -> int:
    """Evaluate ``guards`` against ``results`` and the committed file at
    ``path``, overwrite it with the run's document, print every
    failure, and return the exit status (1 if any guard failed)."""
    previous = previous_results(path)
    entries = [evaluate(guard, results, previous) for guard in guards]
    document = {"description": description, "workload": dict(workload),
                "host": host(), "results": dict(results),
                "guards": entries}
    path.write_text(json.dumps(document, indent=2) + "\n")
    failures = [entry for entry in entries if not entry["passed"]]
    for entry in failures:
        print(_failure(entry), file=sys.stderr)
    print(f"{len(entries) - len(failures)}/{len(entries)} guards passed "
          f"-> {path.name}")
    return 1 if failures else 0


def run(measure: Callable[[], int]) -> None:
    """Run one BENCH script from a source checkout and exit with its
    status: the package under ``src`` and the oracles under ``tests``
    are put on ``sys.path`` first."""
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    sys.exit(measure())
