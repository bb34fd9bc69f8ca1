#!/usr/bin/env python
"""Benchmark guard: flattened-forest predict and batched DTW scoring.

Measures the inference hot paths the attack pipeline spends its
prediction time in:

* **forest predict** — a 100-tree Random Forest classifying a large
  window batch, once through the legacy per-tree object descent (the
  oracle in ``tests/ml/oracles.py``) and once through the flattened
  node-table descent (all trees × all rows in one level-synchronous
  gather loop);
* **small-batch lane sweep** — per-call ``predict_apps`` of a
  hierarchical fingerprinter at 1-64 rows, as shipped and pinned to
  each lane of ``repro.ml.tables`` (scalar walk vs vector descent), on
  a shallow model (the ``serve`` benchmark's: LAB captures, 16 trees)
  and a deep one (label-noise windows, trees reach max_depth 14).  The
  sweep is the evidence for ``SCALAR_LANE_MAX``;
* **similarity matrix** — the correlation attack's all-pairs DTW
  scoring over a population of synthetic traces, once as the scalar
  per-cell reference and once through the chunked multi-pair
  wavefront behind ``similarity_matrix``;
* **pair-scoring lane sweep** — per-call ``decision_scores`` of a
  fitted correlation attack at 1-32 pairs, as shipped and pinned to
  each lane of its feature assembly (scalar ``similarity_score`` calls
  vs one ``similarity_score_batch``).  The sweep is the evidence for
  ``BATCH_MIN_COMPARISONS``.

Every comparison asserts identical outputs before timing counts.
Results land in ``BENCH_inference.json`` at the repo root, then two
guards run per workload:

* the batched path must be at least ``MIN_SPEEDUP``× faster than the
  scalar reference on the same inputs; for the lane sweep, the shipped
  lane must be at least ``MIN_LANE_SPEEDUP``× faster than the vector
  lane at ``LANE_FLOOR_ROWS`` rows on the shallow model;
* the measured speedup must not regress by more than 2× against the
  committed ``BENCH_inference.json`` (loaded before overwriting).

Run via ``make bench-infer``, ``python -m repro.cli bench infer``, or
``python benchmarks/bench_inference.py``.
"""

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
OUT = REPO_ROOT / "BENCH_inference.json"

MIN_FOREST_SPEEDUP = 5.0
MIN_MATRIX_SPEEDUP = 3.0
MIN_LANE_SPEEDUP = 3.0
REGRESSION_FACTOR = 2.0
ROUNDS = 3

N_TREES = 100
MAX_DEPTH = None  # the paper's Weka default: grow until pure
N_TRAIN = 8000
N_ROWS = 4000
N_FEATURES = 16
N_CLASSES = 6

N_TRACES = 40
TRACE_SPAN_S = 45.0
DTW_WINDOW = 3

#: Lane sweep: batch sizes, the floor's batch size, and per point the
#: calls per timed round and the rounds (interleaved across lanes).
LANE_ROWS = (1, 2, 3, 4, 8, 16, 32, 64)
LANE_FLOOR_ROWS = 3
LANE_CALLS = 20
LANE_ROUNDS = 5
#: Deep model: label-noise windows, so trees grow to the depth cap.
DEEP_ROWS = 3000
DEEP_MAX_DEPTH = 14

#: Pair-scoring lane sweep: pairs per ``decision_scores`` call, and per
#: point the calls per timed round (``LANE_ROUNDS`` rounds, interleaved
#: across lanes).  Every synthetic trace has both link directions, so a
#: pair is four directional comparisons.
PAIR_LANE_PAIRS = (1, 2, 3, 4, 8, 16, 32)
PAIR_LANE_CALLS = 10


def _fit_forest():
    import numpy as np

    from repro.ml import RandomForest

    rng = np.random.default_rng(11)
    X = rng.normal(size=(N_TRAIN, N_FEATURES))
    y = rng.integers(0, N_CLASSES, size=N_TRAIN)
    forest = RandomForest(n_trees=N_TREES, max_depth=MAX_DEPTH,
                          seed=5).fit(X, y, n_classes=N_CLASSES)
    X_test = rng.normal(size=(N_ROWS, N_FEATURES))
    return forest, X_test


def _bench_forest():
    import numpy as np

    from tests.ml.oracles import forest_predict_proba

    forest, X = _fit_forest()
    flat = forest.predict_proba(X)
    legacy = forest_predict_proba(forest, X)
    if not np.array_equal(flat, legacy):
        return None
    object_s = flat_s = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        forest_predict_proba(forest, X)
        object_s = min(object_s, time.perf_counter() - started)
        started = time.perf_counter()
        forest.predict_proba(X)
        flat_s = min(flat_s, time.perf_counter() - started)
    return object_s, flat_s


def _make_traces():
    import numpy as np

    from repro.sniffer.trace import Trace

    rng = np.random.default_rng(23)
    traces = []
    for index in range(N_TRACES):
        n = int(rng.integers(200, 600))
        times = np.sort(rng.uniform(0.0, TRACE_SPAN_S, size=n))
        rntis = np.full(n, index + 1, dtype=np.int64)
        directions = rng.integers(0, 2, size=n).astype(np.int64)
        tbs = rng.integers(100, 8000, size=n).astype(np.int64)
        traces.append(Trace.from_arrays(times, rntis, directions, tbs))
    return traces


def _bench_matrix():
    import numpy as np

    from repro.core.correlation import _matrix_cell, similarity_matrix

    traces = _make_traces()
    n = len(traces)

    def scalar_reference():
        matrix = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                value = _matrix_cell((i, j), traces=traces, bin_s=1.0,
                                     dtw_window=DTW_WINDOW)
                matrix[i, j] = matrix[j, i] = value
        return matrix

    batched = similarity_matrix(traces, dtw_window=DTW_WINDOW, workers=1)
    reference = scalar_reference()
    if not np.array_equal(batched, reference):
        return None
    scalar_s = batch_s = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        scalar_reference()
        scalar_s = min(scalar_s, time.perf_counter() - started)
        started = time.perf_counter()
        similarity_matrix(traces, dtw_window=DTW_WINDOW, workers=1)
        batch_s = min(batch_s, time.perf_counter() - started)
    return scalar_s, batch_s


def _shallow_model():
    """The ``serve`` benchmark's fingerprinter: LAB captures, 16 trees."""
    from repro.apps import app_names
    from repro.core.dataset import collect_traces, windows_from_traces
    from repro.core.fingerprint import HierarchicalFingerprinter
    from repro.operators.profiles import LAB

    train = collect_traces(list(app_names()), operator=LAB,
                           traces_per_app=2, duration_s=4.0, seed=23)
    windows = windows_from_traces(train)
    model = HierarchicalFingerprinter(n_trees=16, seed=24).fit(windows)
    return model, windows.X


def _deep_model(n_features):
    """A 16-tree fingerprinter on label-noise windows (depth-capped)."""
    from repro.core.fingerprint import HierarchicalFingerprinter
    from tests.ml.oracles import catalogue_windows

    windows = catalogue_windows(n=DEEP_ROWS, n_features=n_features,
                                shift=0.0, seed=31)
    model = HierarchicalFingerprinter(n_trees=16, max_depth=DEEP_MAX_DEPTH,
                                      min_samples_leaf=1, seed=24)
    return model.fit(windows), windows.X


def _best_per_call(call, pin, variants, calls):
    """Best per-call seconds of ``call()`` with each ``(name, bound)`` of
    ``variants`` pinned by ``pin``, interleaved over ``LANE_ROUNDS``
    rounds of ``calls`` calls; ``None`` if any two outputs differ."""
    import numpy as np

    best = {name: float("inf") for name, _ in variants}
    outputs = []
    for _ in range(LANE_ROUNDS):
        for name, bound in variants:
            with pin(bound):
                outputs.append(call())
                started = time.perf_counter()
                for _ in range(calls):
                    call()
                best[name] = min(best[name], (time.perf_counter()
                                              - started) / calls)
    if any(not np.array_equal(out, outputs[0]) for out in outputs):
        return None
    return best


def _lane_point(model, X, rows):
    """Best per-call ``predict_apps`` µs as shipped and on each lane."""
    import numpy as np

    from repro.ml.tables import SCALAR_LANE_MAX as shipped
    from tests.ml.oracles import SCALAR, VECTOR, pinned_lane

    probe = X[np.random.default_rng(rows).integers(0, len(X), rows)]
    best = _best_per_call(lambda: model.predict_apps(probe), pinned_lane,
                          (("shipped", shipped), ("scalar", SCALAR),
                           ("vector", VECTOR)), LANE_CALLS)
    if best is None:
        return None
    return {"rows": rows,
            "lane": "scalar" if rows <= shipped else "vector",
            **{f"{name}_us": round(value * 1e6, 1)
               for name, value in best.items()}}


def _lane_sweep():
    """Per-call ``predict_apps`` cost across batch sizes and lanes."""
    shallow, X = _shallow_model()
    deep, X_deep = _deep_model(X.shape[1])
    sweep = {}
    for name, model, rows_X in (("shallow", shallow, X),
                                ("deep", deep, X_deep)):
        forests = [model._category_model, *model._app_models.values()]
        points = [_lane_point(model, rows_X, rows) for rows in LANE_ROWS]
        if any(point is None for point in points):
            return None
        scalar_wins = [point["rows"] for point in points
                       if point["scalar_us"] <= point["vector_us"]]
        sweep[name] = {
            "trees": sum(forest.n_trees for forest in forests),
            "max_depth": max(tree.depth() for forest in forests
                             for tree in forest.trees_),
            "nodes": int(sum(forest.table().n_nodes.sum()
                             for forest in forests)),
            "largest_scalar_win_rows": max(scalar_wins, default=0),
            "points": points,
        }
    return sweep


def _pair_attack():
    """A correlation attack fitted on synthetic pairs, plus probe pairs."""
    from repro.core.correlation import CorrelationAttack

    traces = _make_traces()
    probes = [(traces[i], traces[(7 * i + 3) % N_TRACES])
              for i in range(N_TRACES)]
    attack = CorrelationAttack(dtw_window=DTW_WINDOW).fit(probes[:8],
                                                          probes[8:16])
    return attack, probes


def _pair_lane_point(attack, probes, count):
    """Best per-call ``decision_scores`` ms as shipped and on each lane."""
    from repro.core.correlation import BATCH_MIN_COMPARISONS as shipped
    from tests.ml.oracles import PAIR_BATCH, PAIR_SCALAR, pinned_pair_lane

    probe = probes[:count]
    best = _best_per_call(lambda: attack.decision_scores(probe),
                          pinned_pair_lane,
                          (("shipped", shipped), ("scalar", PAIR_SCALAR),
                           ("batch", PAIR_BATCH)), PAIR_LANE_CALLS)
    if best is None:
        return None
    comparisons = 4 * count
    return {"pairs": count, "comparisons": comparisons,
            "lane": "batch" if comparisons >= shipped else "scalar",
            **{f"{name}_ms": round(value * 1e3, 3)
               for name, value in best.items()}}


def _pair_lane_sweep():
    """Per-call ``decision_scores`` cost across pair counts and lanes."""
    from repro.core.correlation import BATCH_MIN_COMPARISONS

    attack, probes = _pair_attack()
    points = [_pair_lane_point(attack, probes, count)
              for count in PAIR_LANE_PAIRS]
    if any(point is None for point in points):
        return None
    scalar_wins = [point["pairs"] for point in points
                   if point["scalar_ms"] <= point["batch_ms"]]
    return {"batch_min_comparisons": BATCH_MIN_COMPARISONS,
            "largest_scalar_win_pairs": max(scalar_wins, default=0),
            "points": points}


def _previous_speedups():
    if not OUT.exists():
        return {}
    try:
        results = json.loads(OUT.read_text())["results"]
        return {name: results[name]["speedup"]
                for name in ("forest_predict", "similarity_matrix",
                             "small_batch_lane")
                if name in results}
    except (ValueError, KeyError, TypeError):
        return {}


def _guard(name, speedup, floor, previous) -> int:
    if speedup < floor:
        print(f"FAIL: {name} speedup {speedup:.1f}x below the "
              f"{floor:.0f}x floor", file=sys.stderr)
        return 1
    recorded = previous.get(name)
    if recorded is not None and speedup < recorded / REGRESSION_FACTOR:
        print(f"FAIL: {name} speedup {speedup:.1f}x regressed more than "
              f"{REGRESSION_FACTOR:.0f}x against the recorded "
              f"{recorded:.1f}x", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(REPO_ROOT))     # the tests.ml.oracles oracle
    previous = _previous_speedups()

    forest_times = _bench_forest()
    if forest_times is None:
        print("FAIL: flattened forest diverged from the object descent",
              file=sys.stderr)
        return 1
    object_s, flat_s = forest_times
    forest_speedup = object_s / flat_s

    matrix_times = _bench_matrix()
    if matrix_times is None:
        print("FAIL: batched similarity matrix diverged from the scalar "
              "reference", file=sys.stderr)
        return 1
    scalar_s, batch_s = matrix_times
    matrix_speedup = scalar_s / batch_s

    from repro.ml.tables import SCALAR_LANE_MAX

    sweep = _lane_sweep()
    if sweep is None:
        print("FAIL: the forest lanes disagreed on predict_apps",
              file=sys.stderr)
        return 1
    floor_point = next(point for point in sweep["shallow"]["points"]
                       if point["rows"] == LANE_FLOOR_ROWS)
    lane_speedup = floor_point["vector_us"] / floor_point["shipped_us"]

    pair_sweep = _pair_lane_sweep()
    if pair_sweep is None:
        print("FAIL: the pair-scoring lanes disagreed on decision_scores",
              file=sys.stderr)
        return 1

    document = {
        "description": "Inference-plane hot paths, best of "
                       f"{ROUNDS}: {N_TREES}-tree forest predict_proba "
                       f"over {N_ROWS} rows (object descent vs flattened "
                       "node tables) and the all-pairs DTW similarity "
                       f"matrix over {N_TRACES} traces (per-cell scalar "
                       "reference vs chunked multi-pair wavefront), and "
                       "per-call hierarchical predict_apps across batch "
                       "sizes as shipped and pinned to each forest lane "
                       f"(best of {LANE_ROUNDS} rounds of {LANE_CALLS} "
                       "calls), and per-call correlation decision_scores "
                       "across pair counts as shipped and pinned to each "
                       "pair-scoring lane (best of "
                       f"{LANE_ROUNDS} rounds of {PAIR_LANE_CALLS} calls).  "
                       "Outputs asserted identical before timing.",
        "workload": {
            "n_trees": N_TREES,
            "max_depth": MAX_DEPTH,
            "predict_rows": N_ROWS,
            "n_features": N_FEATURES,
            "n_classes": N_CLASSES,
            "n_traces": N_TRACES,
            "dtw_window": DTW_WINDOW,
            "rounds": ROUNDS,
            # Both timed paths run single-worker so speedups measure the
            # batched kernels, not process fan-out; cpu_count is recorded
            # because the regression guard compares runs across hosts.
            "cpu_count": os.cpu_count(),
        },
        "results": {
            "forest_predict": {
                "object_wall_s": object_s,
                "table_wall_s": flat_s,
                "speedup": forest_speedup,
                "min_speedup": MIN_FOREST_SPEEDUP,
            },
            "similarity_matrix": {
                "scalar_wall_s": scalar_s,
                "batched_wall_s": batch_s,
                "speedup": matrix_speedup,
                "min_speedup": MIN_MATRIX_SPEEDUP,
            },
            "small_batch_lane": {
                "scalar_lane_max": SCALAR_LANE_MAX,
                "floor_model": "shallow",
                "floor_rows": LANE_FLOOR_ROWS,
                "shipped_us": floor_point["shipped_us"],
                "vector_us": floor_point["vector_us"],
                "speedup": lane_speedup,
                "min_speedup": MIN_LANE_SPEEDUP,
            },
            "lane_sweep": sweep,
            "pair_lane_sweep": pair_sweep,
        },
    }
    OUT.write_text(json.dumps(document, indent=2) + "\n")
    print(f"forest predict: object {object_s:.3f} s, table {flat_s:.3f} s "
          f"-> {forest_speedup:.1f}x (target >= {MIN_FOREST_SPEEDUP:.0f}x)")
    print(f"similarity matrix: scalar {scalar_s:.3f} s, batched "
          f"{batch_s:.3f} s -> {matrix_speedup:.1f}x "
          f"(target >= {MIN_MATRIX_SPEEDUP:.0f}x)")
    for name, model_sweep in sweep.items():
        print(f"lane sweep ({name}, {model_sweep['trees']} trees, depth "
              f"{model_sweep['max_depth']}): scalar lane wins up to "
              f"{model_sweep['largest_scalar_win_rows']} rows; shipped "
              f"bound {SCALAR_LANE_MAX}")
        for point in model_sweep["points"]:
            print(f"  {point['rows']:3d} rows: shipped "
                  f"{point['shipped_us']:7.1f} us, scalar "
                  f"{point['scalar_us']:7.1f} us, vector "
                  f"{point['vector_us']:7.1f} us")
    print(f"small-batch lane at {LANE_FLOOR_ROWS} rows: {lane_speedup:.1f}x "
          f"the vector lane (target >= {MIN_LANE_SPEEDUP:.0f}x)")
    print(f"pair-scoring lane sweep: scalar lane wins up to "
          f"{pair_sweep['largest_scalar_win_pairs']} pairs; shipped bound "
          f"{pair_sweep['batch_min_comparisons']} comparisons")
    for point in pair_sweep["points"]:
        print(f"  {point['pairs']:3d} pairs: shipped "
              f"{point['shipped_ms']:7.3f} ms, scalar "
              f"{point['scalar_ms']:7.3f} ms, batch "
              f"{point['batch_ms']:7.3f} ms")
    print(f"-> {OUT.name}")

    return (_guard("forest_predict", forest_speedup,
                   MIN_FOREST_SPEEDUP, previous)
            or _guard("similarity_matrix", matrix_speedup,
                      MIN_MATRIX_SPEEDUP, previous)
            or _guard("small_batch_lane", lane_speedup,
                      MIN_LANE_SPEEDUP, previous))


if __name__ == "__main__":
    sys.exit(main())
