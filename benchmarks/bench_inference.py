#!/usr/bin/env python
"""Benchmark guard: flattened-forest predict and batched DTW scoring.

Measures the inference hot paths the attack pipeline spends its
prediction time in:

* **forest predict** — a 100-tree Random Forest classifying a large
  window batch, once through the legacy per-tree object descent (the
  oracle in ``tests/ml/oracles.py``, walking pointer graphs it builds
  from the forest's table before timing) and once through the flattened
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

* the batched path must be at least ``MIN_FOREST_SPEEDUP``× (forest)
  or ``MIN_MATRIX_SPEEDUP``× (matrix) faster than the scalar reference
  on the same inputs; for the lane sweep, the shipped lane must be at
  least ``MIN_LANE_SPEEDUP``× faster than the vector lane at
  ``LANE_FLOOR_ROWS`` rows on the shallow model;
* the measured speedup must not regress by more than 2× against the
  committed ``BENCH_inference.json``.

Run via ``make bench-infer`` or
``PYTHONPATH=src python benchmarks/bench_inference.py``.
"""

import contextlib

import harness

OUT = harness.REPO_ROOT / "BENCH_inference.json"

MIN_FOREST_SPEEDUP = 5.0
MIN_MATRIX_SPEEDUP = 3.0
MIN_LANE_SPEEDUP = 3.0
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

GUARDS = (
    harness.floor("forest_predict.speedup", MIN_FOREST_SPEEDUP),
    harness.regression("forest_predict.speedup"),
    harness.floor("similarity_matrix.speedup", MIN_MATRIX_SPEEDUP),
    harness.regression("similarity_matrix.speedup"),
    harness.floor("small_batch_lane.speedup", MIN_LANE_SPEEDUP),
    harness.regression("small_batch_lane.speedup"),
)


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

    from tests.ml.oracles import object_forest, walk_forest_proba

    forest, X = _fit_forest()
    # The pointer graphs are built once, outside the timed region, so
    # "object" times the walk alone.
    roots = object_forest(forest)
    flat = forest.predict_proba(X)
    legacy = walk_forest_proba(roots, X, forest.n_classes_)
    if not np.array_equal(flat, legacy):
        raise RuntimeError("flattened forest diverged from the object "
                           "descent")
    best, _ = harness.best_of(
        {"object": lambda _: walk_forest_proba(roots, X,
                                               forest.n_classes_),
         "table": lambda _: forest.predict_proba(X)}, ROUNDS)
    return best["object"], best["table"]


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
        raise RuntimeError("batched similarity matrix diverged from the "
                           "scalar reference")
    best, _ = harness.best_of(
        {"scalar": lambda _: scalar_reference(),
         "batched": lambda _: similarity_matrix(traces, dtw_window=DTW_WINDOW,
                                                workers=1)}, ROUNDS)
    return best["scalar"], best["batched"]


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


@contextlib.contextmanager
def _warm_lane(pin, bound, call):
    """Pin one lane with ``pin(bound)``, then warm it with one untimed
    ``call()``."""
    with pin(bound):
        call()
        yield


def _pinned_best(call, pin, bounds, calls):
    """Best per-call seconds of ``call()`` with ``pin`` set to each of
    ``bounds`` (by name), ``LANE_ROUNDS`` interleaved rounds of ``calls``
    calls.  Raises if any two outputs differ."""
    import numpy as np

    best, outputs = harness.best_of(
        dict.fromkeys(bounds, lambda _: call()), LANE_ROUNDS, calls=calls,
        setup=lambda name: _warm_lane(pin, bounds[name], call))
    first, *rest = (out for outs in outputs.values() for out in outs)
    if any(not np.array_equal(out, first) for out in rest):
        raise RuntimeError(f"the lanes {sorted(bounds)} disagreed")
    return best


def _lane_point(model, X, rows):
    """Best per-call ``predict_apps`` µs as shipped and on each lane."""
    import numpy as np

    from repro.ml.tables import SCALAR_LANE_MAX as shipped
    from tests.ml.oracles import SCALAR, VECTOR, pinned_lane

    probe = X[np.random.default_rng(rows).integers(0, len(X), rows)]
    best = _pinned_best(lambda: model.predict_apps(probe), pinned_lane,
                        {"shipped": shipped, "scalar": SCALAR,
                         "vector": VECTOR}, LANE_CALLS)
    return {"rows": rows,
            "lane": "scalar" if rows <= shipped else "vector",
            **{f"{name}_us": round(value * 1e6, 1)
               for name, value in best.items()}}


def _table_depth(table):
    """Deepest leaf depth over a forest table's trees."""
    from repro.ml.tree import DecisionTree

    return max(DecisionTree.from_table(table.tree(index)).depth()
               for index in range(table.n_trees))


def _lane_sweep():
    """Per-call ``predict_apps`` cost across batch sizes and lanes."""
    shallow, X = _shallow_model()
    deep, X_deep = _deep_model(X.shape[1])
    sweep = {}
    for name, model, rows_X in (("shallow", shallow, X),
                                ("deep", deep, X_deep)):
        forests = [model._category_model, *model._app_models.values()]
        points = [_lane_point(model, rows_X, rows) for rows in LANE_ROWS]
        scalar_wins = [point["rows"] for point in points
                       if point["scalar_us"] <= point["vector_us"]]
        sweep[name] = {
            "trees": sum(forest.n_trees for forest in forests),
            "max_depth": max(_table_depth(forest.table())
                             for forest in forests),
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
    best = _pinned_best(lambda: attack.decision_scores(probe),
                        pinned_pair_lane,
                        {"shipped": shipped, "scalar": PAIR_SCALAR,
                         "batch": PAIR_BATCH}, PAIR_LANE_CALLS)
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
    scalar_wins = [point["pairs"] for point in points
                   if point["scalar_ms"] <= point["batch_ms"]]
    return {"batch_min_comparisons": BATCH_MIN_COMPARISONS,
            "largest_scalar_win_pairs": max(scalar_wins, default=0),
            "points": points}


def main() -> int:
    from repro.ml.tables import SCALAR_LANE_MAX

    object_s, flat_s = _bench_forest()
    forest_speedup = object_s / flat_s
    scalar_s, batch_s = _bench_matrix()
    matrix_speedup = scalar_s / batch_s
    sweep = _lane_sweep()
    floor_point = next(point for point in sweep["shallow"]["points"]
                       if point["rows"] == LANE_FLOOR_ROWS)
    lane_speedup = floor_point["vector_us"] / floor_point["shipped_us"]
    pair_sweep = _pair_lane_sweep()

    print(f"forest predict: object {object_s:.3f} s, table {flat_s:.3f} s "
          f"-> {forest_speedup:.1f}x")
    print(f"similarity matrix: scalar {scalar_s:.3f} s, batched "
          f"{batch_s:.3f} s -> {matrix_speedup:.1f}x")
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
          f"the vector lane")
    print(f"pair-scoring lane sweep: scalar lane wins up to "
          f"{pair_sweep['largest_scalar_win_pairs']} pairs; shipped bound "
          f"{pair_sweep['batch_min_comparisons']} comparisons")
    for point in pair_sweep["points"]:
        print(f"  {point['pairs']:3d} pairs: shipped "
              f"{point['shipped_ms']:7.3f} ms, scalar "
              f"{point['scalar_ms']:7.3f} ms, batch "
              f"{point['batch_ms']:7.3f} ms")

    return harness.record(
        OUT,
        "Inference-plane hot paths, best of "
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
        # Both timed paths run single-worker so speedups measure the
        # batched kernels, not process fan-out.
        {"n_trees": N_TREES, "max_depth": MAX_DEPTH,
         "predict_rows": N_ROWS, "n_features": N_FEATURES,
         "n_classes": N_CLASSES, "n_traces": N_TRACES,
         "dtw_window": DTW_WINDOW, "rounds": ROUNDS},
        {"forest_predict": {"object_wall_s": object_s,
                            "table_wall_s": flat_s,
                            "speedup": forest_speedup},
         "similarity_matrix": {"scalar_wall_s": scalar_s,
                               "batched_wall_s": batch_s,
                               "speedup": matrix_speedup},
         "small_batch_lane": {"scalar_lane_max": SCALAR_LANE_MAX,
                              "floor_model": "shallow",
                              "floor_rows": LANE_FLOOR_ROWS,
                              "shipped_us": floor_point["shipped_us"],
                              "vector_us": floor_point["vector_us"],
                              "speedup": lane_speedup},
         "lane_sweep": sweep,
         "pair_lane_sweep": pair_sweep},
        GUARDS)


if __name__ == "__main__":
    harness.run(main)
