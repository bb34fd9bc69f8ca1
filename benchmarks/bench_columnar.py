#!/usr/bin/env python
"""Benchmark guard: the columnar trace data plane.

Times the primitives every attack runs on, each as best-of-``ROUNDS``
seconds per call:

* **features** — ``extract_features`` over 100 ms windows, without
  overlap and at a 25 ms stride, ``volume_series`` (the correlation
  attack's input), the zero-copy filter chain (direction mask, time
  slice, RNTI filter, rebase), ``total_bytes`` and
  ``interarrival_times``, all on one 30 s YouTube LAB capture;
* **tree fit** — one ``DecisionTree.fit`` with ``sqrt`` feature
  subsampling at the seed dataset's scale (n = 2,250 windows, 19
  features, 9 classes), and the same fit capped at depth 12;
* **persistence** — ``TraceSet`` save and load of an 8-trace set, as
  one CSV file per trace and as one NPZ archive;
* **warm trace cache** — ``collect_traces`` of a 6-capture campaign
  served from the on-disk cache (one uncompressed NPZ read per
  capture), asserted to run zero simulations.

Results land in ``BENCH_columnar.json`` at the repo root.  Every value
has a regression guard: no more than 2x slower than the committed file.

Run via ``make bench-columnar`` or
``PYTHONPATH=src python benchmarks/bench_columnar.py``.
"""

import tempfile
from pathlib import Path

import harness

OUT = harness.REPO_ROOT / "BENCH_columnar.json"

ROUNDS = 5

TRACE_APP = "YouTube"
TRACE_DURATION_S = 30.0
TRACE_SEED = 1
TREE_CLASSES, TREE_ROWS_PER_CLASS, TREE_FEATURES = 9, 250, 19
TRACESET_SIZE = 8
CAMPAIGN_APPS = ("YouTube", "WhatsApp", "Skype")
CAMPAIGN = {"traces_per_app": 2, "duration_s": 12.0, "seed": 7}

#: Timed calls per round of each measurement, so every timed block
#: spans at least a few milliseconds.
CALLS = {"extract_features_s": 20, "extract_features_stride25_s": 10,
         "volume_series_s": 200, "trace_filters_s": 100,
         "total_bytes_s": 2000, "interarrival_s": 2000,
         "tree_fit_s": 1, "tree_fit_depth12_s": 1,
         "traceset_save_csv_s": 1, "traceset_load_csv_s": 1,
         "traceset_save_npz_s": 5, "traceset_load_npz_s": 5,
         "collect_traces_warm_s": 1}

GUARDS = tuple(harness.regression(key, better="lower") for key in CALLS)


def _time(variants):
    """Best seconds per call of each variant, at its ``CALLS`` count."""
    results = {}
    for name, call in variants.items():
        best, _ = harness.best_of({name: call}, ROUNDS, calls=CALLS[name])
        results[name] = best[name]
    return results


def _bench_trace(trace):
    from repro.core.features import (WindowConfig, extract_features,
                                     volume_series)
    from repro.lte.dci import Direction

    stride25 = WindowConfig(window_ms=100.0, stride_ms=25.0)
    wanted = {int(trace.rntis[0])}

    def filters(_):
        trace.direction_filtered(Direction.DOWNLINK)
        trace.time_sliced(5.0, 25.0)
        trace.rnti_filtered(wanted)
        return trace.rebased()

    if not len(extract_features(trace)) or not len(
            extract_features(trace, stride25)):
        raise RuntimeError("the capture yields no feature windows")
    return _time({
        "extract_features_s": lambda _: extract_features(trace),
        "extract_features_stride25_s":
            lambda _: extract_features(trace, stride25),
        "volume_series_s": lambda _: volume_series(trace),
        "trace_filters_s": filters,
        "total_bytes_s": lambda _: trace.total_bytes,
        "interarrival_s": lambda _: trace.interarrival_times()})


def _bench_tree_fit():
    import numpy as np

    from repro.ml.tree import DecisionTree

    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0.6 * k, 1.0,
                              (TREE_ROWS_PER_CLASS, TREE_FEATURES))
                   for k in range(TREE_CLASSES)])
    y = np.repeat(np.arange(TREE_CLASSES), TREE_ROWS_PER_CLASS)

    def fit(max_depth):
        tree = DecisionTree(max_depth=max_depth, max_features="sqrt",
                            seed=1).fit(X, y)
        if tree.n_classes_ != TREE_CLASSES:
            raise RuntimeError("the tree fit lost a class")
        return tree

    return _time({"tree_fit_s": lambda _: fit(None),
                  "tree_fit_depth12_s": lambda _: fit(12)})


def _bench_persistence(trace, directory):
    from repro.sniffer.trace import TraceSet

    traces = TraceSet([trace] * TRACESET_SIZE)
    csv_dir, npz_path = directory / "csv", directory / "set.npz"
    traces.save(csv_dir)
    traces.to_npz(npz_path)
    for loaded in (TraceSet.load(csv_dir), TraceSet.from_npz(npz_path)):
        if [len(t) for t in loaded] != [len(trace)] * TRACESET_SIZE:
            raise RuntimeError("a trace set round trip lost records")
    return _time({
        "traceset_save_csv_s": lambda _: traces.save(csv_dir),
        "traceset_load_csv_s": lambda _: TraceSet.load(csv_dir),
        "traceset_save_npz_s": lambda _: traces.to_npz(npz_path),
        "traceset_load_npz_s": lambda _: TraceSet.from_npz(npz_path)})


def _bench_warm_cache(directory):
    from repro import runtime
    from repro.core.dataset import collect_traces

    def collect(_):
        return collect_traces(list(CAMPAIGN_APPS), **CAMPAIGN)

    with runtime.overrides(cache_enabled=True, cache_dir=directory):
        collect(None)                                   # cold fill
        runtime.reset_stats()
        results = _time({"collect_traces_warm_s": collect})
        if runtime.stats().simulations:
            raise RuntimeError("a warm-cache rerun simulated")
    return results


def main() -> int:
    from repro import runtime
    from repro.core.dataset import collect_trace

    with runtime.overrides(cache_enabled=False):
        trace = collect_trace(TRACE_APP, duration_s=TRACE_DURATION_S,
                              seed=TRACE_SEED)
    results = {**_bench_trace(trace), **_bench_tree_fit()}
    with tempfile.TemporaryDirectory() as scratch:
        results.update(_bench_persistence(trace, Path(scratch)))
        results.update(_bench_warm_cache(Path(scratch) / "cache"))
    for name, seconds in results.items():
        print(f"{name:28s} {seconds * 1e6:12.1f} us")
    return harness.record(
        OUT,
        "Columnar trace data plane, best of "
        f"{ROUNDS} rounds, seconds per call: feature extraction, "
        "volume series, the zero-copy filter chain and trace "
        "aggregates on one capture; a CART fit; TraceSet CSV and NPZ "
        "persistence; and a warm trace-cache collect (zero "
        "simulations asserted).",
        {"trace": f"{TRACE_APP} {TRACE_DURATION_S:g} s LAB capture, "
                  f"seed {TRACE_SEED}, {len(trace)} decoded DCIs",
         "tree_fit": f"n={TREE_CLASSES * TREE_ROWS_PER_CLASS} windows, "
                     f"{TREE_FEATURES} features, {TREE_CLASSES} classes, "
                     "max_features=sqrt",
         "traceset": f"{TRACESET_SIZE} copies of the capture",
         "warm_cache": f"{len(CAMPAIGN_APPS)} apps x "
                       f"{CAMPAIGN['traces_per_app']} LAB captures of "
                       f"{CAMPAIGN['duration_s']:g} s, seed "
                       f"{CAMPAIGN['seed']}",
         "rounds": ROUNDS, "calls": CALLS},
        results, GUARDS)


if __name__ == "__main__":
    harness.run(main)
