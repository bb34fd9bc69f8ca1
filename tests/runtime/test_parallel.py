"""Determinism of the ParallelMap fan-out.

The runtime's contract is that the worker count is a pure performance
knob: every pipeline stage that fans out (trace simulation, per-tree
forest fitting, CV folds, the pairwise similarity matrix) must return
bit-identical results for any ``workers`` value.
"""

import threading
from functools import partial

import numpy as np
import pytest

from repro import obs, runtime
from repro.core.correlation import similarity_matrix
from repro.core.dataset import PairSpec, collect_pairs, collect_traces
from repro.ml.crossval import cross_validate
from repro.ml.forest import RandomForest
from repro.operators import LAB
from repro.runtime.parallel import ParallelMap, workers_from_env
from tests.traces import record_rows


def _square(x):
    return x * x


def _log_and_raise(log_path, item):
    with open(log_path, "a") as log:
        log.write(f"{item}\n")
    raise TypeError(f"fn rejects {item}")


def _serial_fallbacks():
    return obs.snapshot()["counters"].get(
        "runtime.parallel.serial_fallbacks", 0)


class TestParallelMap:
    def test_order_preserved_across_workers(self):
        items = list(range(40))
        expected = [_square(i) for i in items]
        assert ParallelMap(workers=1).map(_square, items) == expected
        assert ParallelMap(workers=3).map(_square, items) == expected

    def test_serial_backend_selected_for_one_worker(self):
        assert ParallelMap(workers=1).backend == "serial"
        assert ParallelMap(workers=4).backend == "process"

    def test_explicit_serial_backend_wins(self):
        executor = ParallelMap(workers=4, backend="serial")
        assert executor.backend == "serial"
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ParallelMap(workers=2, backend="threads")

    def test_lambda_falls_back_to_serial(self):
        # Lambdas cannot cross a process boundary; the pool must not
        # crash, it must just run them in-process.
        result = ParallelMap(workers=2).map(lambda x: x + 1, [1, 2, 3])
        assert result == [2, 3, 4]

    def test_fn_exception_raises_once_without_fallback(self, tmp_path):
        # A TypeError raised by fn itself is a bug in fn, not a pickling
        # failure: it must surface once, with no serial rerun.
        log = tmp_path / "calls.log"
        items = [1, 2, 3, 4]
        with obs.override(True):
            before = _serial_fallbacks()
            with pytest.raises(TypeError, match="fn rejects"):
                ParallelMap(workers=2).map(
                    partial(_log_and_raise, str(log)), items)
            assert _serial_fallbacks() == before
        calls = log.read_text().split()
        assert 0 < len(calls) <= len(items)
        assert len(set(calls)) == len(calls)

    def test_unpicklable_items_fall_back_to_serial(self):
        items = [threading.Lock(), threading.Lock()]
        with obs.override(True):
            before = _serial_fallbacks()
            result = ParallelMap(workers=2).map(type, items)
            assert _serial_fallbacks() == before + 1
        assert result == [type(items[0])] * 2

    def test_empty_and_singleton_inputs(self):
        assert ParallelMap(workers=2).map(_square, []) == []
        assert ParallelMap(workers=2).map(_square, [7]) == [49]

    def test_workers_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert workers_from_env(default=1) == 1
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert workers_from_env() == 6
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert workers_from_env() == 1          # clamped to >= 1
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            workers_from_env()


@pytest.fixture()
def no_cache():
    """Parallel-vs-serial comparisons must not short-circuit via cache."""
    with runtime.overrides(cache_enabled=False):
        yield


@pytest.fixture(scope="module")
def small_windows():
    with runtime.overrides(cache_enabled=False):
        traces = collect_traces(["YouTube", "WhatsApp", "Skype"],
                                operator=LAB, traces_per_app=2,
                                duration_s=10.0, seed=21)
    from repro.core.dataset import windows_from_traces
    return windows_from_traces(traces)


class TestPipelineDeterminism:
    def test_collect_traces_parallel_identical(self, no_cache):
        kwargs = dict(operator=LAB, traces_per_app=2, duration_s=8.0,
                      seed=31)
        serial = collect_traces(["YouTube", "Skype"], workers=1, **kwargs)
        parallel = collect_traces(["YouTube", "Skype"], workers=2, **kwargs)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert record_rows(a) == record_rows(b)
            assert (a.label, a.category, a.operator) == \
                   (b.label, b.category, b.operator)

    def test_collect_pairs_parallel_identical(self, no_cache):
        specs = [PairSpec(app_name="WhatsApp", kind="chat", operator=LAB,
                          duration_s=8.0, seed=100 + i) for i in range(3)]
        serial = collect_pairs(specs, workers=1)
        parallel = collect_pairs(specs, workers=2)
        for (a1, b1), (a2, b2) in zip(serial, parallel):
            assert record_rows(a1) == record_rows(a2)
            assert record_rows(b1) == record_rows(b2)

    def test_forest_parallel_identical(self, small_windows):
        X, y = small_windows.X, small_windows.app_labels
        serial = RandomForest(n_trees=8, max_depth=8, seed=1,
                              workers=1).fit(X, y)
        parallel = RandomForest(n_trees=8, max_depth=8, seed=1,
                                workers=2).fit(X, y)
        assert np.array_equal(serial.predict_proba(X),
                              parallel.predict_proba(X))
        assert np.array_equal(serial.feature_importances(),
                              parallel.feature_importances())

    def test_crossval_parallel_identical(self, small_windows):
        X, y = small_windows.X, small_windows.app_labels
        serial = cross_validate(_make_small_forest, X, y, folds=3,
                                seed=5, workers=1)
        parallel = cross_validate(_make_small_forest, X, y, folds=3,
                                  seed=5, workers=2)
        assert serial == parallel

    def test_similarity_matrix_parallel_identical(self, no_cache):
        pairs = collect_pairs(
            [PairSpec(app_name="Skype", kind="call", operator=LAB,
                      duration_s=8.0, seed=200 + i) for i in range(2)])
        traces = [t for pair in pairs for t in pair]
        serial = similarity_matrix(traces, workers=1)
        parallel = similarity_matrix(traces, workers=2)
        assert np.array_equal(serial, parallel)
        assert np.allclose(parallel, parallel.T)

    def test_overrides_scope_workers(self):
        with runtime.overrides(workers=3):
            assert runtime.resolve_workers() == 3
            assert runtime.mapper().workers == 3
        assert runtime.resolve_workers(2) == 2


def _make_small_forest():
    return RandomForest(n_trees=4, max_depth=6, seed=1)
