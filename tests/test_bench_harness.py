"""The shared harness under the per-layer BENCH guard scripts.

Guards, baselines, the document layout and the timing loop, driven by
fake measurements that finish in milliseconds; plus a check that every
guard the four scripts declare finds its baseline value in the
committed ``BENCH_*.json`` files.
"""

import contextlib
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = REPO_ROOT / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module          # the scripts ``import harness``
    spec.loader.exec_module(module)
    return module


harness = _load("harness")

SCRIPTS = {"bench_lint": "BENCH_lint.json",
           "bench_simulator": "BENCH_simulator.json",
           "bench_inference": "BENCH_inference.json",
           "bench_stream": "BENCH_stream.json"}


def _entry(guard, value, previous=None):
    results = {"a": {"b": value}}
    prior = {} if previous is None else {"a": {"b": previous}}
    return harness.evaluate(guard, results, prior)


class TestGuards:
    @pytest.mark.parametrize("value, passed", [(5.1, True), (5.0, True),
                                               (4.9, False)])
    def test_floor(self, value, passed):
        entry = _entry(harness.floor("a.b", 5.0), value)
        assert entry["passed"] is passed
        assert entry["bound"] == 5.0 and entry["value"] == value

    @pytest.mark.parametrize("value, passed", [(1.9, True), (2.0, True),
                                               (2.1, False)])
    def test_ceiling(self, value, passed):
        assert _entry(harness.ceiling("a.b", 2.0), value)["passed"] is passed

    @pytest.mark.parametrize("value, passed", [(20.0, True), (5.0, True),
                                               (4.99, False)])
    def test_regression_higher_is_better(self, value, passed):
        entry = _entry(harness.regression("a.b"), value, previous=10.0)
        assert entry["bound"] == 10.0 / harness.REGRESSION_FACTOR == 5.0
        assert entry["previous"] == 10.0
        assert entry["passed"] is passed

    @pytest.mark.parametrize("value, passed", [(0.5, True), (2.4, True),
                                               (2.41, False)])
    def test_regression_lower_is_better(self, value, passed):
        entry = _entry(harness.regression("a.b", better="lower"), value,
                       previous=1.2)
        assert entry["bound"] == 1.2 * harness.REGRESSION_FACTOR
        assert entry["passed"] is passed

    def test_regression_without_baseline_passes_unbounded(self):
        entry = _entry(harness.regression("a.b"), 1.0)
        assert entry["bound"] is None and entry["previous"] is None
        assert entry["passed"] is True

    def test_missing_value_fails(self):
        for guard in (harness.floor("a.c", 1.0),
                      harness.regression("a.c")):
            assert _entry(guard, 3.0, previous=3.0)["passed"] is False

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            harness.regression("a.b", better="faster")

    def test_lookup_walks_dicts_and_lists(self):
        results = {"points": [{"us": 1.5}, {"us": 2.5}]}
        assert harness.lookup(results, "points.1.us") == 2.5
        assert harness.lookup(results, "points.2.us") is None
        assert harness.lookup(results, "points.x") is None
        assert harness.lookup(results, "missing.us") is None


class TestPreviousResults:
    def test_missing_file(self, tmp_path):
        assert harness.previous_results(tmp_path / "BENCH_x.json") == {}

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", "null",
                                      '{"results": 3}', '{"other": {}}',
                                      ""])
    def test_garbled_file(self, tmp_path, text):
        path = tmp_path / "BENCH_x.json"
        path.write_text(text)
        assert harness.previous_results(path) == {}
        entry = harness.evaluate(harness.regression("a"), {"a": 1.0},
                                 harness.previous_results(path))
        assert entry["passed"] is True and entry["previous"] is None

    @pytest.mark.parametrize("module_name", sorted(SCRIPTS))
    def test_committed_baselines_cover_every_guard(self, module_name):
        module = _load(module_name)
        previous = harness.previous_results(REPO_ROOT / SCRIPTS[module_name])
        assert module.GUARDS
        assert any(guard.kind == "regression" for guard in module.GUARDS)
        for guard in module.GUARDS:
            entry = harness.evaluate(guard, {}, previous)
            assert isinstance(entry["previous"], float), guard.key
            if guard.kind == "regression":
                assert entry["bound"] is not None, guard.key


class TestRecord:
    def test_every_failure_listed(self, tmp_path, capsys):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"results": {"rate": 100.0,
                                                "wall_s": 1.0}}))
        guards = (harness.floor("rate", 60.0),
                  harness.regression("rate"),
                  harness.ceiling("wall_s", 1.5),
                  harness.regression("wall_s", better="lower"),
                  harness.floor("absent", 1.0))
        status = harness.record(path, "fake", {"n": 1},
                                {"rate": 40.0, "wall_s": 2.5}, guards)
        assert status == 1
        failures = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("FAIL")]
        assert len(failures) == 5
        assert "rate 40 below 60 (the floor)" in failures[0]
        assert "2x off the committed 100" in failures[1]
        assert "wall_s 2.5 above 1.5 (the ceiling)" in failures[2]
        assert "absent missing" in failures[4]

        document = json.loads(path.read_text())
        assert list(document) == ["description", "workload", "host",
                                  "results", "guards"]
        assert [entry["passed"] for entry in document["guards"]] \
            == [False] * 5
        assert document["guards"][1]["previous"] == 100.0
        assert document["guards"][1]["bound"] == 50.0

    def test_passing_run_exits_zero(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        assert harness.record(path, "fake", {}, {"rate": 3.0},
                              (harness.floor("rate", 1.0),
                               harness.regression("rate"))) == 0
        assert json.loads(path.read_text())["results"] == {"rate": 3.0}
        # The run just written is the next run's baseline.
        assert harness.record(path, "fake", {}, {"rate": 1.4},
                              (harness.regression("rate"),)) == 1


def test_host_fields():
    import numpy

    record = harness.host()
    assert record == {"cpu_count": os.cpu_count(),
                      "nproc": len(os.sched_getaffinity(0)),
                      "python": platform.python_version(),
                      "numpy": numpy.__version__}
    assert 1 <= record["nproc"] <= record["cpu_count"]


class TestBestOf:
    def test_rounds_interleave_and_setup_is_untimed(self):
        events = []

        @contextlib.contextmanager
        def setup(name):
            events.append(("setup", name))
            yield name.upper()
            events.append(("teardown", name))

        best, outputs = harness.best_of(
            {"a": lambda arg: events.append(("call", arg)) or arg,
             "b": lambda arg: events.append(("call", arg)) or arg},
            2, setup=setup, calls=3)
        block = lambda name: ([("setup", name)]
                              + [("call", name.upper())] * 3
                              + [("teardown", name)])
        assert events == (block("a") + block("b")) * 2
        assert outputs == {"a": ["A", "A"], "b": ["B", "B"]}
        assert set(best) == {"a", "b"}
        assert all(seconds >= 0.0 for seconds in best.values())

    def test_best_is_the_fastest_round_per_call(self, monkeypatch):
        class Clock:
            ticks = iter([0.0, 4.0, 10.0, 11.0, 20.0, 23.0])

            def perf_counter(self):
                return next(self.ticks)

        monkeypatch.setattr(harness, "time", Clock())
        best, outputs = harness.best_of({"x": lambda _: 7}, 3, calls=2)
        assert best == {"x": 0.5}
        assert outputs == {"x": [7, 7, 7]}
