"""Self time arithmetic, span roots, and wrapper install/uninstall."""

import importlib

import numpy as np
import pytest

import tracing
from tracing import Tracer, Wrap, self_times


def _tracer(spans):
    """A tracer holding ``(name, start, end, parent)`` records."""
    tracer = Tracer()
    for name, start, end, parent in spans:
        span_id = tracer.begin(name)
        tracer.starts[span_id] = start
        tracer.ends[span_id] = end
        tracer.parents[span_id] = parent
        tracer._stack.pop()
    return tracer


class TestSelfTimes:
    def test_nested_children_subtract_once(self):
        # root 0..10 holds a 1..4 child (itself holding 2..3) and a 5..9
        # child: root self = 10 - 3 - 4, child self = 3 - 1.
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 9.0]
        parents = [-1, 0, 1, 0]
        assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]

    def test_overlapping_children_are_merged(self):
        starts = [0.0, 1.0, 2.0]
        ends = [10.0, 5.0, 6.0]
        assert self_times(starts, ends, [-1, 0, 0])[0] == 5.0

    def test_children_are_clipped_to_the_parent(self):
        starts = [0.0, -2.0, 8.0]
        ends = [10.0, 1.0, 12.0]
        assert self_times(starts, ends, [-1, 0, 0])[0] == 7.0

    def test_childless_span_is_all_self(self):
        assert self_times([3.0], [7.5], [-1]) == [4.5]

    def test_layer_totals_and_root_filter(self):
        tracer = _tracer([
            ("pass", 0.0, 10.0, -1),
            ("lte", 1.0, 7.0, 0),
            ("sniffer.decode", 2.0, 4.0, 1),
            ("lte", 8.0, 9.0, 0),
            ("lte", 20.0, 30.0, -1),          # outside any timed root
            ("verdicts", 40.0, 42.0, -1),
            ("ml.predict", 40.5, 41.5, 5),
        ])
        own = tracing.layer_self_times(tracer)
        assert own == {"pass": 3.0, "lte": 5.0, "sniffer.decode": 2.0,
                       "verdicts": 1.0, "ml.predict": 1.0}
        assert tracing.root_wall(tracer) == 12.0

    def test_live_spans_nest_by_stack(self):
        tracer = Tracer()
        outer = tracer.begin("pass")
        inner = tracer.begin("lte")
        tracer.end(inner)
        tracer.end(outer)
        assert [r[0] for r in tracer.records()] == ["pass", "lte"]
        assert tracer.parents[inner] == outer
        assert tracer.parents[outer] == -1
        with pytest.raises(RuntimeError):
            tracer.begin("a")
            tracer.begin("b")
            tracer.end(len(tracer) - 2)


class TestInstall:
    def _targets(self):
        out = []
        for wrap in tracing.WRAPS:
            resolved = tracing._resolve(wrap.target)
            assert resolved is not None, wrap.target
            out.append(resolved[2])
        return out

    def test_every_target_exists_and_is_unwrapped(self):
        for original in self._targets():
            assert not getattr(original, tracing.WRAPPER_FLAG, False)

    def test_uninstall_restores_every_binding(self):
        dataset = importlib.import_module("repro.core.dataset")
        features = importlib.import_module("repro.core.features")
        network = importlib.import_module("repro.lte.network")
        before = (dataset.extract_features, features.extract_features,
                  vars(network.LTENetwork)["run_for"])
        installation = tracing.install(Tracer())
        assert getattr(dataset.extract_features, tracing.WRAPPER_FLAG)
        assert dataset.extract_features is features.extract_features
        installation.uninstall()
        after = (dataset.extract_features, features.extract_features,
                 vars(network.LTENetwork)["run_for"])
        assert after == before
        assert installation.patches == []

    def test_missing_targets_are_reported_not_raised(self):
        wraps = (Wrap("repro.core.features:no_such_function", "x"),
                 Wrap("repro.no_such_module:thing", "x"),
                 Wrap("repro.lte.network:NoSuchClass.run_for", "x"))
        installation = tracing.install(Tracer(), wraps=wraps)
        try:
            assert set(installation.missing) >= {w.target for w in wraps}
        finally:
            installation.uninstall()

    def test_wrappers_record_spans_and_counts(self):
        from repro.core import dataset
        from repro.sniffer.trace import Trace

        trace = Trace.from_arrays(np.array([0.0, 0.05, 0.31]),
                                  np.array([70, 70, 70]),
                                  np.array([0, 1, 0]),
                                  np.array([100, 200, 300]))
        tracer = Tracer()
        installation = tracing.install(tracer)
        try:
            root = tracer.begin("pass")
            rows = dataset.extract_features(trace)
            tracer.end(root)
        finally:
            installation.uninstall()
        assert [r[0] for r in tracer.records()] == ["pass", "core.features"]
        assert tracer.counts["core.windows"] == len(rows) > 0

    def test_untraced_calls_never_reach_a_wrapper(self):
        from repro.core import dataset
        from repro.sniffer.trace import Trace

        tracer = Tracer()
        tracing.install(tracer).uninstall()
        trace = Trace.from_arrays(np.array([0.0, 0.2]), np.array([70, 70]),
                                  np.array([0, 0]), np.array([10, 20]))
        dataset.extract_features(trace)
        assert len(tracer) == 0
        for original in self._targets():
            assert not getattr(original, tracing.WRAPPER_FLAG, False)
