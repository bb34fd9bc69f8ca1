"""End-to-end service tests: interleaving, JSONL output, obs wiring,
the exact p99 close lag and the memory its heap takes."""

import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.core.dataset import collect_traces, windows_from_traces
from repro.core.fingerprint import HierarchicalFingerprinter
from repro.sniffer.trace import Trace
from repro.stream import StreamService, interleave_chunks
from repro.stream.service import ServiceReport


def _tiled(trace, copies):
    """``copies`` back-to-back replays of ``trace``, 1 s apart."""
    span = float(trace.times_s[-1]) + 1.0
    return Trace.from_arrays(
        np.concatenate([trace.times_s + k * span for k in range(copies)]),
        np.tile(trace.rntis, copies), np.tile(trace.directions, copies),
        np.tile(trace.tbs_bytes, copies), user=trace.user)


@pytest.fixture(scope="module")
def fitted():
    traces = collect_traces(["YouTube", "WhatsApp", "Skype"],
                            traces_per_app=2, duration_s=10.0, seed=5)
    model = HierarchicalFingerprinter(n_trees=8, max_depth=8)
    model.fit(windows_from_traces(traces))
    return model, traces


class TestInterleave:
    def test_event_time_order_with_stable_ties(self, fitted):
        _, traces = fitted
        feeds = traces.traces[:3]
        seen = [[] for _ in feeds]
        last_start = None
        for index, chunk in interleave_chunks(feeds, 64):
            start = float(chunk[0][0])
            if last_start is not None:
                assert start >= last_start or seen[index]
            last_start = start
            seen[index].append(chunk)
        for trace, chunks in zip(feeds, seen):
            rebuilt = np.concatenate([chunk[0] for chunk in chunks])
            assert np.array_equal(rebuilt, trace.times_s)

    def test_deterministic(self, fitted):
        _, traces = fitted
        feeds = traces.traces[:2]
        first = [(i, chunk[0][0]) for i, chunk in
                 interleave_chunks(feeds, 32)]
        second = [(i, chunk[0][0]) for i, chunk in
                  interleave_chunks(feeds, 32)]
        assert first == second


class TestStreamService:
    def test_run_report_and_jsonl(self, fitted, tmp_path):
        model, traces = fitted
        out = tmp_path / "verdicts.jsonl"
        service = StreamService(
            model, [("cell-a", traces.traces[0]),
                    ("cell-b", traces.traces[1])],
            chunk_records=50, out_path=out)
        report = service.run()
        assert isinstance(report, ServiceReport)
        assert report.records == sum(len(t) for t in traces.traces[:2])
        assert report.windows > 0
        assert report.ring_high_water > 0
        assert report.lag_p99_s >= 0.0
        lines = [json.loads(line)
                 for line in out.read_text().splitlines()]
        windows = [line for line in lines if line["type"] == "window"]
        trace_lines = [line for line in lines if line["type"] == "trace"]
        fused_lines = [line for line in lines if line["type"] == "fused"]
        assert len(windows) == report.windows
        assert {line["source"] for line in trace_lines} \
            == {"cell-a", "cell-b"}
        assert fused_lines  # both traces share user="victim"
        assert fused_lines[0]["window_count"] == report.windows

    def test_verdicts_match_batch_classification(self, fitted):
        model, traces = fitted
        trace = traces.traces[0]
        service = StreamService(model, [("only", trace)],
                                chunk_records=33)
        report = service.run()
        batch = model.classify_trace(trace)
        streaming = report.trace_verdicts["only"]
        assert streaming.app == batch.app
        assert streaming.confidence == batch.confidence
        assert streaming.window_count == batch.window_count

    def test_byte_identical_output_across_runs(self, fitted, tmp_path):
        model, traces = fitted
        sources = [("a", traces.traces[0]), ("b", traces.traces[1])]
        outputs = []
        for name in ("one.jsonl", "two.jsonl"):
            out = tmp_path / name
            StreamService(model, sources, chunk_records=64,
                          out_path=out).run()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_obs_instruments_populated(self, fitted):
        model, traces = fitted
        with obs.override(True):
            obs.reset()
            service = StreamService(model, [("c0", traces.traces[0])],
                                    chunk_records=100)
            report = service.run()
            snapshot = obs.snapshot()
        counters = snapshot["counters"]
        assert counters["stream.records_ingested"] == report.records
        assert counters["stream.windows_closed"] == report.windows
        assert counters["stream.verdicts"] == report.verdict_count
        assert "stream.records_dropped" in counters
        gauges = snapshot["gauges"]
        assert gauges["stream.model_bytes"] > 0
        assert "stream.ring_occupancy" in gauges
        assert "stream.backlog" in gauges
        histogram = snapshot["histograms"]["stream.window_close_lag_s"]
        assert histogram["n"] == report.windows
        assert "stream.ingest" in snapshot["spans"]

    def test_rejects_bad_construction(self, fitted):
        model, traces = fitted
        with pytest.raises(ValueError):
            StreamService(model, [], chunk_records=10)
        with pytest.raises(ValueError):
            StreamService(model, [("a", traces.traces[0])],
                          chunk_records=0)
        with pytest.raises(ValueError):
            StreamService(model, [("a", traces.traces[0]),
                                  ("a", traces.traces[1])])

    def test_on_control_routes_to_cell(self, fitted):
        from repro.lte.rrc import RRCConnectionRelease

        model, traces = fitted
        service = StreamService(model, [("c0", traces.traces[0])])
        message = RRCConnectionRelease(time_us=0, crnti=0x100)
        service.on_control("c0", message)
        assert service.mapper("c0") is not None
        assert service.tracker("c0") is not None
        with pytest.raises(KeyError):
            service.on_control("ghost", message)

    def test_lag_p99_is_the_rank_over_every_window(self, fitted,
                                                   tmp_path):
        # Long enough that the service keeps only the top lags.
        model, traces = fitted
        out = tmp_path / "verdicts.jsonl"
        report = StreamService(
            model, [("a", _tiled(traces.traces[0], 20)),
                    ("b", _tiled(traces.traces[3], 15))],
            chunk_records=97, out_path=out).run()
        lags = sorted(json.loads(line)["lag_s"]
                      for line in out.read_text().splitlines()
                      if json.loads(line)["type"] == "window")
        assert len(lags) == report.windows > 500
        position = max(0, math.ceil(0.99 * len(lags)) - 1)
        assert report.lag_p99_s == lags[position]

    def test_lag_memory_bounded_by_the_p99_heap(self, fitted):
        # A 10x longer stream keeps at most the lags ranked at or above
        # the p99 of its window grid: a list slot and a float each.
        # Python objects only (numpy buffers, the bounded ring's among
        # them, live in their own tracemalloc domain); the slack covers
        # the interpreter's free lists, whatever the stream's length.
        model, traces = fitted
        base = traces.traces[0]
        python_objects = [tracemalloc.DomainFilter(True, 0)]

        def retained(copies):
            trace = _tiled(base, copies)
            gc.collect()
            tracemalloc.start()
            before = tracemalloc.take_snapshot().filter_traces(
                python_objects)
            service = StreamService(model, [("cell", trace)])
            report = service.run()
            after = tracemalloc.take_snapshot().filter_traces(
                python_objects)
            tracemalloc.stop()
            grown = sum(stat.size_diff for stat in
                        after.compare_to(before, "filename"))
            return grown, report, trace

        retained(6)                          # first-use caches
        short, short_report, _ = retained(6)
        long, long_report, trace = retained(60)
        assert long_report.windows >= 10 * short_report.windows
        grid = math.floor(float(trace.times_s[-1] - trace.times_s[0])
                          / 0.1) + 2
        heap = grid - max(0, math.ceil(0.99 * grid) - 1)
        assert long - short <= heap * (8 + 24) + 8192
