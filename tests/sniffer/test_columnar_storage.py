"""Tests for the columnar storage layer: builders, NPZ, file ordering."""

import numpy as np
import pytest

from repro.lte.dci import Direction
from repro.sniffer.trace import Trace, TraceBuilder, TraceSet
from tests.traces import record_rows


def make_trace(n=10, label="YouTube", t0=0.0):
    index = np.arange(n)
    return Trace.from_arrays(t0 + 0.01 * index, 0x100 + index % 3,
                             index % 2, 100 * index, label=label,
                             category="streaming", operator="Lab",
                             cell="c0", day=1, user="victim")


def extend_one(builder, time_s, rnti, direction, tbs_bytes):
    builder.extend([time_s], [rnti], [direction], [tbs_bytes])


class TestTraceBuilder:
    def test_build_matches_record_appends(self):
        builder = TraceBuilder()
        for i in range(5):
            extend_one(builder, 0.1 * i, 0x200, int(Direction.DOWNLINK),
                       42 + i)
        builder.extend([0.5, 0.6], [0x201, 0x202], [0, 1], [47, 48])
        built = builder.build(label="x")
        reference = Trace.from_arrays(
            [0.1 * i for i in range(5)] + [0.5, 0.6],
            [0x200] * 5 + [0x201, 0x202], [1] * 5 + [0, 1],
            [42 + i for i in range(5)] + [47, 48])
        assert record_rows(built) == record_rows(reference)
        assert built.label == "x"

    def test_growth_beyond_initial_capacity(self):
        builder = TraceBuilder()
        for lo in range(0, 1000, 7):
            index = np.arange(lo, min(lo + 7, 1000))
            builder.extend(0.001 * index, np.full(len(index), 0x100),
                           np.zeros(len(index)), index)
        assert len(builder) == 1000
        trace = builder.build()
        assert len(trace) == 1000
        assert trace.times_s[-1] == pytest.approx(0.999)
        assert int(trace.tbs_bytes[999]) == 999

    def test_out_of_order_append_rejected(self):
        builder = TraceBuilder()
        extend_one(builder, 1.0, 0x100, 0, 10)
        with pytest.raises(ValueError):
            extend_one(builder, 0.5, 0x100, 0, 10)
        with pytest.raises(ValueError):
            builder.extend([2.0, 1.5], [0x100] * 2, [0] * 2, [10] * 2)
        assert len(builder) == 1

    def test_equal_timestamps_allowed(self):
        builder = TraceBuilder()
        extend_one(builder, 1.0, 0x100, 0, 10)
        builder.extend([1.0, 1.0], [0x200, 0x300], [1, 1], [20, 30])
        assert len(builder.build()) == 3

    def test_views_track_appends(self):
        builder = TraceBuilder()
        extend_one(builder, 0.5, 0x111, 1, 7)
        assert list(builder.times_s) == [0.5]
        assert list(builder.rntis) == [0x111]


class TestTraceNPZ:
    """One trace through the NPZ archive, as a one-trace set."""

    def test_round_trip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.npz"
        TraceSet([trace]).to_npz(path)
        (loaded,) = TraceSet.from_npz(path).traces
        assert record_rows(loaded) == record_rows(trace)
        assert loaded.metadata() == trace.metadata()
        assert np.array_equal(loaded.times_s, trace.times_s)
        assert loaded.times_s.dtype == trace.times_s.dtype

    def test_empty_round_trip(self, tmp_path):
        trace = Trace(label="empty")
        path = tmp_path / "e.npz"
        TraceSet([trace]).to_npz(path)
        (loaded,) = TraceSet.from_npz(path).traces
        assert len(loaded) == 0
        assert loaded.label == "empty"


class TestTraceSetNPZ:
    def test_round_trip(self, tmp_path):
        traces = TraceSet([make_trace(5, "YouTube"),
                           make_trace(0, "Netflix"),
                           make_trace(9, "WhatsApp", t0=3.0)])
        path = tmp_path / "set.npz"
        traces.to_npz(path)
        loaded = TraceSet.from_npz(path)
        assert len(loaded) == 3
        for mine, theirs in zip(traces, loaded):
            assert record_rows(theirs) == record_rows(mine)
            assert theirs.metadata() == mine.metadata()

    def test_empty_set_round_trip(self, tmp_path):
        path = tmp_path / "empty.npz"
        TraceSet().to_npz(path)
        assert len(TraceSet.from_npz(path)) == 0

    def test_load_autodetects_npz_file(self, tmp_path):
        traces = TraceSet([make_trace(4)])
        path = tmp_path / "data.npz"
        traces.to_npz(path)
        loaded = TraceSet.load(path)
        assert len(loaded) == 1
        assert (record_rows(loaded.traces[0])
                == record_rows(traces.traces[0]))

    def test_load_autodetects_npz_in_directory(self, tmp_path):
        traces = TraceSet([make_trace(4)])
        traces.to_npz(tmp_path / "traces.npz")
        assert len(TraceSet.load(tmp_path)) == 1


class TestTraceSetOrdering:
    def test_numeric_order_beyond_four_digits(self, tmp_path):
        # Lexicographic order would put trace_10000 before trace_2 and
        # interleave legacy 4-digit names; numeric ordering must not.
        indices = [2, 9, 123, 9999, 10000, 123456]
        for index, name in zip(indices, ("trace_000002.csv",
                                         "trace_0009.csv",
                                         "trace_123.csv",
                                         "trace_9999.csv",
                                         "trace_10000.csv",
                                         "trace_123456.csv")):
            make_trace(1, label=f"app{index}").to_csv(tmp_path / name)
        loaded = TraceSet.load(tmp_path)
        assert [t.label for t in loaded] == [f"app{i}" for i in indices]

    def test_save_uses_six_digit_names(self, tmp_path):
        TraceSet([make_trace(1), make_trace(1)]).save(tmp_path)
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == ["trace_000000.csv", "trace_000001.csv"]

    def test_non_trace_files_ignored(self, tmp_path):
        make_trace(1).to_csv(tmp_path / "trace_000000.csv")
        (tmp_path / "README.txt").write_text("not a trace")
        (tmp_path / "trace_extra_notes.csv").write_text("junk")
        assert len(TraceSet.load(tmp_path)) == 1
