"""Tests for trace containers and persistence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lte.dci import Direction
from repro.sniffer.trace import Trace, TraceRecord, TraceSet


def record(t, rnti=0x1000, direction=Direction.DOWNLINK, tbs=500):
    return TraceRecord(time_s=t, rnti=rnti, direction=direction,
                       tbs_bytes=tbs)


def small_trace():
    trace = Trace(label="YouTube", category="streaming", operator="Lab",
                  cell="c0", day=3, user="victim")
    for t in (0.0, 0.1, 0.25, 1.0):
        trace.append(record(t))
    return trace


record_lists = st.lists(
    st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False),
              st.integers(min_value=0x100, max_value=0xFFF0),
              st.sampled_from(list(Direction)),
              st.integers(min_value=0, max_value=10_000)),
    min_size=0, max_size=50)


class TestTraceRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(time_s=-1.0, rnti=1, direction=Direction.UPLINK,
                        tbs_bytes=10)
        with pytest.raises(ValueError):
            TraceRecord(time_s=0.0, rnti=1, direction=Direction.UPLINK,
                        tbs_bytes=-1)


class TestTrace:
    def test_append_enforces_time_order(self):
        trace = Trace()
        trace.append(record(1.0))
        with pytest.raises(ValueError):
            trace.append(record(0.5))

    def test_duration_and_totals(self):
        trace = small_trace()
        assert trace.duration_s == pytest.approx(1.0)
        assert trace.total_bytes == 2_000
        assert len(trace) == 4

    def test_empty_trace_properties(self):
        trace = Trace()
        assert trace.duration_s == 0.0
        assert trace.total_bytes == 0
        assert len(trace.interarrival_times()) == 0

    def test_interarrival_times(self):
        times = small_trace().interarrival_times()
        assert times == pytest.approx([0.1, 0.15, 0.75])

    def test_direction_filter(self):
        trace = Trace()
        trace.append(record(0.0, direction=Direction.UPLINK))
        trace.append(record(0.1, direction=Direction.DOWNLINK))
        down = trace.direction_filtered(Direction.DOWNLINK)
        assert len(down) == 1
        assert down.records[0].direction is Direction.DOWNLINK

    def test_time_slice_half_open(self):
        trace = small_trace()
        sliced = trace.time_sliced(0.1, 1.0)
        assert [r.time_s for r in sliced] == [0.1, 0.25]

    def test_rnti_filter(self):
        trace = Trace()
        trace.append(record(0.0, rnti=1_000))
        trace.append(record(0.1, rnti=2_000))
        filtered = trace.rnti_filtered({1_000})
        assert [r.rnti for r in filtered] == [1_000]

    def test_rebased_shifts_to_zero(self):
        trace = Trace()
        trace.append(record(5.0))
        trace.append(record(6.5))
        rebased = trace.rebased()
        assert rebased.records[0].time_s == 0.0
        assert rebased.records[1].time_s == pytest.approx(1.5)
        assert rebased.label == trace.label

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_from_arrays_rejects_non_finite_times(self, bad):
        columns = ([0.0, 0.5, bad], [0x100] * 3, [0] * 3, [10] * 3)
        with pytest.raises(ValueError, match="finite"):
            Trace.from_arrays(*columns)
        # validate=False still adopts trusted columns as they are.
        assert len(Trace.from_arrays(*columns, validate=False)) == 3

    def test_from_arrays_rejects_negative_tbs(self):
        with pytest.raises(ValueError, match="tbs_bytes"):
            Trace.from_arrays([0.0, 1.0], [0x100] * 2, [0] * 2, [10, -1])

    def test_filters_preserve_metadata(self):
        trace = small_trace()
        for derived in (trace.direction_filtered(Direction.DOWNLINK),
                        trace.time_sliced(0, 10), trace.rebased()):
            assert derived.label == "YouTube"
            assert derived.operator == "Lab"
            assert derived.day == 3


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.csv"
        trace.to_csv(path)
        loaded = Trace.from_csv(path)
        assert loaded.records == trace.records
        assert loaded.metadata() == trace.metadata()

    def test_jsonl_round_trip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.jsonl"
        trace.to_jsonl(path)
        loaded = Trace.from_jsonl(path)
        assert loaded.records == trace.records
        assert loaded.metadata() == trace.metadata()

    def test_jsonl_malformed_record_is_value_error(self, tmp_path):
        # Bad input must raise ValueError (the serve CLI maps it to
        # exit 2), never a bare KeyError/TypeError traceback.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "window", "app": "YouTube"}\n')
        with pytest.raises(ValueError, match="t/rnti/dir/tbs"):
            Trace.from_jsonl(path)
        path.write_text('[1, 2]\n')
        with pytest.raises(ValueError):
            Trace.from_jsonl(path)

    def test_csv_missing_columns_is_value_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,rnti\n0.1,257\n")
        with pytest.raises(ValueError, match="4 record columns"):
            Trace.from_csv(path)

    @settings(max_examples=25)
    @given(record_lists)
    def test_property_csv_round_trip(self, tmp_path_factory, tuples):
        trace = Trace(label="x", category="voip")
        for t, rnti, direction, tbs in sorted(tuples):
            trace.append(TraceRecord(round(t, 6), rnti, direction, tbs))
        path = tmp_path_factory.mktemp("rt") / "trace.csv"
        trace.to_csv(path)
        loaded = Trace.from_csv(path)
        assert len(loaded) == len(trace)
        for mine, theirs in zip(trace, loaded):
            assert theirs.time_s == pytest.approx(mine.time_s, abs=1e-6)
            assert theirs.rnti == mine.rnti
            assert theirs.direction == mine.direction
            assert theirs.tbs_bytes == mine.tbs_bytes


class TestTraceSet:
    def test_labels_and_by_label(self):
        traces = TraceSet([small_trace(), small_trace()])
        traces.traces[1].label = "Netflix"
        assert traces.labels() == ["Netflix", "YouTube"]
        assert len(traces.by_label("Netflix")) == 1

    def test_save_load_directory(self, tmp_path):
        traces = TraceSet([small_trace(), small_trace()])
        traces.save(tmp_path / "data")
        loaded = TraceSet.load(tmp_path / "data")
        assert len(loaded) == 2
        assert loaded.traces[0].label == "YouTube"

    def test_load_empty_directory(self, tmp_path):
        assert len(TraceSet.load(tmp_path)) == 0

    def test_iteration_and_add(self):
        traces = TraceSet()
        traces.add(small_trace())
        assert len(list(traces)) == 1
