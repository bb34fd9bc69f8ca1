"""Tests for trace containers and persistence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lte.dci import Direction
from repro.sniffer.trace import Trace, TraceSet
from tests.traces import record_rows


def trace_of(times, rntis=None, directions=None, **metadata):
    """Records at ``times``, by default DL records of RNTI 0x1000, 500 B."""
    count = len(times)
    return Trace.from_arrays(times, rntis or [0x1000] * count,
                             directions or [Direction.DOWNLINK] * count,
                             [500] * count, **metadata)


def small_trace():
    return trace_of((0.0, 0.1, 0.25, 1.0), label="YouTube",
                    category="streaming", operator="Lab", cell="c0", day=3,
                    user="victim")


record_lists = st.lists(
    st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False),
              st.integers(min_value=0x100, max_value=0xFFF0),
              st.sampled_from(list(Direction)),
              st.integers(min_value=0, max_value=10_000)),
    min_size=0, max_size=50)


class TestTrace:
    def test_from_arrays_enforces_time_order(self):
        with pytest.raises(ValueError, match="time order"):
            trace_of([1.0, 0.5])

    def test_from_arrays_rejects_negative_time(self):
        with pytest.raises(ValueError, match="time_s"):
            trace_of([-1.0, 0.5])

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
        trace = trace_of([0.0, 0.1], directions=[Direction.UPLINK,
                                                 Direction.DOWNLINK])
        down = trace.direction_filtered(Direction.DOWNLINK)
        assert down.directions.tolist() == [Direction.DOWNLINK]

    def test_time_slice_half_open(self):
        trace = small_trace()
        sliced = trace.time_sliced(0.1, 1.0)
        assert sliced.times_s.tolist() == [0.1, 0.25]

    def test_rnti_filter(self):
        trace = trace_of([0.0, 0.1], rntis=[1_000, 2_000])
        filtered = trace.rnti_filtered({1_000})
        assert filtered.rntis.tolist() == [1_000]

    def test_rebased_shifts_to_zero(self):
        trace = trace_of([5.0, 6.5])
        rebased = trace.rebased()
        assert rebased.times_s[0] == 0.0
        assert rebased.times_s[1] == pytest.approx(1.5)
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
        assert record_rows(loaded) == record_rows(trace)
        assert loaded.metadata() == trace.metadata()

    def test_jsonl_round_trip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.jsonl"
        trace.to_jsonl(path)
        loaded = Trace.from_jsonl(path)
        assert record_rows(loaded) == record_rows(trace)
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

    def test_jsonl_bytes_are_pinned(self, tmp_path):
        # Times are written rounded to the microsecond: 0.1 + 0.2 is 0.3.
        trace = Trace.from_arrays(
            [0.0, 0.1 + 0.2, 1.25], [0x100, 0x1FF, 0xFFFF], [1, 0, 1],
            [0, 42, 5000], label="YouTube", category="streaming",
            operator="Lab", cell="c0", day=2, user="victim")
        path = tmp_path / "t.jsonl"
        trace.to_jsonl(path)
        assert path.read_bytes() == (
            b'{"meta": {"label": "YouTube", "category": "streaming", '
            b'"operator": "Lab", "cell": "c0", "day": 2, '
            b'"user": "victim"}}\n'
            b'{"t": 0.0, "rnti": 256, "dir": 1, "tbs": 0}\n'
            b'{"t": 0.3, "rnti": 511, "dir": 0, "tbs": 42}\n'
            b'{"t": 1.25, "rnti": 65535, "dir": 1, "tbs": 5000}\n')

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "npz"])
    @pytest.mark.parametrize("times, tbs", [
        ([0.0, float("nan")], [10, 10]),          # non-finite time
        ([-1.0, 0.5], [10, 10]),                  # negative time
        ([0.0, 0.5], [10, -1]),                   # negative TBS
        ([1.0, 0.5], [10, 10]),                   # out of time order
        ([0.0, 0.5], [10, 2.7]),                  # non-integral TBS
        ([0.0, 0.5], [10, 10 ** 20]),             # TBS wider than int64
    ])
    def test_every_reader_rejects_bad_record_values(self, tmp_path, fmt,
                                                    times, tbs):
        # The serve CLI maps ValueError to exit 2 for every feed format.
        path = tmp_path / f"feed.{fmt}"
        if fmt == "csv":
            path.write_text("time_s,rnti,direction,tbs_bytes\n" + "".join(
                f"{time_s},256,0,{size}\n" for time_s, size in zip(times, tbs)))
            read = Trace.from_csv
        elif fmt == "jsonl":
            path.write_text("".join(
                json.dumps({"t": time_s, "rnti": 256, "dir": 0,
                            "tbs": size}) + "\n"
                for time_s, size in zip(times, tbs)))
            read = Trace.from_jsonl
        else:
            # The NPZ TBS column is int64: a size it cannot hold can
            # only arrive in a column of another dtype.
            sizes = np.asarray(tbs)
            if sizes.dtype != np.int64:
                sizes = sizes.astype(np.float64)
            np.savez(path, times_s=np.asarray(times, dtype=np.float64),
                     rntis=np.full(2, 0x100, dtype=np.uint32),
                     directions=np.zeros(2, dtype=np.uint8),
                     tbs_bytes=sizes, offsets=np.array([0, 2]),
                     meta=np.array(json.dumps([{}])))
            read = TraceSet.from_npz
        with pytest.raises(ValueError):
            read(path)

    @pytest.mark.parametrize("fmt, rnti, direction", [
        (fmt, rnti, direction)
        for rnti, direction in [(-1, 0),          # negative RNTI
                                (0x10000, 0),     # RNTI wider than 16 bits
                                (0x100, 2),       # no Direction
                                (0x100, 300),     # no Direction, not a u1
                                (1.5, 0),         # non-integral RNTI
                                (0x100, 2.7),     # non-integral direction
                                (10 ** 20, 0)]    # RNTI wider than int64
        for fmt in ["csv", "jsonl", "npz"]
        # The NPZ column dtypes (u4, u1) hold only integers in range.
        if fmt in ("csv", "jsonl")
        or (isinstance(rnti, int) and 0 <= rnti < 2 ** 32
            and isinstance(direction, int) and 0 <= direction < 256)])
    def test_every_reader_rejects_bad_identity_fields(self, tmp_path, fmt,
                                                      rnti, direction):
        path = tmp_path / f"feed.{fmt}"
        if fmt == "csv":
            path.write_text("time_s,rnti,direction,tbs_bytes\n"
                            "0.0,256,0,10\n"
                            f"0.5,{rnti},{direction},10\n")
            read = Trace.from_csv
        elif fmt == "jsonl":
            path.write_text(
                '{"t": 0.0, "rnti": 256, "dir": 0, "tbs": 10}\n'
                f'{{"t": 0.5, "rnti": {rnti}, "dir": {direction}, '
                '"tbs": 10}\n')
            read = Trace.from_jsonl
        else:
            TraceSet([Trace.from_arrays(
                [0.0, 0.5], [0x100, rnti], [0, direction], [10, 10],
                validate=False)]).to_npz(path, compressed=False)
            read = TraceSet.from_npz
        with pytest.raises(ValueError, match="rnti|dir"):
            read(path)

    @staticmethod
    def _write_with_metadata(path, fmt, metadata):
        """One two-record capture whose metadata object is ``metadata``."""
        records = [(0.0, 256, 0, 10), (0.5, 256, 1, 10)]
        if fmt == "csv":
            path.write_text(f"# {json.dumps(metadata)}\n"
                            "time_s,rnti,direction,tbs_bytes\n" + "".join(
                                f"{t},{r},{d},{b}\n" for t, r, d, b in records))
            return Trace.from_csv
        if fmt == "jsonl":
            path.write_text(json.dumps({"meta": metadata}) + "\n" + "".join(
                json.dumps({"t": t, "rnti": r, "dir": d, "tbs": b}) + "\n"
                for t, r, d, b in records))
            return Trace.from_jsonl
        np.savez(path, times_s=np.array([0.0, 0.5]),
                 rntis=np.full(2, 256, dtype=np.uint32),
                 directions=np.array([0, 1], dtype=np.uint8),
                 tbs_bytes=np.full(2, 10), offsets=np.array([0, 2]),
                 meta=np.array(json.dumps([metadata])))
        return lambda source: TraceSet.from_npz(source).traces[0]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "npz"])
    @pytest.mark.parametrize("metadata", [
        {"day": [1], "label": "YouTube"},         # was a TypeError
        {"day": {}},                              # was read as day 0
        {"day": True},
        {"day": 1.5},
        {"day": "2"},
        {"label": 5},
        {"category": ["voip"]},
        {"operator": 1.0},
        {"cell": {"id": 0}},
        {"user": False},
    ], ids=repr)
    def test_every_reader_rejects_bad_metadata(self, tmp_path, fmt,
                                               metadata):
        path = tmp_path / f"feed.{fmt}"
        read = self._write_with_metadata(path, fmt, metadata)
        with pytest.raises(ValueError, match=f"{path.name}.*metadata"):
            read(path)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_metadata_that_is_no_object_is_value_error(self, tmp_path, fmt):
        path = tmp_path / f"feed.{fmt}"
        read = self._write_with_metadata(path, fmt, [1, 2])
        with pytest.raises(ValueError, match=f"{path.name}.*JSON object"):
            read(path)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "npz"])
    def test_readers_accept_null_metadata_and_integral_days(self, tmp_path,
                                                            fmt):
        path = tmp_path / f"feed.{fmt}"
        read = self._write_with_metadata(path, fmt, {
            "label": "Skype", "category": None, "operator": None,
            "cell": "c1", "day": 4.0, "user": None})
        loaded = read(path)
        assert (loaded.label, loaded.cell, loaded.day) == ("Skype", "c1", 4)
        assert type(loaded.day) is int
        path = tmp_path / f"null-day.{fmt}"
        read = self._write_with_metadata(path, fmt, {"day": None})
        assert read(path).day == 0

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "npz"])
    def test_readers_accept_the_16_bit_rnti_bounds(self, tmp_path, fmt):
        trace = Trace.from_arrays([0.0, 0.5], [0, 0xFFFF], [0, 1], [1, 1])
        path = tmp_path / f"feed.{fmt}"
        if fmt == "npz":
            TraceSet([trace]).to_npz(path)
            (loaded,) = TraceSet.from_npz(path).traces
        else:
            getattr(trace, f"to_{fmt}")(path)
            loaded = getattr(Trace, f"from_{fmt}")(path)
        assert record_rows(loaded) == record_rows(trace)

    def test_jsonl_null_value_is_value_error(self, tmp_path):
        path = tmp_path / "null.jsonl"
        path.write_text('{"t": 0.5, "rnti": null, "dir": 0, "tbs": 10}\n')
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
        records = [(round(t, 6), rnti, direction, tbs)
                   for t, rnti, direction, tbs in sorted(tuples)]
        trace = Trace.from_arrays(*(zip(*records) if records
                                    else ([], [], [], [])),
                                  label="x", category="voip")
        path = tmp_path_factory.mktemp("rt") / "trace.csv"
        trace.to_csv(path)
        loaded = Trace.from_csv(path)
        assert len(loaded) == len(trace)
        for mine, theirs in zip(record_rows(trace), record_rows(loaded)):
            assert theirs[0] == pytest.approx(mine[0], abs=1e-6)
            assert theirs[1:] == mine[1:]


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
