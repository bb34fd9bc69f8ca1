"""Truncated / corrupted NPZ archives must fail loudly at load time."""

import functools
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.generators import synthetic_trace, synthetic_trace_set
from repro.sniffer.trace import TraceSet


def _rewrite(src, dst, mutate):
    """Copy an NPZ archive through ``mutate(dict)`` and re-save it."""
    with np.load(src) as data:
        arrays = {name: data[name] for name in data.files}
    mutate(arrays)
    np.savez(dst, **arrays)


@pytest.fixture()
def trace_npz(tmp_path):
    """A one-trace set archive."""
    path = tmp_path / "trace.npz"
    TraceSet([synthetic_trace(3, label="app")]).to_npz(path)
    return path


@pytest.fixture()
def set_npz(tmp_path):
    path = tmp_path / "set.npz"
    synthetic_trace_set(3, n_traces=3).to_npz(path)
    return path


class TestTraceFromNpz:
    """A single trace read back from NPZ: a one-trace set archive."""

    def test_roundtrip_is_clean(self, trace_npz):
        (trace,) = TraceSet.from_npz(trace_npz).traces
        assert trace.label == "app"
        assert len(trace) > 0

    def test_truncated_column_rejected(self, trace_npz, tmp_path):
        bad = tmp_path / "bad.npz"
        _rewrite(trace_npz, bad,
                 lambda arrays: arrays.update(
                     times_s=arrays["times_s"][:-3]))
        with pytest.raises(ValueError, match="mismatched lengths"):
            TraceSet.from_npz(bad)

    def test_missing_column_rejected(self, trace_npz, tmp_path):
        bad = tmp_path / "bad.npz"
        _rewrite(trace_npz, bad, lambda arrays: arrays.pop("rntis"))
        with pytest.raises(ValueError, match="missing arrays"):
            TraceSet.from_npz(bad)

    def test_wrong_dtype_rejected(self, trace_npz, tmp_path):
        bad = tmp_path / "bad.npz"
        _rewrite(trace_npz, bad,
                 lambda arrays: arrays.update(
                     rntis=arrays["rntis"].astype(np.int64)))
        with pytest.raises(ValueError, match="dtype"):
            TraceSet.from_npz(bad)

    def test_non_1d_column_rejected(self, trace_npz, tmp_path):
        bad = tmp_path / "bad.npz"
        _rewrite(trace_npz, bad,
                 lambda arrays: arrays.update(
                     tbs_bytes=arrays["tbs_bytes"].reshape(-1, 1)))
        with pytest.raises(ValueError, match="one-dimensional"):
            TraceSet.from_npz(bad)


class TestTraceSetFromNpz:
    def test_roundtrip_is_clean(self, set_npz):
        loaded = TraceSet.from_npz(set_npz)
        assert len(loaded) == 3

    def test_empty_set_roundtrip(self, tmp_path):
        path = tmp_path / "empty.npz"
        TraceSet([]).to_npz(path)
        assert len(TraceSet.from_npz(path)) == 0

    def test_missing_offsets_rejected(self, set_npz, tmp_path):
        bad = tmp_path / "bad.npz"
        _rewrite(set_npz, bad, lambda arrays: arrays.pop("offsets"))
        with pytest.raises(ValueError, match="missing arrays"):
            TraceSet.from_npz(bad)

    def test_offsets_meta_disagreement_rejected(self, set_npz, tmp_path):
        bad = tmp_path / "bad.npz"
        _rewrite(set_npz, bad,
                 lambda arrays: arrays.update(
                     offsets=arrays["offsets"][:-1]))
        with pytest.raises(ValueError, match="metadata entries"):
            TraceSet.from_npz(bad)

    def test_truncated_records_rejected(self, set_npz, tmp_path):
        # Shorten every record column consistently: the per-column
        # length check passes, only the offsets cross-check can catch it.
        def chop(arrays):
            for name in ("times_s", "rntis", "directions", "tbs_bytes"):
                arrays[name] = arrays[name][:-2]

        bad = tmp_path / "bad.npz"
        _rewrite(set_npz, bad, chop)
        with pytest.raises(ValueError, match="truncated archive"):
            TraceSet.from_npz(bad)

    def test_decreasing_offsets_rejected(self, set_npz, tmp_path):
        def scramble(arrays):
            offsets = arrays["offsets"].copy()
            offsets[1], offsets[2] = offsets[2], offsets[1] + 10 ** 6
            arrays["offsets"] = offsets

        bad = tmp_path / "bad.npz"
        _rewrite(set_npz, bad, scramble)
        with pytest.raises(ValueError, match="non-decreasing"):
            TraceSet.from_npz(bad)

    def test_nonzero_first_offset_rejected(self, set_npz, tmp_path):
        def shift(arrays):
            arrays["offsets"] = arrays["offsets"] + 1

        bad = tmp_path / "bad.npz"
        _rewrite(set_npz, bad, shift)
        with pytest.raises(ValueError, match="start at 0"):
            TraceSet.from_npz(bad)

    def test_wrong_offsets_dtype_rejected(self, set_npz, tmp_path):
        bad = tmp_path / "bad.npz"
        def narrow(arrays):
            # The narrowing cast is the corruption under test.
            cast = arrays["offsets"].astype(np.int32)  # repro: noqa[NUM003]
            arrays["offsets"] = cast

        _rewrite(set_npz, bad, narrow)
        with pytest.raises(ValueError, match="dtype"):
            TraceSet.from_npz(bad)

    def test_error_names_the_file(self, set_npz, tmp_path):
        bad = tmp_path / "named.npz"
        _rewrite(set_npz, bad, lambda arrays: arrays.pop("meta"))
        with pytest.raises(ValueError, match="named.npz"):
            TraceSet.from_npz(bad)


class TestRecordChecks:
    """The set reader applies the record contract of every other reader
    (``check_record_fields`` and ``from_arrays(validate=True)``)."""

    @staticmethod
    def _save(path, times, rntis, directions, offsets=None):
        count = len(times)
        offsets = [0, count] if offsets is None else offsets
        np.savez(path, times_s=np.asarray(times, dtype=np.float64),
                 rntis=np.asarray(rntis, dtype=np.uint32),
                 directions=np.asarray(directions, dtype=np.uint8),
                 tbs_bytes=np.full(count, 10, dtype=np.int64),
                 offsets=np.asarray(offsets, dtype=np.int64),
                 meta=np.array(json.dumps([{}] * (len(offsets) - 1))))
        return path

    @pytest.mark.parametrize("times, rntis, directions, match", [
        ([0.0, 0.5], [0x100, 0x10000], [0, 1], "rnti"),
        ([0.0, 0.5], [0x100, 0x100], [0, 2], "dir"),
        ([1.0, 0.5], [0x100, 0x100], [0, 1], "time order"),
        ([0.0, float("nan")], [0x100, 0x100], [0, 1], "finite"),
        ([-1.0, 0.5], [0x100, 0x100], [0, 1], ">= 0"),
    ])
    def test_bad_record_rejected_naming_the_file(self, tmp_path, times,
                                                 rntis, directions, match):
        bad = self._save(tmp_path / "named.npz", times, rntis, directions)
        with pytest.raises(ValueError, match=match) as excinfo:
            TraceSet.from_npz(bad)
        assert "named.npz" in str(excinfo.value)

    def test_time_order_is_per_trace(self, tmp_path):
        # Each trace starts its own clock: a time may fall back only
        # where a trace starts.
        path = self._save(tmp_path / "set.npz", [0.0, 2.0, 1.0, 3.0],
                          [0x100] * 4, [0, 1, 0, 1], offsets=[0, 2, 4])
        loaded = TraceSet.from_npz(path)
        assert [len(trace) for trace in loaded] == [2, 2]
        bad = self._save(tmp_path / "bad.npz", [0.0, 2.0, 1.0, 3.0],
                         [0x100] * 4, [0, 1, 0, 1], offsets=[0, 1, 4])
        with pytest.raises(ValueError, match="trace 1: records must be "
                                             "in time order"):
            TraceSet.from_npz(bad)

    @pytest.mark.parametrize("size", [0, 22, 300])
    def test_truncated_archive_rejected(self, set_npz, tmp_path, size):
        bad = tmp_path / "cut.npz"
        bad.write_bytes(set_npz.read_bytes()[:size])
        with pytest.raises(ValueError, match="cut.npz"):
            TraceSet.from_npz(bad)

    def test_foreign_file_rejected(self, tmp_path):
        for name, payload in [("text.npz", b"time_s,rnti\n0.0,1\n"),
                              ("bare.npz", None)]:
            bad = tmp_path / name
            if payload is None:
                with bad.open("wb") as handle:
                    np.save(handle, np.arange(3))
            else:
                bad.write_bytes(payload)
            with pytest.raises(ValueError, match=name):
                TraceSet.from_npz(bad)


def test_missing_file_is_not_found(tmp_path):
    # The trace cache tells a miss from a torn entry by this exception.
    with pytest.raises(FileNotFoundError):
        TraceSet.from_npz(tmp_path / "absent.npz")


# -- corrupt bytes -----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _archive(compressed):
    """A valid three-trace set archive's bytes."""
    buffer = io.BytesIO()
    synthetic_trace_set(3, n_traces=3).to_npz(buffer, compressed=compressed)
    return buffer.getvalue()


#: ZIP record signatures and fixed-part lengths: local file header,
#: central directory entry, end of central directory.
_ZIP_RECORDS = ((b"PK\x03\x04", 30), (b"PK\x01\x02", 46), (b"PK\x05\x06", 22))


@functools.lru_cache(maxsize=None)
def _header_positions(compressed):
    """Byte positions inside the archive's ZIP records, where one
    mutation reaches the flag bits, compression method, version, sizes
    and offsets that a uniform draw over the whole file rarely hits."""
    raw = _archive(compressed)
    positions = set()
    for signature, length in _ZIP_RECORDS:
        start = raw.find(signature)
        while start >= 0:
            positions.update(range(start, min(start + length, len(raw))))
            start = raw.find(signature, start + 1)
    return sorted(positions)


@pytest.mark.parametrize("compressed", [False, True])
@pytest.mark.parametrize("offset, value", [
    (10, 1),       # compression method: shrunk, which zipfile lacks
    (10, 12),      # bzip2 over stored or deflated bytes
    (10, 14),      # LZMA over stored or deflated bytes
    (10, 99),      # AES
    (8, 0x01),     # flag bits: encrypted
    (8, 0x20),     # flag bits: compressed patched data
    (8, 0x40),     # flag bits: strong encryption
    (6, 0xFF),     # version needed to extract: 25.5
])
def test_unreadable_member_rejected(tmp_path, compressed, offset, value):
    # One field of the first central directory entry.
    data = bytearray(_archive(compressed))
    entry = data.find(b"PK\x01\x02")
    data[entry + offset] = value
    bad = tmp_path / "member.npz"
    bad.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="member.npz"):
        TraceSet.from_npz(bad)


@st.composite
def _corrupt_archives(draw):
    kind = draw(st.sampled_from(["mutated", "truncated", "random"]))
    if kind == "random":
        return draw(st.binary(max_size=512))
    compressed = draw(st.booleans())
    raw = _archive(compressed)
    if kind == "truncated":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    data = bytearray(raw)
    anywhere = st.integers(0, len(data) - 1)
    in_header = st.sampled_from(_header_positions(compressed))
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.one_of(in_header, anywhere))] = draw(
            st.integers(0, 255))
    return bytes(data)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_corrupt_archives())
def test_corrupt_bytes_raise_value_error_or_load(tmp_path, payload):
    # Whatever the bytes, the reader either loads a set that passed
    # every check or raises the file-naming ValueError the CLI maps to
    # exit 2: no zipfile, decompressor or numpy exception escapes.
    path = tmp_path / "fuzz.npz"
    path.write_bytes(payload)
    try:
        loaded = TraceSet.from_npz(path)
    except ValueError as exc:
        assert "fuzz.npz" in str(exc)
    else:
        assert isinstance(loaded, TraceSet)
