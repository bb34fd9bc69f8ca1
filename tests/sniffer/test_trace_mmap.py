"""Zero-copy NPZ: ``TraceSet.from_npz(mmap_mode=...)`` maps columns."""

import numpy as np
import pytest

from repro.sniffer.trace import Trace, TraceSet


def _mmap_backed(array):
    """True when the array's memory is a view into an ``np.memmap``."""
    node = array
    while node is not None:
        if isinstance(node, np.memmap):
            return True
        node = node.base
    return False


def _large_trace(n=5_000, **metadata):
    index = np.arange(n)
    return Trace.from_arrays(index * 1e-3, np.full(n, 0x0070), index % 2,
                             57 + index % 311, **metadata)


COLUMNS = ("times_s", "rntis", "directions", "tbs_bytes")


def _save_one(trace, path, compressed):
    TraceSet([trace]).to_npz(path, compressed=compressed)


def _load_one(path, mmap_mode=None):
    (trace,) = TraceSet.from_npz(path, mmap_mode=mmap_mode).traces
    return trace


def test_from_npz_mmap_does_not_copy_columns(tmp_path):
    path = tmp_path / "trace.npz"
    trace = _large_trace(label="Netflix", cell="c0", day=3)
    _save_one(trace, path, compressed=False)
    mapped = _load_one(path, mmap_mode="r")
    for name in COLUMNS:
        original = getattr(trace, name)
        column = getattr(mapped, name)
        assert np.array_equal(column, original)
        assert column.dtype == original.dtype
        assert _mmap_backed(column), f"{name} was copied, not mapped"
    assert mapped.label == "Netflix"
    assert mapped.cell == "c0"
    assert mapped.day == 3


def test_from_npz_compressed_falls_back_to_copy(tmp_path):
    path = tmp_path / "trace.npz"
    trace = _large_trace(n=500)
    _save_one(trace, path, compressed=True)   # deflated: not mappable
    loaded = _load_one(path, mmap_mode="r")
    for name in COLUMNS:
        assert np.array_equal(getattr(loaded, name), getattr(trace, name))
        assert not _mmap_backed(getattr(loaded, name))


def test_from_npz_without_mmap_mode_is_unchanged(tmp_path):
    path = tmp_path / "trace.npz"
    trace = _large_trace(n=300)
    _save_one(trace, path, compressed=False)
    loaded = _load_one(path)
    for name in COLUMNS:
        assert np.array_equal(getattr(loaded, name), getattr(trace, name))
        assert not _mmap_backed(getattr(loaded, name))


def test_traceset_from_npz_mmap_round_trip(tmp_path):
    path = tmp_path / "set.npz"
    traces = TraceSet([_large_trace(n=1_000, label="A", day=1),
                       Trace(label="empty"),
                       _large_trace(n=2_000, label="B", day=2)])
    traces.to_npz(path, compressed=False)
    mapped = TraceSet.from_npz(path, mmap_mode="r")
    assert len(mapped.traces) == 3
    assert [t.label for t in mapped.traces] == ["A", "empty", "B"]
    for original, loaded in zip(traces.traces, mapped.traces):
        for name in COLUMNS:
            assert np.array_equal(getattr(loaded, name),
                                  getattr(original, name))
            if len(loaded):
                assert _mmap_backed(getattr(loaded, name))


def test_mmap_mode_rejects_writable_maps(tmp_path):
    path = tmp_path / "trace.npz"
    _save_one(_large_trace(n=100), path, compressed=False)
    mapped = _load_one(path, mmap_mode="r")
    with pytest.raises((ValueError, OSError)):
        mapped.times_s[0] = -1.0
