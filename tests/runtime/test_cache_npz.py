"""Trace cache entries persist as TraceSet NPZ and read back equal."""

import numpy as np
import pytest

from repro.runtime.cache import TraceCache
from repro.sniffer.trace import Trace, TraceSet


def _trace(n=1_000):
    index = np.arange(n)
    return Trace.from_arrays(index * 1e-3, np.full(n, 0x0070),
                             np.ones(n), 100 + index, label="Netflix",
                             cell="c0", day=2)


@pytest.fixture
def cache(tmp_path):
    return TraceCache(tmp_path, fingerprint="test")


def test_trace_values_stored_as_npz(cache, tmp_path):
    key = cache.key(kind="trace", app="Netflix")
    cache.put(key, TraceSet([_trace()]))
    assert [path.name for path in tmp_path.iterdir()] == [f"{key}.npz"]


def test_trace_hit_is_equal(cache):
    trace = _trace()
    key = cache.key(kind="trace")
    cache.put(key, TraceSet([trace]))
    (hit,) = cache.get(key)
    for name in ("times_s", "rntis", "directions", "tbs_bytes"):
        assert np.array_equal(getattr(hit, name), getattr(trace, name))
    assert hit.label == "Netflix" and hit.cell == "c0" and hit.day == 2
    assert cache.stats.hits == 1


def test_pair_values_stored_as_one_npz(cache, tmp_path):
    pair = TraceSet([_trace(100), _trace(60)])
    key = cache.key(kind="pair")
    cache.put(key, pair)
    assert [path.name for path in tmp_path.iterdir()] == [f"{key}.npz"]
    hit = cache.get(key)
    assert [len(leg) for leg in hit] == [100, 60]
    for leg, original in zip(hit, pair):
        assert np.array_equal(leg.times_s, original.times_s)


def test_torn_npz_entry_is_a_miss_and_removed(cache, tmp_path):
    key = cache.key(kind="torn")
    (tmp_path / f"{key}.npz").write_bytes(b"this is not an archive")
    assert cache.get(key) is None
    assert cache.stats.misses == 1
    assert not (tmp_path / f"{key}.npz").exists()


def test_npz_entries_participate_in_lru_accounting(cache, tmp_path):
    cache.put(cache.key(kind="a"), TraceSet([_trace(500)]))
    # A pickle entry written by an older version: never read, but
    # counted, evicted and cleared like any other entry.
    (tmp_path / "legacy.pkl").write_bytes(b"\x80\x05N.")
    assert cache.get("legacy") is None
    entries = cache.entries()
    assert len(entries) == 2
    suffixes = sorted(path.suffix for path, _, _ in entries)
    assert suffixes == [".npz", ".pkl"]
    assert cache.total_bytes() > 0
    assert cache.clear() == 2
