"""The on-disk trace cache: correctness, invalidation, bounds, stats."""

import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import runtime
from repro.core.dataset import (PairSpec, collect_pairs, collect_trace,
                                collect_traces)
from repro.operators import LAB, TMOBILE
from repro.runtime.cache import (TraceCache, cache_enabled_from_env,
                                 code_fingerprint, fingerprinted_files,
                                 max_bytes_from_env)
from repro.sniffer.trace import Trace, TraceSet
from tests.traces import record_rows


def _set(label, n=4):
    """A one-member TraceSet whose label tells entries apart."""
    index = np.arange(n)
    return TraceSet([Trace.from_arrays(index * 1e-3, np.full(n, 0x0070),
                                       np.ones(n), 100 + index,
                                       label=label)])


def _label(value):
    return value.traces[0].label


@pytest.fixture()
def cached(tmp_path):
    """Scope the runtime to a fresh cache directory with clean counters."""
    with runtime.overrides(cache_enabled=True, cache_dir=tmp_path):
        runtime.reset_stats()
        yield tmp_path


class TestTraceCacheUnit:
    def test_roundtrip(self, tmp_path):
        cache = TraceCache(tmp_path, fingerprint="v1")
        key = cache.key(kind="trace", app="YouTube", seed=3)
        assert cache.get(key) is None
        cache.put(key, _set("payload"))
        assert _label(cache.get(key)) == "payload"
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_key_covers_every_field(self, tmp_path):
        cache = TraceCache(tmp_path, fingerprint="v1")
        base = dict(kind="trace", app="YouTube", operator=repr(LAB),
                    duration_s=10.0, seed=3, day=0, background_count=0)
        key = cache.key(**base)
        for field, other in [("app", "Skype"), ("operator", repr(TMOBILE)),
                             ("duration_s", 20.0), ("seed", 4), ("day", 1),
                             ("background_count", 5)]:
            assert cache.key(**{**base, field: other}) != key

    def test_fingerprint_change_invalidates(self, tmp_path):
        old = TraceCache(tmp_path, fingerprint="code-v1")
        old.put(old.key(kind="trace", seed=1), _set("stale"))
        new = TraceCache(tmp_path, fingerprint="code-v2")
        # Same parameters, new simulator code: must be a miss.
        assert new.get(new.key(kind="trace", seed=1)) is None
        # The old code version still finds its own entry.
        assert _label(old.get(old.key(kind="trace", seed=1))) == "stale"

    def test_code_fingerprint_is_stable_hex(self):
        first = code_fingerprint()
        assert first == code_fingerprint()
        assert len(first) == 64
        int(first, 16)

    def test_fingerprint_covers_every_source_file(self):
        package = Path(repro.__file__).resolve().parent
        assert fingerprinted_files() == sorted(package.rglob("*.py"))

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = TraceCache(tmp_path, fingerprint="v1")
        key = cache.key(seed=9)
        cache.put(key, _set("fine"))
        path = cache._path(key)
        path.write_bytes(b"\x80 torn write")
        assert cache.get(key) is None
        assert not path.exists()

    def test_lru_eviction_keeps_newest(self, tmp_path):
        payload = _set("x", n=64)
        probe = TraceCache(tmp_path / "probe", fingerprint="v1")
        probe.put("size", payload)
        bound = 3 * probe.total_bytes() + 32
        cache = TraceCache(tmp_path / "lru", max_bytes=bound,
                           fingerprint="v1")
        keys = [cache.key(seed=i) for i in range(8)]
        for index, key in enumerate(keys):
            cache.put(key, payload)
            # Deterministic recency even on coarse-mtime filesystems.
            os.utime(cache._path(key), (1000 + index, 1000 + index))
        assert cache.stats.evictions > 0
        assert cache.total_bytes() <= bound
        # The most recently stored entry always survives.
        assert cache.get(keys[-1]) is not None

    def test_clear_empties_directory(self, tmp_path):
        cache = TraceCache(tmp_path, fingerprint="v1")
        for seed in range(3):
            cache.put(cache.key(seed=seed), _set(str(seed)))
        assert cache.clear() == 3
        assert cache.entries() == []

    def test_invalid_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TraceCache(tmp_path, max_bytes=0)

    def test_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert cache_enabled_from_env() is False
        monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
        assert cache_enabled_from_env() is True
        monkeypatch.setenv("REPRO_TRACE_CACHE_MB", "2")
        assert max_bytes_from_env() == 2 << 20
        monkeypatch.setenv("REPRO_TRACE_CACHE_MB", "lots")
        with pytest.raises(ValueError):
            max_bytes_from_env()


class TestPipelineCaching:
    def test_hit_equals_fresh_simulation(self, cached):
        kwargs = dict(operator=LAB, duration_s=8.0, seed=5)
        fresh = collect_trace("YouTube", **kwargs)
        again = collect_trace("YouTube", **kwargs)
        assert record_rows(again) == record_rows(fresh)
        assert (again.label, again.category, again.operator) == \
               (fresh.label, fresh.category, fresh.operator)
        stats = runtime.stats()
        assert stats.simulations == 1
        assert stats.cache.hits == 1
        with runtime.overrides(cache_enabled=False):
            uncached = collect_trace("YouTube", **kwargs)
        assert record_rows(uncached) == record_rows(fresh)

    def test_warm_rerun_simulates_nothing(self, cached):
        kwargs = dict(operator=LAB, traces_per_app=2, duration_s=8.0,
                      seed=13)
        cold = collect_traces(["YouTube", "Skype"], **kwargs)
        after_cold = runtime.stats().simulations
        assert after_cold == 4
        warm = collect_traces(["YouTube", "Skype"], **kwargs)
        assert runtime.stats().simulations == after_cold    # zero new sims
        assert runtime.stats().cache.hits == 4
        for a, b in zip(cold, warm):
            assert record_rows(a) == record_rows(b)

    def test_pairs_cached(self, cached):
        specs = [PairSpec(app_name="WhatsApp", kind="chat", operator=LAB,
                          duration_s=8.0, seed=60 + i) for i in range(2)]
        cold = collect_pairs(specs)
        assert runtime.stats().simulations == 2
        warm = collect_pairs(specs)
        assert runtime.stats().simulations == 2
        for (a1, b1), (a2, b2) in zip(cold, warm):
            assert record_rows(a1) == record_rows(a2)
            assert record_rows(b1) == record_rows(b2)

    def test_trace_and_pair_keyspaces_disjoint(self, cached):
        # A single trace and a pair with identical parameters must not
        # collide in the cache.
        collect_trace("WhatsApp", operator=LAB, duration_s=8.0, seed=77)
        pair = collect_pairs([PairSpec(app_name="WhatsApp", kind="chat",
                                       operator=LAB, duration_s=8.0,
                                       seed=77)])[0]
        assert isinstance(pair, tuple) and len(pair) == 2

    def test_stats_as_dict(self, cached):
        collect_trace("Skype", operator=LAB, duration_s=8.0, seed=91)
        snapshot = runtime.stats().as_dict()
        assert snapshot["simulations"] == 1
        assert snapshot["misses"] == 1
        assert snapshot["stores"] == 1

    def test_disabled_cache_writes_nothing(self, tmp_path):
        with runtime.overrides(cache_enabled=False, cache_dir=tmp_path):
            collect_trace("YouTube", operator=LAB, duration_s=8.0, seed=3)
        assert list(tmp_path.iterdir()) == []


class TestLRURecency:
    """Regression: entries() order is the documented LRU eviction order."""

    def test_entries_sorted_by_mtime_then_name(self, tmp_path):
        cache = TraceCache(tmp_path, fingerprint="v1")
        for name in ("bb", "aa", "cc"):
            cache.put(name, _set(name))
        # Force one shared timestamp: ties must break by filename.
        for path, _, _ in cache.entries():
            os.utime(path, (1000.0, 1000.0))
        names = [path.name for path, _, _ in cache.entries()]
        assert names == sorted(names)

    def test_get_bumps_recency_via_mtime(self, tmp_path):
        cache = TraceCache(tmp_path, fingerprint="v1")
        cache.put("old", _set("old"))
        cache.put("new", _set("new"))
        for path, _, _ in cache.entries():
            os.utime(path, (1000.0, 1000.0))
        assert _label(cache.get("old")) == "old"  # bump: now most recent
        names = [path.name for path, _, _ in cache.entries()]
        assert names[-1] == "old.npz"

    def test_eviction_follows_recency_not_insertion(self, tmp_path):
        payload = _set("x", n=16)
        cache = TraceCache(tmp_path, fingerprint="v1")
        cache.put("first", payload)
        entry = cache.total_bytes()
        cache.put("second", payload)
        cache.max_bytes = 3 * entry + 16
        # Age both, then touch "first" so "second" is the LRU victim.
        for path, _, _ in cache.entries():
            os.utime(path, (1000.0, 1000.0))
        assert cache.get("first") is not None
        cache.put("third", _set("y", n=48))
        names = {path.name for path, _, _ in cache.entries()}
        assert "first.npz" in names
        assert "second.npz" not in names
