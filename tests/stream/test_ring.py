"""Tests for the compacting columnar ring buffer."""

import numpy as np
import pytest

from repro.sniffer.trace import (DIR_DTYPE, RNTI_DTYPE, TBS_DTYPE,
                                 TIME_DTYPE)
from repro.stream import ColumnRing


def _chunk(times, tbs=None):
    times = np.asarray(times, dtype=TIME_DTYPE)
    n = len(times)
    tbs_values = (np.asarray(tbs, dtype=TBS_DTYPE) if tbs is not None
                  else np.arange(n, dtype=TBS_DTYPE) * 10)
    return (times, np.full(n, 0x100, dtype=RNTI_DTYPE),
            np.zeros(n, dtype=DIR_DTYPE), tbs_values)


class TestColumnRing:
    def test_append_and_views(self):
        ring = ColumnRing()
        ring.append(*_chunk([0.0, 0.1, 0.2]))
        ring.append(*_chunk([0.3, 0.4]))
        assert len(ring) == 5
        assert ring.base == 0
        assert ring.end == 5
        assert np.array_equal(ring.times, [0.0, 0.1, 0.2, 0.3, 0.4])

    def test_prefix_matches_global_cumsum(self):
        rng = np.random.default_rng(3)
        tbs = rng.integers(0, 5000, 300)
        ring = ColumnRing()
        cursor = 0
        for size in (1, 7, 50, 242):
            take = min(size, 300 - cursor)
            times = np.arange(cursor, cursor + take, dtype=TIME_DTYPE)
            ring.append(*_chunk(times, tbs[cursor:cursor + take]))
            cursor += take
        reference = np.concatenate(
            [[0.0], np.cumsum(tbs[:cursor].astype(np.float64))])
        queried = ring.prefix_at(np.arange(cursor + 1))
        assert np.array_equal(queried, reference)

    def test_prune_preserves_absolute_indexing_and_prefix(self):
        tbs = np.arange(1, 101, dtype=TBS_DTYPE)
        ring = ColumnRing()
        ring.append(*_chunk(np.arange(100, dtype=TIME_DTYPE), tbs))
        reference = np.concatenate(
            [[0.0], np.cumsum(tbs.astype(np.float64))])
        assert ring.prune_below(40) == 40
        assert ring.base == 40
        assert ring.end == 100
        assert np.array_equal(ring.times, np.arange(40, 100))
        assert np.array_equal(ring.prefix_at(np.arange(40, 101)),
                              reference[40:])
        # Pruning below the base is a no-op.
        assert ring.prune_below(10) == 0

    def test_growth_and_high_water(self):
        # Grows 4 -> 8 -> 16, prunes after every append; the prefix
        # reads stay exact across each grow and prune.
        tbs = (np.arange(64, dtype=TBS_DTYPE) * 37) % 1500
        reference = np.concatenate(
            [[0.0], np.cumsum(tbs.astype(np.float64))])
        ring = ColumnRing(capacity=4)
        for start in range(0, 64, 8):
            ring.append(*_chunk(np.arange(start, start + 8,
                                          dtype=TIME_DTYPE),
                                tbs[start:start + 8]))
            assert np.array_equal(
                ring.prefix_at(np.arange(ring.base, ring.end + 1)),
                reference[ring.base:ring.end + 1])
            ring.prune_below(ring.end - 8 if start else 3)
            assert np.array_equal(
                ring.prefix_at(np.arange(ring.base, ring.end + 1)),
                reference[ring.base:ring.end + 1])
        assert ring.high_water <= 16
        assert len(ring) == 8

    def test_empty_append_is_noop(self):
        ring = ColumnRing()
        ring.append(*_chunk([]))
        assert len(ring) == 0
        assert ring.total_prefix == 0.0

    def test_total_prefix_carries_across_prune(self):
        ring = ColumnRing()
        ring.append(*_chunk([0.0, 1.0], [100, 200]))
        ring.prune_below(2)
        assert len(ring) == 0
        assert ring.total_prefix == pytest.approx(300.0)
        ring.append(*_chunk([2.0], [50]))
        assert ring.total_prefix == pytest.approx(350.0)
