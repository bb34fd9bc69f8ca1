"""Golden equivalence: streaming windowizer vs one-shot extract_features.

The tentpole guarantee: streaming a trace through
:class:`StreamingWindowizer` in *any* chunking — including one record
at a time — yields a feature matrix ``np.array_equal`` to the batch
:func:`extract_features`, while the ring retains only a bounded
suffix of the stream.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.features import (N_FEATURES, WindowConfig,
                                 extract_features)
from repro.faults.generators import bursty_trace, synthetic_trace
from repro.lte.dci import Direction
from repro.sniffer.trace import Trace
from repro.stream import StreamingWindowizer
from tests.core.test_columnar_golden import (CONFIGS, EDGE_RNTIS,
                                             random_trace)

CHUNKINGS = [1, 3, 17, 1000]

GATED_CONFIGS = [WindowConfig(min_frames=3),
                 WindowConfig(gap_threshold_s=0.4),
                 WindowConfig(stride_ms=25.0, min_frames=2,
                              gap_threshold_s=0.6),
                 WindowConfig(window_ms=7000.0)]


def sparse_trace():
    """Records 0.37 s / 0.61 s apart: every window holds one record, and
    bursts (split at >0.5 s silences) hold two."""
    times = np.cumsum(np.tile([0.37, 0.61], 30))
    n = len(times)
    return Trace.from_arrays(times, np.full(n, 0x100), np.arange(n) % 2,
                             (np.arange(n) * 37) % 1500)


def stream_features(trace, config, chunk_records):
    windowizer = StreamingWindowizer(config)
    closed = []
    for chunk in trace.iter_chunks(chunk_records):
        closed.append(windowizer.ingest(*chunk))
    closed.append(windowizer.finish())
    rows = [batch.rows for batch in closed if len(batch)]
    if not rows:
        return (np.empty((0, N_FEATURES), dtype=np.float64), windowizer)
    return np.concatenate(rows, axis=0), windowizer


class TestStreamingEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("config", CONFIGS)
    def test_golden_traces_bit_identical(self, seed, config):
        trace = random_trace(seed, duplicates=(seed % 2 == 0))
        expected = extract_features(trace, config)
        for chunk_records in CHUNKINGS:
            actual, _ = stream_features(trace, config, chunk_records)
            assert actual.shape == expected.shape
            assert np.array_equal(actual, expected), \
                (chunk_records, np.argwhere(actual != expected)[:5])

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("config", GATED_CONFIGS)
    def test_gated_configs_bit_identical(self, seed, config):
        trace = random_trace(seed, n=400, duplicates=True)
        expected = extract_features(trace, config)
        for chunk_records in CHUNKINGS:
            actual, _ = stream_features(trace, config, chunk_records)
            assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("maker", [
        lambda: synthetic_trace(11, n_records=600, duration_s=30.0),
        lambda: bursty_trace(12, n_bursts=5),
        sparse_trace,
        lambda: random_trace(3, n=800, duplicates=True, rntis=EDGE_RNTIS),
    ])
    def test_generator_traces_bit_identical(self, maker):
        trace = maker()
        config = WindowConfig(stride_ms=50.0, gap_threshold_s=1.0)
        expected = extract_features(trace, config)
        for chunk_records in (1, 64):
            actual, _ = stream_features(trace, config, chunk_records)
            assert np.array_equal(actual, expected)

    # WindowConfig(window_ms=7000) sets no gate, so it invalidates none.
    @pytest.mark.parametrize("config", [
        config for config in GATED_CONFIGS
        if config.min_frames > 1 or config.gap_threshold_s is not None])
    def test_invalidated_windows_counted_alike(self, config):
        trace = bursty_trace(12, n_bursts=5)
        columns = (trace.times_s, trace.rntis, trace.directions,
                   trace.tbs_bytes)

        def stream():
            windowizer = StreamingWindowizer(config)
            cuts = np.cumsum(np.resize([1, 7, 23, 64], len(trace)))
            start = 0
            for end in cuts[cuts < len(trace)].tolist() + [len(trace)]:
                windowizer.ingest(*(column[start:end] for column in columns))
                start = end
            windowizer.finish()

        def invalidated(run):
            obs.reset()
            try:
                with obs.override(True):
                    run()
                return obs.snapshot()["counters"].get(
                    "features.windows_invalidated", 0)
            finally:
                obs.reset()

        batch = invalidated(lambda: extract_features(trace, config))
        assert batch > 0
        assert invalidated(stream) == batch

    def test_window_bounds_match_grid(self):
        trace = random_trace(3, n=300)
        config = WindowConfig(stride_ms=40.0)
        windowizer = StreamingWindowizer(config)
        batches = [windowizer.ingest(*chunk)
                   for chunk in trace.iter_chunks(32)]
        batches.append(windowizer.finish())
        starts = np.concatenate(
            [batch.win_start_s for batch in batches if len(batch)])
        ends = np.concatenate(
            [batch.win_end_s for batch in batches if len(batch)])
        assert np.all(np.diff(starts) > 0)       # grid order, no dups
        assert np.allclose(ends - starts, 0.1)
        assert len(starts) == len(extract_features(trace, config))

    def test_lag_is_event_time_and_nonnegative(self):
        trace = random_trace(2, n=200)
        windowizer = StreamingWindowizer(WindowConfig())
        for chunk in trace.iter_chunks(16):
            batch = windowizer.ingest(*chunk)
            assert np.all(batch.lag_s >= 0.0)


class TestBoundedMemory:
    def test_ring_stays_bounded_on_long_stream(self):
        # 60 000 records over 600 s at constant rate: the resolution
        # horizon trails the clock by ~5.05 s, so the live suffix is a
        # few hundred records — never the whole stream.
        n = 60_000
        times = np.arange(n, dtype=np.float64) * 0.01
        rntis = np.full(n, 0x100, dtype=np.uint32)
        directions = (np.arange(n) % 2).astype(np.uint8)
        tbs = ((np.arange(n) * 37) % 1500).astype(np.int64)
        trace = Trace.from_arrays(times, rntis, directions, tbs,
                                  validate=False)
        expected = extract_features(trace, WindowConfig())
        windowizer = StreamingWindowizer(WindowConfig())
        rows = []
        for chunk in trace.iter_chunks(512):
            batch = windowizer.ingest(*chunk)
            if len(batch):
                rows.append(batch.rows)
        final = windowizer.finish()
        if len(final):
            rows.append(final.rows)
        actual = np.concatenate(rows, axis=0)
        assert np.array_equal(actual, expected)
        # Bounded: high water stays within a small multiple of the
        # horizon (~505 records at this rate + one 512-record chunk).
        assert windowizer.ring_high_water < 1_200
        assert windowizer.ring_high_water < n // 40

    def test_occupancy_properties_exposed(self):
        windowizer = StreamingWindowizer(WindowConfig())
        trace = random_trace(1, n=100)
        for chunk in trace.iter_chunks(10):
            windowizer.ingest(*chunk)
        assert windowizer.ring_occupancy >= 0
        assert windowizer.ring_high_water >= windowizer.ring_occupancy
        assert windowizer.ring_nbytes > 0
        assert windowizer.backlog >= 0


class TestIngestContract:
    def test_out_of_order_within_chunk_is_reordered(self):
        trace = random_trace(4, n=120)
        config = WindowConfig()
        expected = extract_features(trace, config)
        windowizer = StreamingWindowizer(config)
        rows = []
        rng = np.random.default_rng(9)
        for times, rntis, directions, tbs in trace.iter_chunks(30):
            order = rng.permutation(len(times))
            batch = windowizer.ingest(times[order], rntis[order],
                                      directions[order], tbs[order])
            if len(batch):
                rows.append(batch.rows)
        final = windowizer.finish()
        if len(final):
            rows.append(final.rows)
        assert windowizer.chunks_reordered > 0
        assert np.array_equal(np.concatenate(rows, axis=0), expected)

    def test_cross_chunk_regression_rejected(self):
        windowizer = StreamingWindowizer(WindowConfig())
        def one_record(time_s):
            return Trace.from_arrays([time_s], [0x100],
                                     [Direction.DOWNLINK], [10])

        windowizer.ingest_trace(one_record(1.0))
        with pytest.raises(ValueError):
            windowizer.ingest_trace(one_record(0.5))
        # The failed chunk must not have corrupted state.
        windowizer.ingest_trace(one_record(2.0))

    @pytest.mark.parametrize("times, tbs", [
        ([2.1, 2.2, float("nan")], [10, 10, 10]),   # chunk ending in NaN
        ([2.1, float("inf")], [10, 10]),
        ([float("-inf"), 2.1], [10, 10]),
        ([2.1, 2.2], [10, -5]),                     # negative TBS
    ])
    def test_bad_chunk_rejected_before_state_changes(self, times, tbs):
        trace = random_trace(8, n=300, tmax=6.0)
        head = trace.time_sliced(0.0, 2.0)
        tail = trace.time_sliced(2.3, 6.0)
        config = WindowConfig(gap_threshold_s=0.05)
        windowizer = StreamingWindowizer(config)
        rows = [windowizer.ingest_trace(head).rows]

        def state():
            return (windowizer.records_seen, windowizer.records_kept,
                    windowizer.windows_closed, windowizer.backlog,
                    windowizer.ring_occupancy, windowizer.ring_high_water)

        before = state()
        n = len(times)
        with pytest.raises(ValueError):
            windowizer.ingest(times, [0x100] * n, [0] * n, tbs)
        assert state() == before
        # The clock is intact: later chunks close windows as if the bad
        # chunk never arrived.
        for chunk in tail.iter_chunks(25):
            rows.append(windowizer.ingest(*chunk).rows)
        rows.append(windowizer.finish().rows)
        expected = extract_features(Trace.merged([head, tail]), config)
        assert np.array_equal(np.concatenate(rows, axis=0), expected)

    def test_open_burst_defers_rows_across_chunks(self):
        # Burst A: a record every 10 ms over [0, 3); 0.7 s of silence;
        # burst B: every 10 ms from 3.7 s on.
        times = np.concatenate([np.arange(300) * 0.01,
                                3.7 + np.arange(830) * 0.01])
        n = len(times)
        trace = Trace.from_arrays(times, np.full(n, 0x100),
                                  np.arange(n) % 2,
                                  (np.arange(n) * 37) % 1500)
        columns = (trace.times_s, trace.rntis, trace.directions,
                   trace.tbs_bytes)
        windowizer = StreamingWindowizer(WindowConfig())
        rows, backlogs = [], []
        # 10-record chunks through A: windows resolve as the clock
        # passes mid + 2.5 s, but their burst_bytes wait for A to close.
        for lo in range(0, 300, 10):
            batch = windowizer.ingest(*(c[lo:lo + 10] for c in columns))
            assert len(batch) == 0
            backlogs.append(windowizer.backlog)
        assert 0 < backlogs[-3] < backlogs[-2] < backlogs[-1]
        # One chunk closes A and runs the clock to 6.49 s: its resolve
        # emits A's remaining windows resolved and B's first deferred,
        # in one block the drain splits.
        parked = windowizer.backlog
        batch = windowizer.ingest(*(c[300:580] for c in columns))
        assert len(batch) > parked
        assert windowizer.backlog > 0
        rows.append(batch.rows)
        for lo in range(580, n, 64):
            rows.append(windowizer.ingest(
                *(c[lo:lo + 64] for c in columns)).rows)
        rows.append(windowizer.finish().rows)
        assert windowizer.backlog == 0
        assert np.array_equal(np.concatenate(rows, axis=0),
                              extract_features(trace, WindowConfig()))

    def test_finish_twice_raises(self):
        windowizer = StreamingWindowizer(WindowConfig())
        windowizer.finish()
        with pytest.raises(RuntimeError):
            windowizer.finish()

    def test_empty_stream(self):
        windowizer = StreamingWindowizer(WindowConfig())
        closed = windowizer.finish()
        assert len(closed) == 0
        assert windowizer.records_seen == 0

    def test_direction_filter_counts_drops(self):
        trace = random_trace(6, n=80)
        config = WindowConfig(direction=Direction.DOWNLINK)
        windowizer = StreamingWindowizer(config)
        for chunk in trace.iter_chunks(20):
            windowizer.ingest(*chunk)
        windowizer.finish()
        expected_drops = int(np.count_nonzero(
            trace.directions != int(Direction.DOWNLINK)))
        assert windowizer.records_dropped_direction == expected_drops
        assert (windowizer.records_kept
                == windowizer.records_seen - expected_drops)
