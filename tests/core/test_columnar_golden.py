"""Golden equivalence suite for the columnar data plane.

The columnar implementations of feature extraction and trace filtering
must be **bit-identical** to straightforward record-at-a-time reference
implementations: one window at a time, one record at a time, with the
per-window statistics spelled out as plain numpy calls on that window's
own little arrays (the formulation the original implementation used).
Every assertion here is exact — ``np.array_equal``, never ``allclose``
— over randomized traces plus the structural edge cases (empty trace,
single record, duplicate timestamps, all-empty windows).
"""

import math
import random
from bisect import bisect_left

import numpy as np
import pytest

from repro.core.features import (FEATURE_NAMES, N_FEATURES, WindowConfig,
                                 extract_features, volume_series)
from repro.lte.dci import Direction
from repro.sniffer.trace import Trace
from tests.traces import record_rows

RNG_SEEDS = [0, 1, 2, 3, 4]


#: RNTI draws of the random traces: the usual C-RNTI range, and one
#: window mix of 0, 0xFFFF and garbage values the decoder can emit.
RNTIS = (0x100, 0x200, 0x300, 0x400)
EDGE_RNTIS = (0, 0xFFFF, 0xFFFFFFFF, 0x7FFF_0001)


def random_trace(seed, n=None, tmax=20.0, duplicates=False, rntis=RNTIS):
    rng = random.Random(seed)
    if n is None:
        n = rng.choice([0, 1, 2, 3, 17, 200, 800])
    times = sorted(rng.uniform(0.0, tmax) for _ in range(n))
    if duplicates and n >= 4:
        times[1] = times[0]
        times[n // 2] = times[n // 2 - 1]
    columns = ([], [], [])
    for _ in times:
        columns[0].append(rng.choice(rntis))
        columns[1].append(rng.choice(list(Direction)))
        columns[2].append(rng.randint(0, 5_000))
    return Trace.from_arrays(times, *columns, label="app", category="cat",
                             operator="Lab", cell="c0")


def seq_sum(values):
    """Strict left-to-right float accumulation, one value at a time."""
    total = 0.0
    for value in values:
        total += value
    return total


# -- record-at-a-time reference implementations -------------------------------------


def ref_window_row(times, rntis, directions, sizes, cumulative_time,
                   gap_since_prev, context):
    count = len(times)
    total = seq_sum(sizes)
    mean = total / count
    # square via multiplication: float ** 2 goes through pow() and is
    # not guaranteed to round identically to x * x
    std = math.sqrt(
        seq_sum([(s - mean) * (s - mean) for s in sizes]) / count)
    gaps = [times[i + 1] - times[i] for i in range(count - 1)]
    if gaps:
        gap_mean = seq_sum(gaps) / len(gaps)
        gap_std = math.sqrt(
            seq_sum([(g - gap_mean) * (g - gap_mean) for g in gaps])
            / len(gaps))
    else:
        gap_mean = gap_std = 0.0
    down_count = seq_sum(
        [1.0 if d == Direction.DOWNLINK else 0.0 for d in directions])
    down_bytes = seq_sum(
        [s if d == Direction.DOWNLINK else 0.0
         for d, s in zip(directions, sizes)])
    return [count, total, mean, std, min(sizes), max(sizes), gap_mean,
            gap_std, down_count / count,
            (down_bytes / total) if total > 0 else 0.0,
            cumulative_time, max(0.0, gap_since_prev),
            float(len(set(rntis)) - 1)] + context


def ref_extract_features(trace, config=None):
    config = config or WindowConfig()
    if config.direction is not None:
        trace = trace.direction_filtered(config.direction)
    if not len(trace):
        return np.empty((0, N_FEATURES), dtype=np.float64)
    times = trace.times_s.tolist()
    rntis = trace.rntis.tolist()
    directions = trace.directions.tolist()
    sizes = [float(size) for size in trace.tbs_bytes.tolist()]
    prefix = [0.0]
    for size in sizes:
        prefix.append(prefix[-1] + size)
    burst_starts = [0] + [i + 1 for i in range(len(times) - 1)
                          if times[i + 1] - times[i] > 0.5]
    start, end = times[0], times[-1]
    window_s = config.window_ms / 1000.0
    stride_s = config.effective_stride_ms / 1000.0
    rows = []
    previous_end = None
    index = 0
    while True:
        ws = start + index * stride_s
        if ws > end:
            break
        we = ws + window_s
        lo = bisect_left(times, ws)
        hi = bisect_left(times, we)
        if hi > lo:
            mid = (ws + we) / 2.0
            lo1, hi1 = bisect_left(times, mid - 0.5), bisect_left(times, mid + 0.5)
            lo5, hi5 = bisect_left(times, mid - 2.5), bisect_left(times, mid + 2.5)
            pos = bisect_left(burst_starts, hi - 1)
            if pos == len(burst_starts) or burst_starts[pos] != hi - 1:
                pos -= 1
            b_lo = burst_starts[pos]
            b_hi = (burst_starts[pos + 1] if pos + 1 < len(burst_starts)
                    else len(times))
            context = [float(hi1 - lo1), prefix[hi1] - prefix[lo1],
                       float(hi5 - lo5), prefix[hi5] - prefix[lo5],
                       times[hi - 1] - times[b_lo],
                       prefix[b_hi] - prefix[b_lo]]
            rows.append(ref_window_row(
                times[lo:hi], rntis[lo:hi], directions[lo:hi],
                sizes[lo:hi], ws - start,
                (ws - previous_end) if previous_end is not None else 0.0,
                context))
            previous_end = we
        index += 1
    if not rows:
        return np.empty((0, N_FEATURES), dtype=np.float64)
    return np.array(rows, dtype=np.float64)


def ref_volume_series(trace, bin_s=1.0, direction=None, value="frames"):
    if direction is not None:
        trace = trace.direction_filtered(direction)
    if not len(trace):
        return np.zeros(0, dtype=np.float64)
    times = trace.times_s.tolist()
    start = times[0]
    n_bins = int(math.floor((times[-1] - start) / bin_s)) + 1
    out = np.zeros(n_bins, dtype=np.float64)
    for time_s, size in zip(times, trace.tbs_bytes.tolist()):
        idx = min(int((time_s - start) / bin_s), n_bins - 1)
        out[idx] += 1.0 if value == "frames" else float(size)
    return out


CONFIGS = [WindowConfig(),
           WindowConfig(stride_ms=25.0),
           WindowConfig(window_ms=250.0, stride_ms=40.0),
           WindowConfig(direction=Direction.DOWNLINK),
           WindowConfig(window_ms=10.0, direction=Direction.UPLINK)]


class TestExtractFeaturesGolden:
    @pytest.mark.parametrize("seed", RNG_SEEDS)
    @pytest.mark.parametrize("config", CONFIGS)
    def test_randomized_bit_identical(self, seed, config):
        trace = random_trace(seed, duplicates=(seed % 2 == 0))
        expected = ref_extract_features(trace, config)
        actual = extract_features(trace, config)
        assert expected.shape == actual.shape
        assert np.array_equal(expected, actual), \
            np.argwhere(expected != actual)[:10]

    def test_empty_trace(self):
        assert extract_features(Trace()).shape == (0, N_FEATURES)

    def test_single_record(self):
        trace = Trace.from_arrays([1.5], [0x100], [Direction.DOWNLINK], [800])
        assert np.array_equal(ref_extract_features(trace),
                              extract_features(trace))

    def test_all_duplicate_timestamps(self):
        trace = Trace.from_arrays([2.0] * 3, [0x100, 0x200, 0x100],
                                  [Direction.UPLINK] * 3, [10] * 3)
        assert np.array_equal(ref_extract_features(trace),
                              extract_features(trace))

    @pytest.mark.parametrize("config", CONFIGS)
    def test_edge_rntis_bit_identical(self, config):
        trace = random_trace(3, n=800, duplicates=True, rntis=EDGE_RNTIS)
        assert np.array_equal(ref_extract_features(trace, config),
                              extract_features(trace, config))

    def test_edge_rntis_in_one_window(self):
        trace = Trace.from_arrays(
            [1.0 + 0.01 * offset for offset in range(5)],
            [0, 0xFFFF, 0xFFFFFFFF, 0, 0x7FFF_0001],
            [Direction.DOWNLINK] * 5, [100] * 5)
        rows = extract_features(trace)
        assert np.array_equal(rows, ref_extract_features(trace))
        assert rows[0, FEATURE_NAMES.index("rnti_switches")] == 3.0

    def test_direction_filter_can_empty_everything(self):
        trace = Trace.from_arrays([0.0], [0x100], [Direction.UPLINK], [10])
        config = WindowConfig(direction=Direction.DOWNLINK)
        assert extract_features(trace, config).shape == (0, N_FEATURES)

    def test_feature_count_matches_names(self):
        trace = random_trace(7, n=50)
        assert extract_features(trace).shape[1] == len(FEATURE_NAMES)


class TestGapSincePrevChaining:
    """Regression: gap_since_prev chains over *nonempty* windows.

    A window invalidated by ``min_frames``/``gap_threshold_s`` held
    real traffic — it is dropped from the output, but it was not
    silence, so the next valid window's ``gap_since_prev`` measures
    from the invalidated window's end, not from the last *valid*
    window (which would manufacture a silence that never happened).
    """

    GAP_COL = FEATURE_NAMES.index("gap_since_prev")

    @staticmethod
    def _trace(times):
        return Trace.from_arrays(times, [0x100] * len(times),
                                 [Direction.DOWNLINK] * len(times),
                                 [100] * len(times))

    def test_invalidated_window_still_anchors_gap(self):
        # w0 [0,0.1): 3 recs (valid) · w1 [0.1,0.2): 1 rec (min_frames
        # kills it) · w2 [0.2,0.3): empty · w3 [0.3,0.4): 2 recs.
        trace = self._trace([0.0, 0.01, 0.02, 0.105, 0.35, 0.36])
        config = WindowConfig(min_frames=2)
        rows = extract_features(trace, config)
        assert rows.shape[0] == 2          # w0 and w3 survive
        # Chain anchors at w1's end (0.2), not w0's end (0.1).
        assert rows[1, self.GAP_COL] == pytest.approx(0.3 - 0.2)

    def test_defaults_unchanged(self):
        # With min_frames=1 and no gap threshold every nonempty window
        # is valid, so chaining over nonempty == chaining over valid —
        # the fix is invisible at defaults (bit-identical golden suite).
        trace = self._trace([0.0, 0.01, 0.02, 0.105, 0.35, 0.36])
        rows_default = extract_features(trace, WindowConfig())
        reference = ref_extract_features(trace, WindowConfig())
        assert np.array_equal(rows_default, reference)


class TestVolumeSeriesGolden:
    @pytest.mark.parametrize("seed", RNG_SEEDS)
    @pytest.mark.parametrize("value", ["frames", "bytes"])
    def test_randomized_bit_identical(self, seed, value):
        trace = random_trace(seed)
        for bin_s in (1.0, 0.25):
            assert np.array_equal(
                ref_volume_series(trace, bin_s=bin_s, value=value),
                volume_series(trace, bin_s=bin_s, value=value))

    def test_direction_restricted(self):
        trace = random_trace(11, n=120)
        for direction in Direction:
            assert np.array_equal(
                ref_volume_series(trace, direction=direction),
                volume_series(trace, direction=direction))

    def test_final_record_on_bin_boundary_opens_partial_bin(self):
        # A final record landing exactly on a bin edge must OPEN that
        # bin (floor semantics), not be clamped back into the previous
        # one.
        trace = Trace.from_arrays(       # 3.0 == 3 * bin_s exactly
            [0.0, 0.4, 1.7, 3.0], [0x100] * 4, [Direction.DOWNLINK] * 4,
            [100] * 4)
        series = volume_series(trace, bin_s=1.0)
        assert len(series) == 4
        assert np.array_equal(series, [2.0, 1.0, 0.0, 1.0])


class TestFilterGolden:
    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_direction_filtered(self, seed):
        trace = random_trace(seed, duplicates=True)
        for direction in Direction:
            expected = [r for r in record_rows(trace) if r[2] == direction]
            assert record_rows(trace.direction_filtered(direction)) == expected

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_time_sliced(self, seed):
        trace = random_trace(seed)
        for t0, t1 in ((0.0, 5.0), (5.0, 5.0), (3.3, 17.2), (25.0, 30.0)):
            expected = [r for r in record_rows(trace) if t0 <= r[0] < t1]
            assert record_rows(trace.time_sliced(t0, t1)) == expected

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_rnti_filtered(self, seed):
        trace = random_trace(seed)
        for wanted in ({0x100}, {0x200, 0x400}, set(), {0x999}):
            expected = [r for r in record_rows(trace) if r[1] in wanted]
            assert record_rows(trace.rnti_filtered(wanted)) == expected

    @pytest.mark.parametrize("seed", RNG_SEEDS)
    def test_rebased(self, seed):
        trace = random_trace(seed)
        rebased = trace.rebased()
        if not len(trace):
            assert len(rebased) == 0
            return
        t0 = trace.start_s
        expected = [(t - t0, rnti, direction, size)
                    for t, rnti, direction, size in record_rows(trace)]
        assert record_rows(rebased) == expected

    def test_filters_do_not_mutate_parent(self):
        trace = random_trace(3, n=60)
        before = record_rows(trace)
        trace.direction_filtered(Direction.DOWNLINK)
        trace.time_sliced(1.0, 9.0)
        trace.rnti_filtered({0x100})
        trace.rebased()
        assert record_rows(trace) == before
