"""Tests for feature extraction and volume series."""

import numpy as np
import pytest

from repro.core.features import (FEATURE_NAMES, N_FEATURES, WindowConfig,
                                 extract_features, volume_series)
from repro.lte.dci import Direction
from repro.sniffer.trace import Trace

F = {name: i for i, name in enumerate(FEATURE_NAMES)}


def trace_from(tuples):
    return Trace.from_arrays(*zip(*tuples))


@pytest.fixture
def simple_trace():
    return trace_from([
        (0.00, 0x100, Direction.DOWNLINK, 1_000),
        (0.05, 0x100, Direction.DOWNLINK, 2_000),
        (0.32, 0x100, Direction.UPLINK, 400),
        (1.55, 0x200, Direction.DOWNLINK, 800),
    ])


class TestWindowConfig:
    def test_defaults(self):
        config = WindowConfig()
        assert config.window_ms == 100.0
        assert config.effective_stride_ms == 100.0

    def test_explicit_stride(self):
        config = WindowConfig(window_ms=100.0, stride_ms=50.0)
        assert config.effective_stride_ms == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(window_ms=0)
        with pytest.raises(ValueError):
            WindowConfig(stride_ms=0)


class TestExtractFeatures:
    def test_shape_and_names(self, simple_trace):
        X = extract_features(simple_trace)
        assert X.shape[1] == N_FEATURES == len(FEATURE_NAMES)

    def test_empty_trace(self):
        assert extract_features(Trace()).shape == (0, N_FEATURES)

    def test_empty_windows_skipped(self, simple_trace):
        X = extract_features(simple_trace, WindowConfig(window_ms=100.0))
        # Records land in windows [0,0.1), [0.3,0.4), [1.5,1.6) -> 3 rows.
        assert len(X) == 3

    def test_first_window_values(self, simple_trace):
        X = extract_features(simple_trace)
        row = X[0]
        assert row[F["frame_count"]] == 2
        assert row[F["total_bytes"]] == 3_000
        assert row[F["mean_size"]] == 1_500
        assert row[F["min_size"]] == 1_000
        assert row[F["max_size"]] == 2_000
        assert row[F["mean_interarrival"]] == pytest.approx(0.05)
        assert row[F["downlink_frame_frac"]] == 1.0
        assert row[F["downlink_byte_frac"]] == 1.0
        assert row[F["cumulative_time"]] == 0.0
        assert row[F["rnti_switches"]] == 0

    def test_gap_since_prev(self, simple_trace):
        X = extract_features(simple_trace)
        # Third window starts at 1.5; previous non-empty window ended 0.4.
        assert X[2][F["gap_since_prev"]] == pytest.approx(1.1)

    def test_cumulative_time_tracks_window_offset(self, simple_trace):
        X = extract_features(simple_trace)
        assert X[1][F["cumulative_time"]] == pytest.approx(0.3)
        assert X[2][F["cumulative_time"]] == pytest.approx(1.5)

    def test_direction_fraction_mixed_window(self):
        trace = trace_from([
            (0.00, 0x1, Direction.DOWNLINK, 900),
            (0.01, 0x1, Direction.UPLINK, 100),
        ])
        row = extract_features(trace)[0]
        assert row[F["downlink_frame_frac"]] == 0.5
        assert row[F["downlink_byte_frac"]] == 0.9

    def test_direction_filter_restricts_records(self, simple_trace):
        X = extract_features(simple_trace,
                             WindowConfig(direction=Direction.UPLINK))
        assert len(X) == 1
        assert X[0][F["total_bytes"]] == 400

    def test_rnti_switch_counted(self):
        trace = trace_from([
            (0.00, 0x1, Direction.DOWNLINK, 100),
            (0.01, 0x2, Direction.DOWNLINK, 100),
        ])
        assert extract_features(trace)[0][F["rnti_switches"]] == 1

    def test_burst_bytes_covers_whole_burst(self):
        # One burst of 3 frames spanning two windows, then silence.
        trace = trace_from([
            (0.00, 0x1, Direction.DOWNLINK, 1_000),
            (0.05, 0x1, Direction.DOWNLINK, 1_000),
            (0.15, 0x1, Direction.DOWNLINK, 1_000),
            (5.00, 0x1, Direction.DOWNLINK, 50),
        ])
        X = extract_features(trace)
        # Both windows of the burst report the burst's total bytes.
        assert X[0][F["burst_bytes"]] == 3_000
        assert X[1][F["burst_bytes"]] == 3_000
        assert X[2][F["burst_bytes"]] == 50

    def test_burst_age_grows_within_burst(self):
        trace = trace_from([
            (0.00, 0x1, Direction.DOWNLINK, 100),
            (0.15, 0x1, Direction.DOWNLINK, 100),
            (0.30, 0x1, Direction.DOWNLINK, 100),
        ])
        X = extract_features(trace)
        ages = X[:, F["burst_age"]]
        assert list(ages) == sorted(ages)
        assert ages[-1] == pytest.approx(0.30)

    def test_context_bytes_cover_neighbourhood(self):
        trace = trace_from([
            (0.00, 0x1, Direction.DOWNLINK, 1_000),
            (0.30, 0x1, Direction.DOWNLINK, 2_000),
            (2.60, 0x1, Direction.DOWNLINK, 4_000),
        ])
        X = extract_features(trace)
        # Window [0, 0.1): ±0.5 s around its centre covers the first
        # two records only.
        assert X[0][F["bytes_ctx_1s"]] == 3_000
        # ±2.5 s covers the first two; the 2.6 s record is outside.
        assert X[0][F["bytes_ctx_5s"]] == 3_000
        # The middle window's ±2.5 s context sees everything.
        assert X[1][F["bytes_ctx_5s"]] == 7_000

    def test_overlapping_stride_produces_more_windows(self, simple_trace):
        plain = extract_features(simple_trace, WindowConfig())
        overlapped = extract_features(
            simple_trace, WindowConfig(window_ms=100.0, stride_ms=25.0))
        assert len(overlapped) > len(plain)

    def test_all_features_finite(self, simple_trace):
        X = extract_features(simple_trace)
        assert np.isfinite(X).all()


class TestVolumeSeries:
    def test_frame_counts(self, simple_trace):
        series = volume_series(simple_trace, bin_s=1.0)
        assert list(series) == [3.0, 1.0]

    def test_byte_counts(self, simple_trace):
        series = volume_series(simple_trace, bin_s=1.0, value="bytes")
        assert list(series) == [3_400.0, 800.0]

    def test_empty_bins_preserved(self):
        trace = trace_from([(0.0, 0x1, Direction.DOWNLINK, 10),
                            (3.5, 0x1, Direction.DOWNLINK, 10)])
        series = volume_series(trace, bin_s=1.0)
        assert list(series) == [1.0, 0.0, 0.0, 1.0]

    def test_direction_filter(self, simple_trace):
        series = volume_series(simple_trace, bin_s=1.0,
                               direction=Direction.UPLINK)
        assert series.sum() == 1.0

    def test_empty_trace(self):
        assert len(volume_series(Trace())) == 0

    def test_validation(self, simple_trace):
        with pytest.raises(ValueError):
            volume_series(simple_trace, bin_s=0)
        with pytest.raises(ValueError):
            volume_series(simple_trace, value="packets")

    def test_bin_width_scales_resolution(self, simple_trace):
        fine = volume_series(simple_trace, bin_s=0.25)
        coarse = volume_series(simple_trace, bin_s=2.0)
        assert len(fine) > len(coarse)
        assert fine.sum() == coarse.sum()
