"""Tests for dataset construction and the hierarchical fingerprinter."""

import numpy as np
import pytest

from repro.core.dataset import (collect_pair, collect_trace, collect_traces,
                                windows_from_traces)
from repro.core.features import WindowConfig
from repro.core.fingerprint import HierarchicalFingerprinter
from repro.lte.dci import Direction
from repro.operators import LAB, TMOBILE
from repro.sniffer.trace import Trace, TraceSet
from tests.traces import record_rows


@pytest.fixture(scope="module")
def small_campaign():
    apps = ["YouTube", "WhatsApp", "Skype"]
    return collect_traces(apps, operator=LAB, traces_per_app=2,
                          duration_s=15.0, seed=3)


class TestCollectTrace:
    def test_metadata_filled(self):
        trace = collect_trace("YouTube", operator=LAB, duration_s=10.0,
                              seed=1)
        assert trace.label == "YouTube"
        assert trace.category == "streaming"
        assert trace.operator == "Lab"
        assert trace.user == "victim"
        assert len(trace) > 0
        assert trace.start_s == 0.0    # rebased

    def test_duration_roughly_matches(self):
        trace = collect_trace("Skype", operator=LAB, duration_s=12.0,
                              seed=2)
        assert 8.0 < trace.duration_s < 16.0

    def test_seed_reproducible(self):
        a = collect_trace("WhatsApp", duration_s=10.0, seed=5)
        b = collect_trace("WhatsApp", duration_s=10.0, seed=5)
        assert record_rows(a) == record_rows(b)

    def test_different_seeds_differ(self):
        a = collect_trace("WhatsApp", duration_s=10.0, seed=5)
        b = collect_trace("WhatsApp", duration_s=10.0, seed=6)
        assert record_rows(a) != record_rows(b)

    def test_background_adds_traffic(self):
        clean = collect_trace("YouTube", duration_s=10.0, seed=7)
        noisy = collect_trace("YouTube", duration_s=10.0, seed=7,
                              background_count=8)
        assert noisy.total_bytes > clean.total_bytes

    def test_carrier_capture_sees_loss(self):
        lab = collect_trace("Skype", operator=LAB, duration_s=10.0, seed=8)
        carrier = collect_trace("Skype", operator=TMOBILE, duration_s=10.0,
                                seed=8)
        # Same workload, noisier environment: different record stream.
        assert record_rows(lab) != record_rows(carrier)


class TestCollectPair:
    def test_pair_traces_labelled(self):
        a, b = collect_pair("WhatsApp Call", "call", operator=LAB,
                            duration_s=10.0, seed=9)
        assert a.label == b.label == "WhatsApp Call"
        assert a.user == "user-a"
        assert b.user == "user-b"
        assert len(a) > 0 and len(b) > 0

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            collect_pair("WhatsApp", "email", duration_s=5.0)


class TestWindowsFromTraces:
    def test_labels_align_with_windows(self, small_campaign):
        windows = windows_from_traces(small_campaign)
        assert len(windows.X) == len(windows.app_labels)
        assert len(windows.X) == len(windows.trace_ids)
        assert windows.app_encoder.n_classes == 3
        assert windows.category_encoder.n_classes == 3

    def test_app_of_category_mapping(self, small_campaign):
        windows = windows_from_traces(small_campaign)
        mapping = windows.app_of_category
        youtube = windows.app_encoder.transform(["YouTube"])[0]
        streaming = windows.category_encoder.transform(["streaming"])[0]
        assert mapping[youtube] == streaming

    def test_shared_encoders_respected(self, small_campaign):
        windows = windows_from_traces(small_campaign)
        again = windows_from_traces(
            small_campaign, app_encoder=windows.app_encoder,
            category_encoder=windows.category_encoder)
        assert (windows.app_labels == again.app_labels).all()

    def test_unlabelled_trace_rejected(self):
        traces = TraceSet([Trace.from_arrays([0.0], [1], [Direction.UPLINK],
                                             [10])])
        with pytest.raises(ValueError):
            windows_from_traces(traces)

    def test_all_empty_rejected(self):
        trace = Trace(label="x", category="voip")
        with pytest.raises(ValueError):
            windows_from_traces(TraceSet([trace]))

    def test_subset(self, small_campaign):
        windows = windows_from_traces(small_campaign)
        mask = windows.app_labels == 0
        subset = windows.subset(mask)
        assert len(subset) == int(mask.sum())
        assert subset.app_encoder is windows.app_encoder


class TestHierarchicalFingerprinter:
    def test_fit_predict_shapes(self, small_campaign):
        windows = windows_from_traces(small_campaign)
        model = HierarchicalFingerprinter(n_trees=8, seed=1).fit(windows)
        apps = model.predict_apps(windows.X)
        categories = model.predict_categories(windows.X)
        assert apps.shape == categories.shape == (len(windows.X),)

    def test_in_sample_accuracy_high(self, small_campaign):
        windows = windows_from_traces(small_campaign)
        model = HierarchicalFingerprinter(n_trees=10, seed=1).fit(windows)
        predictions = model.predict_apps(windows.X)
        assert np.mean(predictions == windows.app_labels) > 0.9

    def test_flat_mode(self, small_campaign):
        windows = windows_from_traces(small_campaign)
        model = HierarchicalFingerprinter(n_trees=8, seed=1,
                                          hierarchical=False).fit(windows)
        predictions = model.predict_apps(windows.X)
        assert np.mean(predictions == windows.app_labels) > 0.85

    def test_classify_trace_verdict(self, small_campaign):
        windows = windows_from_traces(small_campaign)
        model = HierarchicalFingerprinter(n_trees=10, seed=1).fit(windows)
        fresh = collect_trace("Skype", operator=LAB, duration_s=15.0,
                              seed=77)
        verdict = model.classify_trace(fresh)
        assert verdict.app == "Skype"
        assert verdict.category == "voip"
        assert 0.0 < verdict.confidence <= 1.0
        assert verdict.window_count > 0
        assert "Skype" in str(verdict)

    def test_classify_empty_trace_returns_none(self, small_campaign):
        windows = windows_from_traces(small_campaign)
        model = HierarchicalFingerprinter(n_trees=5, seed=1).fit(windows)
        assert model.classify_trace(Trace()) is None

    def test_unfitted_raises(self):
        model = HierarchicalFingerprinter()
        with pytest.raises(RuntimeError):
            model.predict_apps(np.zeros((1, 19)))
        with pytest.raises(RuntimeError):
            model.classify_trace(Trace())

    def test_direction_config_respected(self, small_campaign):
        config = WindowConfig(direction=Direction.DOWNLINK)
        windows = windows_from_traces(small_campaign, config)
        model = HierarchicalFingerprinter(window_config=config, n_trees=8,
                                          seed=1).fit(windows)
        fresh = collect_trace("YouTube", operator=LAB, duration_s=15.0,
                              seed=88)
        verdict = model.classify_trace(fresh)
        assert verdict is not None

    def test_classify_traces_batch(self, small_campaign):
        windows = windows_from_traces(small_campaign)
        model = HierarchicalFingerprinter(n_trees=5, seed=1).fit(windows)
        verdicts = model.classify_traces(list(small_campaign)[:3])
        assert len(verdicts) == 3
        assert all(v is not None for v in verdicts)
