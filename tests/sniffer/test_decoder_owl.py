"""Tests for the passive DCI decoder and the OWL RNTI tracker."""

import random

import pytest

from repro.lte.channel import ChannelProfile
from repro.lte.dci import DCIFormat, DCIMessage, PDCCHTransmission
from repro.lte.identifiers import SI_RNTI
from repro.lte.rrc import RandomAccessResponse, RRCConnectionRelease
from repro.sniffer.dci_decoder import DCIDecoder
from repro.sniffer.owl import OWLTracker


def transmission(time_us=1_000, rnti=0x1000, mcs=10, n_prb=4,
                 fmt=DCIFormat.FORMAT_1A):
    msg = DCIMessage(fmt=fmt, rnti=rnti, mcs=mcs, n_prb=n_prb)
    return PDCCHTransmission(time_us=time_us, encoded=msg.encode())


def decoded_rows(decoder):
    """Collect the decoder's output as ``(time_s, rnti, dir, tbs)`` rows."""
    rows = []
    decoder.add_batch_sink(lambda *columns: rows.extend(
        zip(*(column.tolist() for column in columns))))
    return rows


class TestDCIDecoder:
    def test_clean_decode_reaches_sink(self):
        decoder = DCIDecoder()
        records = decoded_rows(decoder)
        decoder.on_pdcch(transmission(rnti=0x2222))
        assert len(records) == 1
        time_s, rnti, _, tbs_bytes = records[0]
        assert rnti == 0x2222
        assert time_s == pytest.approx(0.001)
        assert tbs_bytes > 0

    def test_loss_drops_transmissions(self):
        profile = ChannelProfile(capture_loss=0.5)
        decoder = DCIDecoder(capture_profile=profile,
                             rng=random.Random(3))
        records = decoded_rows(decoder)
        for index in range(1_000):
            decoder.on_pdcch(transmission(time_us=index * 1_000))
        assert 300 < len(records) < 700
        stats = decoder.capture_stats
        assert stats["lost"] + stats["captured"] == 1_000

    def test_non_crnti_rejected_by_default(self):
        decoder = DCIDecoder()
        records = decoded_rows(decoder)
        decoder.on_pdcch(transmission(rnti=SI_RNTI))
        assert records == []
        assert decoder.rejected == 1

    def test_non_crnti_kept_when_requested(self):
        decoder = DCIDecoder(drop_non_crnti=False)
        records = decoded_rows(decoder)
        decoder.on_pdcch(transmission(rnti=SI_RNTI))
        assert len(records) == 1

    def test_corruption_increases_rejections(self):
        profile = ChannelProfile(corruption_prob=0.9)
        decoder = DCIDecoder(capture_profile=profile,
                             rng=random.Random(5))
        records = decoded_rows(decoder)
        for index in range(500):
            decoder.on_pdcch(transmission(time_us=index * 1_000))
        # Corrupted payloads blind-decode to garbage RNTIs (usually
        # non-C-RNTI or unparseable), so rejections must appear.
        assert decoder.rejected > 0
        assert decoder.capture_stats["corrupted"] > 0


class TestOWLTracker:
    def test_confirm_after_threshold(self):
        tracker = OWLTracker(confirm_threshold=3, confirm_window_s=1.0)
        tracker.on_dci(0.0, 0x3000)
        tracker.on_dci(0.1, 0x3000)
        assert not tracker.is_active(0x3000)
        tracker.on_dci(0.2, 0x3000)
        assert tracker.is_active(0x3000)

    def test_sporadic_noise_not_confirmed(self):
        """Hits spread wider than the window never accumulate."""
        tracker = OWLTracker(confirm_threshold=3, confirm_window_s=0.5)
        for t in (0.0, 1.0, 2.0, 3.0, 4.0):
            tracker.on_dci(t, 0x3000)
        assert not tracker.is_active(0x3000)

    def test_threshold_one_confirms_immediately(self):
        tracker = OWLTracker(confirm_threshold=1)
        tracker.on_dci(0.0, 0x3000)
        assert tracker.is_active(0x3000)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            OWLTracker(confirm_threshold=0)

    def test_rar_confirms_fast(self):
        tracker = OWLTracker(confirm_threshold=5)
        tracker.on_control(RandomAccessResponse(time_us=1_000, ra_rnti=3,
                                                temp_crnti=0x4444))
        assert tracker.is_active(0x4444)

    def test_release_retires_rnti(self):
        tracker = OWLTracker(confirm_threshold=1)
        tracker.on_dci(0.0, 0x3000)
        tracker.on_control(RRCConnectionRelease(time_us=2_000_000,
                                                crnti=0x3000))
        assert not tracker.is_active(0x3000)
        history = tracker.history()
        assert len(history) == 1
        assert history[0].rnti == 0x3000
        assert history[0].expired

    def test_inactivity_expiry(self):
        tracker = OWLTracker(confirm_threshold=1, expiry_s=5.0)
        tracker.on_dci(0.0, 0x3000)
        tracker.on_dci(20.0, 0x5000)
        assert not tracker.is_active(0x3000)
        assert tracker.is_active(0x5000)

    def test_activity_record_counts(self):
        tracker = OWLTracker(confirm_threshold=1)
        for t in (0.0, 0.1, 0.2):
            tracker.on_dci(t, 0x3000)
        activity = tracker.activity(0x3000)
        assert activity.records == 2   # first hit confirmed, rest counted

    def test_non_crnti_records_ignored(self):
        tracker = OWLTracker(confirm_threshold=1)
        tracker.on_dci(0.0, SI_RNTI)
        assert tracker.active_rntis() == set()


class TestCandidatePruning:
    def test_noise_only_candidates_stay_bounded(self):
        # Regression: corrupted captures yield uniformly random RNTIs
        # whose one-hit candidate entries accumulated without bound
        # over a long capture.  Only candidates seen within roughly the
        # last confirm window may remain.
        tracker = OWLTracker(confirm_threshold=3, confirm_window_s=1.0)
        total = 3000
        for index in range(total):
            rnti = 0x0100 + index  # all distinct, all valid C-RNTIs
            tracker.on_dci(index * 0.01, rnti)
        assert tracker.candidate_count < 500
        assert not tracker.active_rntis()

    def test_pruning_keeps_in_window_candidates_confirmable(self):
        tracker = OWLTracker(confirm_threshold=3, confirm_window_s=1.0)
        # Old noise to force sweeps, then a genuine user.
        for index in range(200):
            tracker.on_dci(index * 0.01, 0x2000 + index)
        for offset in (0.0, 0.1, 0.2):
            tracker.on_dci(10.0 + offset, 0x1234)
        assert tracker.is_active(0x1234)
