"""Tests for the §VIII-B radio-layer countermeasures."""

import pytest

from repro.apps import make_app
from repro.lte.dci import Direction
from repro.lte.network import LTENetwork
from repro.lte.obfuscation import (NO_OBFUSCATION, ObfuscationConfig,
                                   ObfuscationStats)
from repro.sniffer.capture import CellSniffer


def defended_capture(obfuscation, app="Skype", duration_s=20.0, seed=9):
    network = LTENetwork(seed=seed)
    network.add_cell("c0", obfuscation=obfuscation)
    ue = network.add_ue(name="victim")
    sniffer = CellSniffer("c0").attach(network)
    network.start_app_session(ue, make_app(app), duration_s=duration_s,
                              session_seed=seed + 1)
    network.run_for(duration_s + 3.0)
    return network.cells["c0"].enb, ue, sniffer


class TestConfig:
    def test_defaults_disabled(self):
        assert not NO_OBFUSCATION.enabled

    def test_enabled_detection(self):
        assert ObfuscationConfig(rnti_refresh_s=5.0).enabled
        assert ObfuscationConfig(padding_quantum=100).enabled
        assert ObfuscationConfig(chaff_probability=0.1).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            ObfuscationConfig(rnti_refresh_s=0.0)
        with pytest.raises(ValueError):
            ObfuscationConfig(padding_quantum=-1)
        with pytest.raises(ValueError):
            ObfuscationConfig(chaff_probability=1.0)
        with pytest.raises(ValueError):
            ObfuscationConfig(chaff_max_bytes=0)

    def test_stats_overhead_fraction(self):
        stats = ObfuscationStats(useful_bytes=900, padding_bytes=50,
                                 chaff_bytes=50)
        assert stats.overhead_fraction == pytest.approx(0.1)
        assert ObfuscationStats().overhead_fraction == 0.0


class TestRNTIRefresh:
    def test_rnti_rotates_silently(self):
        enb, ue, sniffer = defended_capture(
            ObfuscationConfig(rnti_refresh_s=4.0))
        assert enb.obfuscation_stats.rnti_refreshes >= 3
        assert len(ue.rnti_history) >= 4
        # No cleartext identity accompanies the refresh: the sniffer's
        # identity mapping only covers the first RNTI.
        merged = sniffer.trace_for_tmsi(ue.tmsi)
        assert len(merged) < sniffer.total_records

    def test_refresh_releases_old_rnti(self):
        enb, ue, _ = defended_capture(ObfuscationConfig(rnti_refresh_s=4.0))
        # The UE's current RNTI is the only one still allocated.
        old_rntis = [r for _, _, r in ue.rnti_history[:-1]]
        assert all(not enb._rnti_pool.in_use(r) for r in old_rntis
                   if r != ue.rnti)

    def test_traffic_continues_after_refresh(self):
        enb, ue, sniffer = defended_capture(
            ObfuscationConfig(rnti_refresh_s=3.0))
        # Grants exist under more than one RNTI.
        assert len(sniffer.observed_rntis()) >= 2


class TestPadding:
    def test_padding_rounds_sizes_up(self):
        quantum = 1_000
        enb, ue, sniffer = defended_capture(
            ObfuscationConfig(padding_quantum=quantum),
            app="WhatsApp Call")
        assert enb.obfuscation_stats.padding_bytes > 0
        assert enb.obfuscation_stats.overhead_fraction > 0.0
        # The observed size distribution collapses onto few values.
        sizes = set(sniffer.trace_for_tmsi(ue.tmsi).tbs_bytes.tolist())
        baseline_enb, base_ue, baseline = defended_capture(
            NO_OBFUSCATION, app="WhatsApp Call")
        baseline_sizes = set(
            baseline.trace_for_tmsi(base_ue.tmsi).tbs_bytes.tolist())
        assert len(sizes) <= len(baseline_sizes)

    def test_padding_preserves_delivery(self):
        enb, _, sniffer = defended_capture(
            ObfuscationConfig(padding_quantum=2_000))
        assert enb.obfuscation_stats.useful_bytes > 0
        assert sniffer.total_records > 0


class TestChaff:
    def test_chaff_emits_dummy_grants(self):
        enb, _, _ = defended_capture(
            ObfuscationConfig(chaff_probability=0.2))
        assert enb.obfuscation_stats.chaff_grants > 0
        assert enb.obfuscation_stats.chaff_bytes > 0

    def test_no_chaff_when_disabled(self):
        enb, _, _ = defended_capture(NO_OBFUSCATION)
        assert enb.obfuscation_stats.chaff_grants == 0
        assert enb.obfuscation_stats.padding_bytes == 0
        assert enb.obfuscation_stats.rnti_refreshes == 0


class TestDefendedCellStillServes:
    def test_combined_defences_deliver_traffic(self):
        config = ObfuscationConfig(rnti_refresh_s=5.0,
                                   padding_quantum=1_500,
                                   chaff_probability=0.1)
        enb, ue, sniffer = defended_capture(config)
        assert enb.obfuscation_stats.useful_bytes > 10_000
        assert enb.obfuscation.enabled
        # Victim's QoS: uplink and downlink both flowed.
        directions = set(sniffer.trace_for_rnti(
            sniffer.observed_rntis()[0]).directions.tolist())
        assert Direction.DOWNLINK in directions or \
            Direction.UPLINK in directions
