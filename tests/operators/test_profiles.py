"""Tests for operator environment profiles."""

import pytest

from repro.lte.network import LTENetwork
from repro.operators import (ATT, CARRIERS, LAB, PROFILES, TMOBILE,
                             VERIZON, get_profile)


class TestProfiles:
    def test_four_profiles_registered(self):
        assert set(PROFILES) == {"Lab", "Verizon", "AT&T", "T-Mobile"}

    def test_carriers_excludes_lab(self):
        assert LAB not in CARRIERS
        assert len(CARRIERS) == 3

    def test_get_profile_case_insensitive(self):
        assert get_profile("lab") is LAB
        assert get_profile("VERIZON") is VERIZON
        assert get_profile("t-mobile") is TMOBILE

    def test_get_profile_unknown(self):
        with pytest.raises(ValueError):
            get_profile("Sprint")

    def test_lab_is_clean(self):
        assert LAB.capture_channel.capture_loss == 0.0
        assert LAB.capture_channel.corruption_prob == 0.0
        assert LAB.cross_traffic.mean_load == 0.0

    def test_carriers_are_noisy(self):
        for carrier in CARRIERS:
            assert carrier.capture_channel.capture_loss > 0.0
            assert carrier.cross_traffic.mean_load > 0.0
            assert carrier.drift_multiplier > 1.0
            assert carrier.pair_jitter_s > LAB.pair_jitter_s

    def test_carriers_differ_in_bandwidth(self):
        prbs = {carrier.total_prb for carrier in CARRIERS}
        assert len(prbs) == 3

    def test_inactivity_default_matches_paper(self):
        """The paper cites a 10 s default idle timer."""
        for profile in PROFILES.values():
            assert profile.inactivity_timeout_s == 10.0

    def test_cell_kwargs_build_a_working_cell(self):
        for profile in PROFILES.values():
            network = LTENetwork(seed=1, **profile.network_kwargs())
            cell = network.add_cell("c0", **profile.cell_kwargs())
            assert cell.enb.cell_id == "c0"

    def test_scheduler_names_valid(self):
        from repro.lte.vecsched import scheduler_names
        for profile in PROFILES.values():
            assert profile.scheduler_name in scheduler_names()
