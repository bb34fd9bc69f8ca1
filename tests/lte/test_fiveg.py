"""Tests for the 5G NR extension (SUPI/SUCI, gNodeB, slot cadence)."""

import random

import pytest

from repro.apps import make_app
from repro.fiveg import (NR_SLOT_US, GNodeB, NRRegistrationRequest, SUCI,
                         SUCIGenerator, add_nr_cell, make_supi)
from repro.lte.dci import Direction
from repro.lte.network import LTENetwork
from repro.lte.sim import SimClock
from repro.sniffer.capture import CellSniffer


class TestSUPI:
    def test_format(self):
        supi = make_supi(random.Random(0))
        assert str(supi).startswith("imsi-310260")
        assert len(str(supi)) == len("imsi-") + 15

    def test_validation(self):
        with pytest.raises(ValueError):
            make_supi(random.Random(0), mcc="31")


class TestSUCIGenerator:
    def test_concealments_are_fresh(self):
        generator = SUCIGenerator(seed=1)
        supi = make_supi(random.Random(0))
        sucis = [generator.conceal(supi) for _ in range(50)]
        assert len({s.ciphertext for s in sucis}) == 50
        assert generator.concealments_issued == 50

    def test_routing_info_stays_visible(self):
        generator = SUCIGenerator(seed=1)
        supi = make_supi(random.Random(0))
        suci = generator.conceal(supi)
        assert suci.mcc == supi.mcc
        assert suci.mnc == supi.mnc
        assert str(supi.msin) not in str(suci)

    def test_home_network_deconceals(self):
        generator = SUCIGenerator(seed=2)
        supi = make_supi(random.Random(3))
        suci = generator.conceal(supi)
        assert generator.deconceal(suci) == supi

    def test_foreign_suci_undeconcealable(self):
        generator = SUCIGenerator(seed=2)
        stranger = SUCI(mcc="310", mnc="260", ciphertext=12345)
        assert generator.deconceal(stranger) is None


class TestGNodeB:
    def make_network(self, seed=5):
        network = LTENetwork(seed=seed)
        add_nr_cell(network, "nr-0")
        return network

    def test_nr_slot_duration(self):
        assert NR_SLOT_US == 500
        gnb = GNodeB("nr", SimClock(), random.Random(0))
        assert gnb._tti_us == NR_SLOT_US

    def test_duplicate_cell_rejected(self):
        network = self.make_network()
        with pytest.raises(ValueError):
            add_nr_cell(network, "nr-0")

    def test_registration_emits_suci_not_tmsi(self):
        network = self.make_network()
        ue = network.add_ue(name="victim")
        control = []
        network.observe("nr-0", control=control.append)
        network.deliver_traffic(ue, Direction.UPLINK, 2_000)
        network.run_for(2.0)
        registrations = [m for m in control
                         if isinstance(m, NRRegistrationRequest)]
        assert registrations
        from repro.lte.rrc import (RRCConnectionRequest,
                                   RRCConnectionSetup)
        assert not any(isinstance(m, (RRCConnectionRequest,
                                      RRCConnectionSetup))
                       for m in control)

    def test_reconnects_show_unlinkable_sucis(self):
        network = self.make_network()
        ue = network.add_ue(name="victim")
        control = []
        network.observe("nr-0", control=control.append)
        # Two sessions separated beyond the inactivity timeout.
        network.start_app_session(ue, make_app("YouTube"), start_s=0.0,
                                  duration_s=4.0, session_seed=1)
        network.start_app_session(ue, make_app("YouTube"), start_s=25.0,
                                  duration_s=4.0, session_seed=2)
        network.run_for(35.0)
        sucis = [m.suci.ciphertext for m in control
                 if isinstance(m, NRRegistrationRequest)]
        assert len(sucis) == 2
        assert sucis[0] != sucis[1]

    def test_passive_identity_mapping_defeated(self):
        """The LTE sniffer's mapper learns nothing from NR handshakes."""
        network = self.make_network()
        ue = network.add_ue(name="victim")
        sniffer = CellSniffer("nr-0").attach(network)
        network.start_app_session(ue, make_app("Skype"), duration_s=8.0,
                                  session_seed=3)
        network.run_for(12.0)
        assert sniffer.mapper.mappings_learned == 0
        assert len(sniffer.trace_for_tmsi(ue.tmsi)) == 0
        # But the radio-layer metadata itself is still fully visible.
        assert sniffer.total_records > 0

    def test_grants_flow_at_nr_cadence(self):
        network = self.make_network()
        ue = network.add_ue(name="victim")
        seen = []
        network.observe("nr-0", pdcch_batch=seen.append)
        network.deliver_traffic(ue, Direction.DOWNLINK, 50_000)
        network.run_for(3.0)
        times = [t for batch in seen for t in batch.time_us.tolist()]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps and min(g for g in gaps if g > 0) == NR_SLOT_US
