"""Tests for the CellSniffer: end-to-end capture on a live cell."""

import pytest

from repro.apps import make_app
from repro.lte.dci import Direction
from repro.lte.network import LTENetwork
from repro.sniffer.capture import CellSniffer


@pytest.fixture
def scenario():
    network = LTENetwork(seed=13)
    network.add_cell("c0")
    ue = network.add_ue(name="victim")
    sniffer = CellSniffer("c0").attach(network)
    return network, ue, sniffer


class TestCellSniffer:
    def test_records_grants(self, scenario):
        network, ue, sniffer = scenario
        network.deliver_traffic(ue, Direction.DOWNLINK, 20_000)
        network.run_for(5.0)
        assert sniffer.total_records > 0
        assert sniffer.observed_rntis()

    def test_trace_for_rnti(self, scenario):
        network, ue, sniffer = scenario
        network.deliver_traffic(ue, Direction.UPLINK, 10_000)
        network.run_for(5.0)
        rnti = sniffer.observed_rntis()[0]
        trace = sniffer.trace_for_rnti(rnti)
        assert len(trace) > 0
        assert (trace.rntis == rnti).all()

    def test_trace_for_tmsi_merges_rnti_refreshes(self, scenario):
        network, ue, sniffer = scenario
        # Two well-separated sessions force an RRC release + fresh RNTI.
        network.start_app_session(ue, make_app("YouTube"), start_s=0.0,
                                  duration_s=5.0, session_seed=1)
        network.start_app_session(ue, make_app("YouTube"), start_s=30.0,
                                  duration_s=5.0, session_seed=2)
        network.run_for(40.0)
        rntis = sniffer.mapper.all_rntis_for_tmsi(ue.tmsi)
        assert len(rntis) == 2
        merged = sniffer.trace_for_tmsi(ue.tmsi)
        assert merged.duration_s > 25.0
        per_rnti = sum(len(sniffer.trace_for_rnti(r)) for r in rntis)
        assert len(merged) == per_rnti

    def test_two_ues_separated_by_identity(self):
        network = LTENetwork(seed=17)
        network.add_cell("c0")
        alice = network.add_ue(name="alice")
        bob = network.add_ue(name="bob")
        sniffer = CellSniffer("c0").attach(network)
        network.deliver_traffic(alice, Direction.DOWNLINK, 30_000)
        network.deliver_traffic(bob, Direction.DOWNLINK, 60_000)
        network.run_for(5.0)
        alice_trace = sniffer.trace_for_tmsi(alice.tmsi)
        bob_trace = sniffer.trace_for_tmsi(bob.tmsi)
        assert alice_trace.total_bytes >= 30_000
        assert bob_trace.total_bytes >= 60_000
        # No cross-contamination: RNTI sets are disjoint.
        assert (set(alice_trace.rntis.tolist())
                & set(bob_trace.rntis.tolist()) == set())

    def test_trace_for_unknown_tmsi_is_empty(self, scenario):
        network, ue, sniffer = scenario
        network.deliver_traffic(ue, Direction.UPLINK, 1_000)
        network.run_for(2.0)
        assert len(sniffer.trace_for_tmsi(0x12345)) == 0

    def test_control_log_captures_handshake(self, scenario):
        network, ue, sniffer = scenario
        network.deliver_traffic(ue, Direction.UPLINK, 1_000)
        network.run_for(2.0)
        names = [type(m).__name__ for m in sniffer.control_log()]
        assert "RRCConnectionRequest" in names
        assert "RRCConnectionSetup" in names

    def test_tracker_follows_active_rnti(self, scenario):
        network, ue, sniffer = scenario
        network.deliver_traffic(ue, Direction.UPLINK, 50_000)
        network.run_for(2.0)
        assert ue.rnti in sniffer.tracker.active_rntis()
