"""Tests for the LTENetwork facade: sessions, paging, mobility."""

import pytest

from repro.lte.cell import MobilityStep
from repro.lte.dci import Direction
from repro.lte.network import LTENetwork, TrafficEvent
from repro.lte.obfuscation import ObfuscationConfig
from repro.lte.rrc import (HandoverEvent, PagingMessage,
                           RRCConnectionRequest)
from repro.lte.sim import seconds


class FixedApp:
    """Deterministic traffic model for tests."""

    def __init__(self, events):
        self._events = events

    def session(self, rng):
        return iter(self._events)


def one_shot(direction=Direction.UPLINK, size=5_000, gap_s=0.0):
    return FixedApp([TrafficEvent(gap_us=seconds(gap_s),
                                  direction=direction, size_bytes=size)])


@pytest.fixture
def net():
    network = LTENetwork(seed=5)
    network.add_cell("alpha")
    return network


class TestConstruction:
    def test_duplicate_cell_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_cell("alpha")

    def test_ue_requires_cell(self):
        with pytest.raises(RuntimeError):
            LTENetwork().add_ue()

    def test_ue_camps_on_first_cell_by_default(self, net):
        ue = net.add_ue()
        assert ue.serving_cell == "alpha"
        assert ue.tmsi is not None

    def test_ue_unknown_cell_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_ue(cell_id="omega")


class TestTrafficEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficEvent(gap_us=-1, direction=Direction.UPLINK,
                         size_bytes=10)
        with pytest.raises(ValueError):
            TrafficEvent(gap_us=0, direction=Direction.UPLINK,
                         size_bytes=0)


class TestTrafficDelivery:
    def test_uplink_wakes_idle_ue_without_paging(self, net):
        ue = net.add_ue()
        control = []
        net.observe("alpha", control=control.append)
        net.deliver_traffic(ue, Direction.UPLINK, 2_000)
        net.run_for(2.0)
        assert ue.rnti_history           # connected at least once
        assert not any(isinstance(m, PagingMessage) for m in control)

    def test_downlink_pages_idle_ue(self, net):
        ue = net.add_ue()
        control = []
        net.observe("alpha", control=control.append)
        net.deliver_traffic(ue, Direction.DOWNLINK, 2_000)
        net.run_for(2.0)
        pagings = [m for m in control if isinstance(m, PagingMessage)]
        assert pagings and pagings[0].s_tmsi == ue.tmsi

    def test_arrivals_during_connection_setup_are_buffered(self, net):
        ue = net.add_ue()
        seen = []
        net.observe("alpha", pdcch_batch=seen.append)
        net.deliver_traffic(ue, Direction.UPLINK, 1_000)
        net.deliver_traffic(ue, Direction.UPLINK, 1_000)
        net.deliver_traffic(ue, Direction.DOWNLINK, 1_000)
        net.run_for(3.0)
        granted = sum(int(batch.tbs_bytes.sum()) for batch in seen)
        assert granted >= 3_000

    def test_connected_ue_enqueues_directly(self, net):
        ue = net.add_ue()
        net.deliver_traffic(ue, Direction.UPLINK, 500)
        net.run_for(1.0)
        assert ue.is_connected
        history_before = len(ue.rnti_history)
        net.deliver_traffic(ue, Direction.UPLINK, 500)
        net.run_for(1.0)
        assert len(ue.rnti_history) == history_before   # no reconnect

    def test_session_duration_bounds_traffic(self, net):
        ue = net.add_ue()
        app = FixedApp([TrafficEvent(seconds(0.5 * i or 0.0),
                                     Direction.UPLINK, 100)
                        for i in range(100)])
        handle = net.start_app_session(ue, app, duration_s=1.0)
        net.run_for(10.0)
        assert not handle.active
        assert handle.events_delivered < 100

    def test_session_stop_halts_delivery(self, net):
        ue = net.add_ue()
        events = [TrafficEvent(seconds(0.2), Direction.UPLINK, 100)
                  for _ in range(50)]
        handle = net.start_app_session(ue, FixedApp(events))
        net.run_for(1.0)
        delivered = handle.events_delivered
        handle.stop()
        net.run_for(5.0)
        assert handle.events_delivered == delivered

    def test_exhausted_generator_deactivates_handle(self, net):
        ue = net.add_ue()
        handle = net.start_app_session(ue, one_shot())
        net.run_for(2.0)
        assert not handle.active
        assert handle.events_delivered == 1
        assert handle.bytes_delivered == 5_000

    def test_negative_start_rejected(self, net):
        ue = net.add_ue()
        with pytest.raises(ValueError):
            net.start_app_session(ue, one_shot(), start_s=-1.0)


class TestMobility:
    def make_two_cell(self):
        network = LTENetwork(seed=6)
        network.add_cell("alpha")
        network.add_cell("beta")
        return network

    def test_idle_move_is_reselection(self):
        network = self.make_two_cell()
        ue = network.add_ue(cell_id="alpha")
        network.move_ue(ue, "beta")
        assert ue.serving_cell == "beta"
        assert not ue.is_connected

    def test_move_to_same_cell_is_noop(self):
        network = self.make_two_cell()
        ue = network.add_ue(cell_id="alpha")
        network.move_ue(ue, "alpha")
        assert ue.serving_cell == "alpha"

    def test_connected_move_is_handover_with_new_rnti(self):
        network = self.make_two_cell()
        ue = network.add_ue(cell_id="alpha")
        events = []
        network.observe("beta", control=events.append)
        network.deliver_traffic(ue, Direction.UPLINK, 1_000)
        network.run_for(1.0)
        assert ue.is_connected
        old_rnti = ue.rnti
        network.move_ue(ue, "beta")
        assert ue.is_connected
        assert ue.serving_cell == "beta"
        handovers = [m for m in events if isinstance(m, HandoverEvent)]
        assert len(handovers) == 1
        assert handovers[0].source_crnti == old_rnti
        assert handovers[0].target_crnti == ue.rnti

    def test_handover_forwards_backlog(self):
        network = self.make_two_cell()
        ue = network.add_ue(cell_id="alpha")
        seen_beta = []
        network.observe("beta", pdcch_batch=seen_beta.append)
        network.deliver_traffic(ue, Direction.UPLINK, 1)
        network.run_for(1.0)
        network.deliver_traffic(ue, Direction.DOWNLINK, 200_000)
        network.move_ue(ue, "beta")
        network.run_for(3.0)
        granted = sum(int(batch.tbs_bytes.sum()) for batch in seen_beta)
        assert granted >= 190_000

    def test_itinerary_validation(self):
        network = self.make_two_cell()
        ue = network.add_ue()
        with pytest.raises(ValueError):
            network.apply_itinerary(ue, [MobilityStep(1.0, "gamma")])

    def test_itinerary_executes(self):
        network = self.make_two_cell()
        ue = network.add_ue(cell_id="alpha")
        network.apply_itinerary(ue, [MobilityStep(1.0, "beta"),
                                     MobilityStep(2.0, "alpha")])
        network.run_for(1.5)
        assert ue.serving_cell == "beta"
        network.run_for(1.0)
        assert ue.serving_cell == "alpha"


class TestObserve:
    def test_unknown_cell_rejected(self, net):
        with pytest.raises(ValueError):
            net.observe("nope", pdcch_batch=lambda batch: None)

    def test_marks_sniffer_deployed(self, net):
        net.observe("alpha", pdcch_batch=lambda batch: None)
        assert net.cells["alpha"].sniffer_deployed

    def test_run_for_negative_rejected(self, net):
        with pytest.raises(ValueError):
            net.run_for(-1.0)

    def test_identity_leak_only_on_rrc_setup(self, net):
        """RRC requests carry the TMSI; nothing else in the clear does."""
        ue = net.add_ue()
        control = []
        net.observe("alpha", control=control.append)
        net.deliver_traffic(ue, Direction.UPLINK, 1_000)
        net.run_for(2.0)
        requests = [m for m in control
                    if isinstance(m, RRCConnectionRequest)]
        assert requests and all(r.s_tmsi == ue.tmsi for r in requests)


class TestSecondsToMicroseconds:
    """Durations in seconds round to the nearest µs; they never truncate.

    ``int(2.01 * 1e6)`` is 2,009,999: 38 of the durations 0.01 .. 20.00 s
    lose a microsecond that way.
    """

    def test_run_for_advances_exactly(self, net):
        expected = 0
        for hundredths in range(1, 2001):
            net.run_for(hundredths / 100)
            expected += hundredths * 10_000
            assert net.clock.now_us == expected

    @staticmethod
    def _connected(**cell_kwargs):
        network = LTENetwork(seed=5)
        network.add_cell("alpha", **cell_kwargs)
        ue = network.add_ue()
        network.cells["alpha"].enb.connect(ue)
        return network, network.cells["alpha"].enb, ue

    def test_inactivity_timer_fires_on_time(self):
        network, _, ue = self._connected(inactivity_timeout_s=2.01)
        network.clock.run_until(2_009_999)
        assert ue.is_connected
        network.clock.run_until(2_010_000)
        assert not ue.is_connected

    def test_rnti_refresh_fires_on_time(self):
        network, enb, _ = self._connected(
            obfuscation=ObfuscationConfig(rnti_refresh_s=2.01))
        network.clock.run_until(2_009_999)
        assert enb.obfuscation_stats.rnti_refreshes == 0
        network.clock.run_until(2_010_000)
        assert enb.obfuscation_stats.rnti_refreshes == 1
