"""Tests for the eNodeB: RRC lifecycle, grants, inactivity, handover."""

import random

import pytest

from repro.fiveg.gnb import GNodeB
from repro.lte.channel import ChannelProfile
from repro.lte.dci import DCIFormat, DCIMessage, Direction
from repro.lte.enb import ENodeB
from repro.lte.epc import EPC
from repro.lte.identifiers import is_crnti, make_imsi
from repro.lte.rrc import (PagingMessage, RACHPreamble,
                           RandomAccessResponse, RRCConnectionRelease,
                           RRCConnectionRequest, RRCConnectionSetup)
from repro.lte.sim import SECOND_US, SimClock
from repro.lte.tbs import MAX_PRB
from repro.lte.ue import UE, RRCState


def observe_grants(enb):
    """Record the cell's grant batches; returns the growing list."""
    batches = []
    enb.grant_batch_observers.append(batches.append)
    return batches


@pytest.fixture
def setup():
    clock = SimClock()
    enb = ENodeB("cell-x", clock, random.Random(1),
                 channel_profile=ChannelProfile(mean_cqi=12, cqi_span=0),
                 inactivity_timeout_s=10.0)
    epc = EPC(random.Random(2))
    ue = UE(make_imsi(random.Random(3)))
    epc.attach(ue)
    ue.serving_cell = "cell-x"
    return clock, enb, ue


class TestConnection:
    def test_connect_assigns_crnti(self, setup):
        _, enb, ue = setup
        rnti = enb.connect(ue)
        assert is_crnti(rnti)
        assert ue.is_connected
        assert ue.rnti == rnti
        assert enb.connected_count == 1

    def test_connect_emits_full_handshake(self, setup):
        _, enb, ue = setup
        messages = []
        enb.control_observers.append(messages.append)
        rnti = enb.connect(ue)
        kinds = [type(m) for m in messages]
        assert kinds == [RACHPreamble, RandomAccessResponse,
                         RRCConnectionRequest, RRCConnectionSetup]
        assert messages[1].temp_crnti == rnti
        assert messages[2].s_tmsi == ue.tmsi
        assert messages[3].contention_resolution_id == ue.tmsi

    def test_connect_twice_rejected(self, setup):
        _, enb, ue = setup
        enb.connect(ue)
        with pytest.raises(RuntimeError):
            enb.connect(ue)

    def test_connect_without_tmsi_rejected(self, setup):
        clock, enb, _ = setup
        stranger = UE(make_imsi(random.Random(9)))
        with pytest.raises(RuntimeError):
            enb.connect(stranger)

    def test_release_returns_rnti_and_announces(self, setup):
        _, enb, ue = setup
        messages = []
        rnti = enb.connect(ue)
        enb.control_observers.append(messages.append)
        enb.release(ue)
        assert not ue.is_connected
        assert ue.rnti is None
        assert any(isinstance(m, RRCConnectionRelease) and m.crnti == rnti
                   for m in messages)

    def test_release_unknown_ue_is_noop(self, setup):
        _, enb, ue = setup
        enb.release(ue)   # never connected
        assert enb.connected_count == 0

    def test_reconnect_gets_new_rnti_usually(self, setup):
        _, enb, ue = setup
        first = enb.connect(ue)
        enb.release(ue)
        second = enb.connect(ue)
        # Random allocation: a collision is possible but vanishingly
        # rare; assert distinctness for this seed.
        assert first != second


class TestTraffic:
    def test_enqueue_requires_connection(self, setup):
        _, enb, ue = setup
        with pytest.raises(RuntimeError):
            enb.enqueue(ue, Direction.DOWNLINK, 100)

    def test_enqueue_rejects_nonpositive(self, setup):
        _, enb, ue = setup
        enb.connect(ue)
        with pytest.raises(ValueError):
            enb.enqueue(ue, Direction.DOWNLINK, 0)

    def test_backlog_drains_via_grants(self, setup):
        clock, enb, ue = setup
        batches = observe_grants(enb)
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 50_000)
        clock.run_until(2 * SECOND_US)
        context = enb.context_for(ue)
        assert context.dl_backlog == 0
        assert sum(int(batch.tbs_bytes.sum()) for batch in batches) >= 50_000
        assert enb.grants_issued == sum(len(batch) for batch in batches)

    def test_uplink_and_downlink_grants_use_correct_formats(self, setup):
        clock, enb, ue = setup
        batches = observe_grants(enb)
        rnti = enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 5_000)
        enb.enqueue(ue, Direction.UPLINK, 5_000)
        clock.run_until(SECOND_US)
        # Each grant row, aired as the DCI format of its direction,
        # blind-decodes back to the row's RNTI, direction and size.
        rows = [row for batch in batches for row in zip(
            batch.direction.tolist(), batch.rntis.tolist(),
            batch.mcs.tolist(), batch.n_prb.tolist(),
            batch.tbs_bytes.tolist())]
        directions = set()
        for direction, grant_rnti, mcs, n_prb, tbs in rows:
            fmt = (DCIFormat.FORMAT_1A if direction == Direction.DOWNLINK
                   else DCIFormat.FORMAT_0)
            dci = DCIMessage(fmt=fmt, rnti=grant_rnti, mcs=mcs,
                             n_prb=n_prb).encode().blind_decode()
            assert (dci.rnti, dci.direction, dci.tbs_bytes) == (
                rnti, direction, tbs)
            directions.add(dci.direction)
        assert directions == {Direction.DOWNLINK, Direction.UPLINK}

    def test_grants_address_the_ue_rnti(self, setup):
        clock, enb, ue = setup
        batches = observe_grants(enb)
        rnti = enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 10_000)
        clock.run_until(SECOND_US)
        assert batches
        assert all((batch.rntis == rnti).all() for batch in batches)

    def test_tti_loop_stops_when_idle(self, setup):
        clock, enb, ue = setup
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 1_000)
        clock.run_until(SECOND_US)
        assert not enb._tti_running


class TestInactivity:
    def test_idle_ue_released_after_timeout(self, setup):
        clock, enb, ue = setup
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 1_000)
        clock.run_until(15 * SECOND_US)
        assert not ue.is_connected
        assert ue.rrc_state is RRCState.IDLE

    def test_active_ue_not_released(self, setup):
        clock, enb, ue = setup
        enb.connect(ue)
        # Keep traffic flowing every 5 s — under the 10 s timeout.
        for step in range(6):
            clock.run_until((5 * step + 1) * SECOND_US)
            if ue.is_connected:
                enb.enqueue(ue, Direction.UPLINK, 500)
        assert ue.is_connected

    def test_release_happens_near_timeout(self, setup):
        clock, enb, ue = setup
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 100)
        clock.run_until(int(9.5 * SECOND_US))
        assert ue.is_connected
        clock.run_until(25 * SECOND_US)
        assert not ue.is_connected

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            ENodeB("c", SimClock(), random.Random(0),
                   inactivity_timeout_s=0.0)


class TestPRBBudget:
    @pytest.mark.parametrize("total_prb", [0, -1, MAX_PRB + 1])
    def test_prb_budget_out_of_range_rejected_at_construction(self,
                                                              total_prb):
        with pytest.raises(ValueError, match="total_prb"):
            ENodeB("c", SimClock(), random.Random(0), total_prb=total_prb)

    @pytest.mark.parametrize("total_prb", [1, MAX_PRB])
    def test_prb_budget_bounds_accepted(self, total_prb):
        enb = ENodeB("c", SimClock(), random.Random(0), total_prb=total_prb)
        assert enb._total_prb == total_prb


class TestHandover:
    def test_detach_preserves_backlog(self, setup):
        clock, enb, ue = setup
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 10**7)
        clock.run_until(5_000)   # a few TTIs only
        handover = enb.detach_for_handover(ue)
        assert handover.dl_backlog > 0
        assert not ue.is_connected

    def test_detach_not_connected_rejected(self, setup):
        _, enb, ue = setup
        with pytest.raises(RuntimeError):
            enb.detach_for_handover(ue)

    def test_admit_handover_assigns_new_rnti(self, setup):
        clock, enb, ue = setup
        target = ENodeB("cell-y", clock, random.Random(5))
        enb.connect(ue)
        old = enb.detach_for_handover(ue)
        new_rnti = target.admit_handover(ue)
        assert is_crnti(new_rnti)
        assert ue.serving_cell == "cell-y"
        assert ue.rnti == new_rnti
        assert new_rnti != old.rnti or True   # same value possible, rare

    def test_restore_backlog_resumes_grants(self, setup):
        clock, enb, ue = setup
        target = ENodeB("cell-y", clock, random.Random(5))
        batches = observe_grants(target)
        enb.connect(ue)
        enb.enqueue(ue, Direction.DOWNLINK, 50_000)
        clock.run_until(3_000)
        handover = enb.detach_for_handover(ue)
        target.admit_handover(ue)
        target.restore_backlog(ue, handover.dl_backlog, handover.ul_backlog)
        clock.run_until(2 * SECOND_US)
        assert batches
        assert target.context_for(ue).dl_backlog == 0

    def test_restore_backlog_requires_connection(self, setup):
        clock, _, ue = setup
        target = ENodeB("cell-y", clock, random.Random(5))
        with pytest.raises(RuntimeError):
            target.restore_backlog(ue, 100, 0)


class TestPaging:
    def test_page_broadcasts_tmsi(self, setup):
        _, enb, ue = setup
        messages = []
        enb.control_observers.append(messages.append)
        enb.page(ue.tmsi)
        assert isinstance(messages[0], PagingMessage)
        assert messages[0].s_tmsi == ue.tmsi


class TestSchedulerForget:
    """Released RNTIs leave both schedulers' proportional-fair state."""

    @pytest.mark.parametrize("engine", [ENodeB, GNodeB])
    def test_ul_state_holds_only_live_rntis(self, engine):
        clock = SimClock()
        enb = engine("cell-pf", clock, random.Random(5),
                     scheduler_name="proportional-fair",
                     inactivity_timeout_s=10.0)
        epc = EPC(random.Random(6))
        ues = []
        for _ in range(3):
            ue = UE(make_imsi(random.Random(len(ues) + 10)))
            epc.attach(ue)
            ue.serving_cell = "cell-pf"
            ues.append(ue)
        keeper = ues[0]
        enb.connect(keeper)
        for cycle in range(6):
            churner = ues[1 + cycle % 2]
            enb.connect(churner)
            for ue in (keeper, churner):
                enb.enqueue(ue, Direction.UPLINK, 4_000)
                enb.enqueue(ue, Direction.DOWNLINK, 4_000)
            clock.run_until(clock.now_us + 20_000)
            enb.release(churner)
        assert set(enb._ul_scheduler._known.tolist()) <= {keeper.rnti}
