"""The eNodeB: RNTI management, RRC signalling, and the TTI grant loop.

This is the heart of the radio-layer substrate.  The eNB:

* allocates C-RNTIs and runs the (cleartext) RRC connection handshake
  whose Msg3/Msg4 pair leaks the C-RNTI <-> TMSI binding;
* queues downlink and uplink backlog per connected UE;
* runs a per-TTI scheduling loop that converts backlog into DCI grants,
  emitting each grant on the PDCCH where sniffers can observe it;
* enforces the RRC inactivity timer (default 10 s, as in the paper),
  releasing idle UEs and thereby forcing the RNTI churn that the
  attack's identity-mapping stage must cope with.

The TTI loop is demand-driven: it only runs while some UE has backlog,
so quiet air time costs nothing to simulate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .. import obs
from .channel import ChannelProfile, UELink
from .dci import DCIFormat, DCIMessage, Direction, PDCCHTransmission
from .identifiers import RA_RNTI_MAX, RA_RNTI_MIN, RNTIAllocator
from .obfuscation import (NO_OBFUSCATION, ObfuscationConfig,
                          ObfuscationStats)
from .rrc import (ControlMessage, PagingMessage, RACHPreamble,
                  RandomAccessResponse, RRCConnectionRelease,
                  RRCConnectionRequest, RRCConnectionSetup)
from .scheduler import (Allocation, CrossTraffic, Demand, MACScheduler,
                        make_scheduler)
from .sim import SECOND_US, TTI_US, SimClock
from .tbs import grant_for_bytes
from .ue import UE

PDCCHObserver = Callable[[PDCCHTransmission], None]
ControlObserver = Callable[[ControlMessage], None]


@dataclass(frozen=True)
class HandoverContext:
    """What the source cell forwards to the target during X2 handover."""

    rnti: int
    dl_backlog: int
    ul_backlog: int


@dataclass
class UEContext:
    """eNB-side state for one RRC-connected UE."""

    ue: UE
    rnti: int
    link: UELink
    dl_backlog: int = 0
    ul_backlog: int = 0
    last_activity_us: int = 0
    release_pending: bool = field(default=False, repr=False)

    def backlog(self, direction: Direction) -> int:
        return self.dl_backlog if direction is Direction.DOWNLINK else self.ul_backlog

    def drain(self, direction: Direction, amount: int) -> None:
        if direction is Direction.DOWNLINK:
            self.dl_backlog = max(0, self.dl_backlog - amount)
        else:
            self.ul_backlog = max(0, self.ul_backlog - amount)

    @property
    def total_backlog(self) -> int:
        return self.dl_backlog + self.ul_backlog


class ENodeB:
    """A base station serving one cell."""

    def __init__(
        self,
        cell_id: str,
        clock: SimClock,
        rng: random.Random,
        channel_profile: Optional[ChannelProfile] = None,
        scheduler_name: str = "round-robin",
        total_prb: int = 50,
        inactivity_timeout_s: float = 10.0,
        cross_traffic: Optional[CrossTraffic] = None,
        obfuscation: Optional[ObfuscationConfig] = None,
        tti_us: int = TTI_US,
    ) -> None:
        if inactivity_timeout_s <= 0:
            raise ValueError(
                f"inactivity_timeout_s must be positive: {inactivity_timeout_s}")
        if tti_us <= 0:
            raise ValueError(f"tti_us must be positive: {tti_us}")
        self.cell_id = cell_id
        self._tti_us = tti_us
        self._clock = clock
        self._rng = rng
        self._profile = channel_profile or ChannelProfile()
        self._dl_scheduler: MACScheduler = make_scheduler(scheduler_name)
        self._ul_scheduler: MACScheduler = make_scheduler(scheduler_name)
        self._total_prb = total_prb
        self._inactivity_us = int(inactivity_timeout_s * SECOND_US)
        self._cross_traffic = cross_traffic or CrossTraffic(mean_load=0.0)
        self._rnti_pool = RNTIAllocator(rng)
        self._contexts: Dict[int, UEContext] = {}        # rnti -> context
        self._context_by_ue: Dict[UE, UEContext] = {}
        self._tti_running = False
        self.pdcch_observers: List[PDCCHObserver] = []
        self.control_observers: List[ControlObserver] = []
        self.obfuscation = obfuscation or NO_OBFUSCATION
        self.obfuscation_stats = ObfuscationStats()
        #: Counters for tests and capacity accounting.
        self.grants_issued = 0
        self.bytes_granted = 0
        self.harq_retransmissions = 0
        # Registry counters for the demand-driven TTI loop (how much
        # air time the simulator actually scheduled vs skipped).
        self._ttis_obs = obs.counter("sim.ttis")
        self._grants_obs = obs.counter("sim.grants")

    # -- observer plumbing ----------------------------------------------------

    def _emit_pdcch(self, transmission: PDCCHTransmission) -> None:
        for observer in self.pdcch_observers:
            observer(transmission)

    def _emit_control(self, message: ControlMessage) -> None:
        for observer in self.control_observers:
            observer(message)

    # -- RRC connection management ---------------------------------------------

    def connect(self, ue: UE) -> int:
        """Run the RRC connection establishment; returns the new C-RNTI.

        Emits the full Msg1-Msg4 handshake on the control feed so that a
        sniffer can perform passive identity mapping.
        """
        if ue in self._context_by_ue:
            raise RuntimeError(f"{ue.name} already connected to {self.cell_id}")
        if ue.tmsi is None:
            raise RuntimeError(f"{ue.name} has no TMSI (not attached)")
        now = self._clock.now_us
        rnti = self._rnti_pool.allocate()
        ra_rnti = self._rng.randint(RA_RNTI_MIN, RA_RNTI_MAX)
        preamble = self._rng.randrange(64)
        self._emit_control(RACHPreamble(now, ra_rnti, preamble))
        self._emit_control(RandomAccessResponse(now, ra_rnti, rnti))
        self._emit_control(RRCConnectionRequest(now, rnti, ue.tmsi))
        self._emit_control(RRCConnectionSetup(now, rnti, ue.tmsi))
        self._register(ue, rnti)
        return rnti

    def admit_handover(self, ue: UE) -> int:
        """Admit a UE arriving via X2 handover (no cleartext TMSI leak)."""
        if ue in self._context_by_ue:
            raise RuntimeError(f"{ue.name} already connected to {self.cell_id}")
        rnti = self._rnti_pool.allocate()
        self._register(ue, rnti)
        return rnti

    def _register(self, ue: UE, rnti: int) -> None:
        context = UEContext(ue=ue, rnti=rnti,
                            link=UELink(self._profile, self._rng),
                            last_activity_us=self._clock.now_us)
        self._contexts[rnti] = context
        self._context_by_ue[ue] = context
        ue.on_connected(self._clock.now_us, self.cell_id, rnti)
        self._schedule_inactivity_check(context)
        if self.obfuscation.rnti_refresh_s is not None:
            self._schedule_rnti_refresh(context)

    def release(self, ue: UE, announce: bool = True) -> None:
        """Release a UE's RRC connection and return its RNTI to the pool."""
        context = self._context_by_ue.pop(ue, None)
        if context is None:
            return
        del self._contexts[context.rnti]
        self._rnti_pool.release(context.rnti)
        if announce:
            self._emit_control(
                RRCConnectionRelease(self._clock.now_us, context.rnti))
        self._forget_rnti(context.rnti)
        ue.on_released()

    def _forget_rnti(self, rnti: int) -> None:
        """Drop a retired RNTI's scheduler state in both directions."""
        for scheduler in (self._dl_scheduler, self._ul_scheduler):
            forget = getattr(scheduler, "forget", None)
            if forget is not None:
                forget(rnti)

    def detach_for_handover(self, ue: UE) -> "HandoverContext":
        """Remove a UE that is handing over.

        Returns the RNTI it held plus any unserved backlog, which the
        target cell re-queues (X2 data forwarding).
        """
        context = self._context_by_ue.get(ue)
        if context is None:
            raise RuntimeError(f"{ue.name} not connected to {self.cell_id}")
        handover = HandoverContext(rnti=context.rnti,
                                   dl_backlog=context.dl_backlog,
                                   ul_backlog=context.ul_backlog)
        self.release(ue, announce=False)
        return handover

    def restore_backlog(self, ue: UE, dl_backlog: int, ul_backlog: int) -> None:
        """Re-queue forwarded backlog for a UE admitted via handover."""
        context = self._context_by_ue.get(ue)
        if context is None:
            raise RuntimeError(f"{ue.name} not connected to {self.cell_id}")
        context.dl_backlog += dl_backlog
        context.ul_backlog += ul_backlog
        if context.total_backlog > 0:
            self._ensure_tti_loop()

    def broadcast_control(self, message: ControlMessage) -> None:
        """Publish a control-plane event to this cell's observers."""
        self._emit_control(message)

    def page(self, tmsi: int) -> None:
        """Broadcast a paging message for a TMSI (EPC-originated)."""
        self._emit_control(PagingMessage(self._clock.now_us, tmsi))

    # -- traffic ingress ---------------------------------------------------------

    def enqueue(self, ue: UE, direction: Direction, size_bytes: int) -> None:
        """Queue application bytes for a connected UE."""
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive: {size_bytes}")
        context = self._context_by_ue.get(ue)
        if context is None:
            raise RuntimeError(f"{ue.name} not connected to {self.cell_id}")
        if direction is Direction.DOWNLINK:
            context.dl_backlog += size_bytes
        else:
            context.ul_backlog += size_bytes
        context.last_activity_us = self._clock.now_us
        self._ensure_tti_loop()

    def is_connected(self, ue: UE) -> bool:
        return ue in self._context_by_ue

    def context_for(self, ue: UE) -> Optional[UEContext]:
        return self._context_by_ue.get(ue)

    @property
    def connected_count(self) -> int:
        return len(self._contexts)

    # -- RNTI-refresh countermeasure (§VIII-B) -----------------------------------

    def _schedule_rnti_refresh(self, context: UEContext) -> None:
        interval = int(self.obfuscation.rnti_refresh_s * SECOND_US)
        self._clock.schedule(interval, lambda: self._refresh_rnti(context))

    def _refresh_rnti(self, context: UEContext) -> None:
        # Context may have been torn down since scheduling.
        if self._contexts.get(context.rnti) is not context:
            return
        old_rnti = context.rnti
        new_rnti = self._rnti_pool.allocate()
        del self._contexts[old_rnti]
        self._rnti_pool.release(old_rnti)
        context.rnti = new_rnti
        self._contexts[new_rnti] = context
        # The reassignment rides an *encrypted* RRC reconfiguration —
        # nothing is emitted on the cleartext control feed, which is
        # exactly why it disrupts the sniffer's identity tracking.
        context.ue.identity.rnti = new_rnti
        context.ue.rnti_history.append(
            (self._clock.now_us, self.cell_id, new_rnti))
        self._forget_rnti(old_rnti)
        self.obfuscation_stats.rnti_refreshes += 1
        self._schedule_rnti_refresh(context)

    # -- inactivity management ----------------------------------------------------

    def _schedule_inactivity_check(self, context: UEContext) -> None:
        deadline = context.last_activity_us + self._inactivity_us
        self._clock.schedule_at(deadline, lambda: self._inactivity_check(context))

    def _inactivity_check(self, context: UEContext) -> None:
        # Context may have been torn down (handover, explicit release).
        if self._contexts.get(context.rnti) is not context:
            return
        now = self._clock.now_us
        idle_for = now - context.last_activity_us
        if idle_for >= self._inactivity_us and context.total_backlog == 0:
            self.release(context.ue)
        else:
            self._schedule_inactivity_check(context)

    # -- the TTI grant loop ----------------------------------------------------------

    def _pad_allocations(self, allocations, available: int):
        """Round each grant up to the padding quantum (morphing defence)."""
        quantum = self.obfuscation.padding_quantum
        leftover = available - sum(a.n_prb for a in allocations)
        padded = []
        for allocation in allocations:
            target = -(-allocation.tbs_bytes // quantum) * quantum
            budget = allocation.n_prb + max(0, leftover)
            n_prb, tbs = grant_for_bytes(target, allocation.mcs, budget)
            if tbs > allocation.tbs_bytes and n_prb >= allocation.n_prb:
                leftover -= n_prb - allocation.n_prb
                self.obfuscation_stats.padding_bytes += (
                    tbs - allocation.tbs_bytes)
                padded.append(Allocation(rnti=allocation.rnti,
                                         direction=allocation.direction,
                                         mcs=allocation.mcs, n_prb=n_prb,
                                         tbs_bytes=tbs))
            else:
                padded.append(allocation)
        return padded

    def _chaff_allocations(self, direction: Direction, available: int):
        """Dummy grants for idle UEs, blurring interarrival structure."""
        probability = self.obfuscation.chaff_probability
        if probability <= 0.0 or not self._contexts:
            return []
        if self._rng.random() >= probability:
            return []
        idle = [context for context in self._contexts.values()
                if context.backlog(direction) == 0]
        if not idle:
            return []
        target = self._rng.choice(idle)
        size = self._rng.randint(64, self.obfuscation.chaff_max_bytes)
        n_prb, tbs = grant_for_bytes(size, target.link.current_mcs(),
                                     max(1, available // 4))
        self.obfuscation_stats.chaff_bytes += tbs
        self.obfuscation_stats.chaff_grants += 1
        return [Allocation(rnti=target.rnti, direction=direction,
                           mcs=target.link.current_mcs(), n_prb=n_prb,
                           tbs_bytes=tbs)]

    #: HARQ round-trip time in TTIs (FDD LTE: 8 ms).
    _HARQ_RTT_TTIS = 8
    #: Maximum HARQ transmission attempts (standard default: 4).
    _HARQ_MAX_ATTEMPTS = 4

    def _maybe_retransmit(self, dci: DCIMessage, attempt: int) -> None:
        """Queue a HARQ retransmission of a failed transport block.

        A retransmission re-airs the *same grant* one HARQ RTT later —
        visible to the sniffer as a duplicate-size DCI, a real artefact
        of live captures that the classifier must tolerate.
        """
        if attempt >= self._HARQ_MAX_ATTEMPTS:
            return
        if self._rng.random() >= self._profile.harq_bler:
            return

        def retransmit() -> None:
            # The UE may have been released meanwhile; retransmissions
            # to a retired RNTI are simply not sent.
            if dci.rnti not in self._contexts:
                return
            self._emit_pdcch(PDCCHTransmission(time_us=self._clock.now_us,
                                               encoded=dci.encode()))
            self.harq_retransmissions += 1
            self.grants_issued += 1
            self._grants_obs.inc()
            self._maybe_retransmit(dci, attempt + 1)

        self._clock.schedule(self._HARQ_RTT_TTIS * self._tti_us, retransmit)

    def _ensure_tti_loop(self) -> None:
        if not self._tti_running:
            self._tti_running = True
            self._clock.schedule(self._tti_us, self._on_tti)

    def _demands(self, direction: Direction) -> List[Demand]:
        demands = []
        for context in self._contexts.values():
            backlog = context.backlog(direction)
            if backlog > 0:
                demands.append(Demand(rnti=context.rnti, direction=direction,
                                      backlog_bytes=backlog,
                                      mcs=context.link.current_mcs()))
        return demands

    def _on_tti(self) -> None:
        now = self._clock.now_us
        self._ttis_obs.inc()
        occupied = self._cross_traffic.occupied_prb(self._total_prb, self._rng)
        available = max(1, self._total_prb - occupied)
        any_backlog = False
        for direction, scheduler in ((Direction.DOWNLINK, self._dl_scheduler),
                                     (Direction.UPLINK, self._ul_scheduler)):
            demands = self._demands(direction)
            allocations = (scheduler.allocate(demands, available)
                           if demands else [])
            self.obfuscation_stats.useful_bytes += sum(
                a.tbs_bytes for a in allocations)
            if self.obfuscation.padding_quantum > 0:
                allocations = self._pad_allocations(allocations, available)
            allocations.extend(self._chaff_allocations(direction, available))
            for allocation in allocations:
                fmt = (DCIFormat.FORMAT_1A
                       if direction is Direction.DOWNLINK else DCIFormat.FORMAT_0)
                dci = DCIMessage(fmt=fmt, rnti=allocation.rnti,
                                 mcs=allocation.mcs, n_prb=allocation.n_prb)
                self._emit_pdcch(PDCCHTransmission(time_us=now,
                                                   encoded=dci.encode()))
                context = self._contexts[allocation.rnti]
                context.drain(direction, allocation.tbs_bytes)
                context.last_activity_us = now
                self.grants_issued += 1
                self._grants_obs.inc()
                self.bytes_granted += allocation.tbs_bytes
                if self._profile.harq_bler > 0.0:
                    self._maybe_retransmit(dci, attempt=1)
        for context in self._contexts.values():
            context.link.update()
            if context.total_backlog > 0:
                any_backlog = True
        if any_backlog:
            self._clock.schedule(self._tti_us, self._on_tti)
        else:
            self._tti_running = False
