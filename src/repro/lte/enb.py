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

Per-UE state lives in parallel int64 *slot columns* — RNTI, backlogs,
CQI, last-activity time — that the TTI loop (:mod:`repro.lte.engine`,
a scalar lane for small cells and an array lane for crowded ones)
reads and writes directly; :class:`UEContext` is the RRC side's handle
on one UE's slot.  The loop is demand-driven: it only runs while some
UE has backlog, so quiet air time costs nothing to simulate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from .channel import ChannelProfile
from .dci import Direction
from .engine import GrantBatchObserver, TTILoop
from .identifiers import RA_RNTI_MAX, RA_RNTI_MIN, RNTIAllocator
from .obfuscation import (NO_OBFUSCATION, ObfuscationConfig,
                          ObfuscationStats)
from .rrc import (ControlMessage, PagingMessage, RACHPreamble,
                  RandomAccessResponse, RRCConnectionRelease,
                  RRCConnectionRequest, RRCConnectionSetup)
from .scheduler import CrossTraffic
from .sim import TTI_US, SimClock, seconds
from .tbs import MAX_PRB, cqi_to_mcs
from .ue import UE
from .vecsched import make_vector_scheduler

ControlObserver = Callable[[ControlMessage], None]

#: The slot columns, all int64 and indexed by UE slot.
_COLUMNS = ("_arr_rnti", "_arr_dl", "_arr_ul", "_arr_cqi", "_arr_last")


@dataclass(frozen=True)
class HandoverContext:
    """What the source cell forwards to the target during X2 handover."""

    rnti: int
    dl_backlog: int
    ul_backlog: int


class UEContext:
    """eNB-side handle for one RRC-connected UE.

    The UE's scalar state — backlogs, CQI, last-activity time — lives
    in the eNB's slot columns at ``slot``; the properties below read it
    from there, so the TTI loop and the RRC code always see one state.
    """

    __slots__ = ("_enb", "slot", "ue", "rnti")

    def __init__(self, enb: "ENodeB", slot: int, ue: UE, rnti: int) -> None:
        self._enb = enb
        self.slot = slot
        self.ue = ue
        self.rnti = rnti

    @property
    def dl_backlog(self) -> int:
        return int(self._enb._arr_dl[self.slot])

    @property
    def ul_backlog(self) -> int:
        return int(self._enb._arr_ul[self.slot])

    @property
    def total_backlog(self) -> int:
        return self.dl_backlog + self.ul_backlog

    @property
    def last_activity_us(self) -> int:
        return int(self._enb._arr_last[self.slot])

    @property
    def cqi(self) -> int:
        return int(self._enb._arr_cqi[self.slot])

    @property
    def mcs(self) -> int:
        """The MCS link adaptation selects for the UE's current CQI."""
        return cqi_to_mcs(self.cqi)


class ENodeB(TTILoop):
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
        if not 1 <= total_prb <= MAX_PRB:
            raise ValueError(
                f"total_prb out of range [1, {MAX_PRB}]: {total_prb}")
        self.cell_id = cell_id
        self._tti_us = tti_us
        self._clock = clock
        self._rng = rng
        self._profile = channel_profile or ChannelProfile()
        self._dl_scheduler = make_vector_scheduler(scheduler_name)
        self._ul_scheduler = make_vector_scheduler(scheduler_name)
        self._total_prb = total_prb
        self._inactivity_us = seconds(inactivity_timeout_s)
        self._cross_traffic = cross_traffic or CrossTraffic(mean_load=0.0)
        self._rnti_pool = RNTIAllocator(rng)
        self._contexts: Dict[int, UEContext] = {}        # rnti -> context
        self._context_by_ue: Dict[UE, UEContext] = {}
        self._tti_running = False
        self.control_observers: List[ControlObserver] = []
        #: Columnar grant feed: one :class:`~repro.lte.engine.GrantBatch`
        #: per observation point (see :mod:`repro.lte.engine`).
        self.grant_batch_observers: List[GrantBatchObserver] = []
        # Grants not yet aired: time, direction, RNTI, MCS, PRBs and TBS
        # columns, aired by ``_flush_grants``; ``_flush_deferred`` is
        # set while the running clock call holds a flush for them.
        self._span_columns: Tuple[List[int], ...] = tuple(
            [] for _ in range(6))
        self._flush_deferred = False
        self.obfuscation = obfuscation or NO_OBFUSCATION
        self.obfuscation_stats = ObfuscationStats()
        # Padding and chaff add scalar rng draws to each TTI; they run on
        # the scalar lane at any cell size (see ``TTILoop._pad_and_chaff``).
        self._obfuscating = (self.obfuscation.padding_quantum > 0
                             or self.obfuscation.chaff_probability > 0.0)
        self._capacity = 16
        for name in _COLUMNS:
            setattr(self, name, np.zeros(self._capacity, dtype=np.int64))
        self._free_slots = list(range(self._capacity - 1, -1, -1))
        self._order_dirty = True
        self._ordered_slots = np.empty(0, dtype=np.int64)
        self._slot_list: List[int] = []
        #: Counters for tests and capacity accounting.
        self.grants_issued = 0
        self.bytes_granted = 0
        self.harq_retransmissions = 0
        # Registry counters for the demand-driven TTI loop (how much
        # air time the simulator actually scheduled vs skipped).
        self._ttis_obs = obs.counter("sim.ttis")
        self._grants_obs = obs.counter("sim.grants")

    def close(self) -> None:
        """Forget the connected UEs' contexts and detach every observer.

        A :class:`UEContext` points back at its eNB, and an observer
        usually at a sniffer; the cell's clock must be cleared too
        (:meth:`LTENetwork.close` does both) for the deployment to be
        freed by reference counting rather than the cyclic GC.
        """
        self._contexts.clear()
        self._context_by_ue.clear()
        self.control_observers.clear()
        self.grant_batch_observers.clear()

    # -- observer plumbing ----------------------------------------------------

    def _emit_control(self, message: ControlMessage) -> None:
        # An observation point: the grants aired before this message
        # reach the observers first.
        self._flush_grants()
        for observer in self.control_observers:
            observer(message)

    # -- slot columns ------------------------------------------------------------

    def _allocate_slot(self) -> int:
        if not self._free_slots:
            old = self._capacity
            new = old * 2
            for name in _COLUMNS:
                grown = np.zeros(new, dtype=np.int64)
                grown[:old] = getattr(self, name)
                setattr(self, name, grown)
            self._free_slots.extend(range(new - 1, old - 1, -1))
            self._capacity = new
        return self._free_slots.pop()

    def _ordered(self) -> np.ndarray:
        """Slots of live contexts in RRC-connection (dict) order."""
        if self._order_dirty:
            self._slot_list = [context.slot
                               for context in self._contexts.values()]
            self._ordered_slots = np.array(self._slot_list, dtype=np.int64)
            self._order_dirty = False
        return self._ordered_slots

    def _backlog_column(self, direction: Direction) -> np.ndarray:
        return self._arr_dl if direction is Direction.DOWNLINK else self._arr_ul

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
        # One draw on the shared rng: the UE's initial CQI.
        profile = self._profile
        initial_cqi = self._rng.randint(profile.cqi_floor,
                                        profile.cqi_ceiling)
        slot = self._allocate_slot()
        now = self._clock.now_us
        self._arr_rnti[slot] = rnti
        self._arr_dl[slot] = 0
        self._arr_ul[slot] = 0
        self._arr_cqi[slot] = initial_cqi
        self._arr_last[slot] = now
        context = UEContext(self, slot, ue, rnti)
        self._contexts[rnti] = context
        self._context_by_ue[ue] = context
        self._order_dirty = True
        ue.on_connected(now, self.cell_id, rnti)
        self._schedule_inactivity_check(context)
        if self.obfuscation.rnti_refresh_s is not None:
            self._schedule_rnti_refresh(context)

    def release(self, ue: UE, announce: bool = True) -> None:
        """Release a UE's RRC connection and return its RNTI to the pool."""
        context = self._context_by_ue.pop(ue, None)
        if context is None:
            return
        del self._contexts[context.rnti]
        self._free_slots.append(context.slot)
        self._order_dirty = True
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
        self._arr_dl[context.slot] += dl_backlog
        self._arr_ul[context.slot] += ul_backlog
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
        self._backlog_column(direction)[context.slot] += size_bytes
        self._arr_last[context.slot] = self._clock.now_us
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
        interval = seconds(self.obfuscation.rnti_refresh_s)
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
        self._arr_rnti[context.slot] = new_rnti
        self._contexts[new_rnti] = context
        # The context moves to the end of the dict; the cached slot
        # order must follow so CQI draws stay in order.
        self._order_dirty = True
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
