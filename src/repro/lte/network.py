"""The top-level LTE network simulator facade.

:class:`LTENetwork` wires the substrate together — clock, EPC, cells,
UEs — and provides the operations experiments need:

* ``add_cell`` / ``add_ue`` to build a deployment;
* ``start_app_session`` to run an application traffic model on a UE,
  including the *connection side effects* the attack depends on: an
  idle UE with pending uplink performs RACH + RRC setup (leaking its
  TMSI binding), downlink for an idle UE triggers paging first, and the
  inactivity timer later tears the connection down again;
* ``move_ue`` / ``apply_itinerary`` for the handovers of the history
  attack;
* ``observe`` to hang passive sniffers onto a cell's PDCCH feed (as
  columnar grant batches) and its control feed.

Randomness is hierarchical: one master seed derives independent streams
for the EPC, every cell, and every app session, so experiments are
reproducible while components stay statistically independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .. import obs
from .cell import Cell, MobilityStep, validate_itinerary
from .channel import ChannelProfile
from .obfuscation import ObfuscationConfig
from .dci import Direction
from .enb import ENodeB
from .epc import EPC
from .identifiers import IMSI, make_imsi
from .rrc import ControlMessage, HandoverEvent
from .scheduler import CrossTraffic
from .sim import SimClock, milliseconds, seconds
from .ue import UE


@dataclass(frozen=True)
class TrafficEvent:
    """One application-layer arrival produced by an app model.

    ``gap_us`` is the delay since the *previous* event of the same
    session (or since session start for the first event).
    """

    gap_us: int
    direction: Direction
    size_bytes: int

    def __post_init__(self) -> None:
        if self.gap_us < 0:
            raise ValueError(f"gap_us must be >= 0: {self.gap_us}")
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive: {self.size_bytes}")


class AppSessionHandle:
    """Handle to a running app session; allows early termination."""

    def __init__(self) -> None:
        self.active = True
        self.events_delivered = 0
        self.bytes_delivered = 0

    def stop(self) -> None:
        """Stop the session; no further traffic is generated."""
        self.active = False


class LTENetwork:
    """A complete simulated LTE deployment."""

    def __init__(
        self,
        seed: int = 0,
        connection_delay_ms: Tuple[float, float] = (30.0, 80.0),
        paging_delay_ms: Tuple[float, float] = (80.0, 320.0),
    ) -> None:
        self.clock = SimClock()
        self._rng = random.Random(seed)
        self.epc = EPC(self._spawn_rng())
        self.cells: Dict[str, Cell] = {}
        self.ues: List[UE] = []
        self._connection_delay_ms = connection_delay_ms
        self._paging_delay_ms = paging_delay_ms
        self._pending: Dict[UE, List[Tuple[Direction, int]]] = {}
        self._connecting: set = set()

    def _spawn_rng(self) -> random.Random:
        return random.Random(self._rng.getrandbits(64))

    # -- deployment construction ------------------------------------------------

    def add_cell(
        self,
        cell_id: str,
        channel_profile: Optional[ChannelProfile] = None,
        scheduler_name: str = "round-robin",
        total_prb: int = 50,
        inactivity_timeout_s: float = 10.0,
        cross_traffic: Optional[CrossTraffic] = None,
        description: str = "",
        channel: int = 0,
        obfuscation: Optional[ObfuscationConfig] = None,
    ) -> Cell:
        """Create a cell served by a new eNodeB."""
        if cell_id in self.cells:
            raise ValueError(f"cell {cell_id!r} already exists")
        enb = ENodeB(cell_id=cell_id, clock=self.clock,
                     rng=self._spawn_rng(),
                     channel_profile=channel_profile,
                     scheduler_name=scheduler_name, total_prb=total_prb,
                     inactivity_timeout_s=inactivity_timeout_s,
                     cross_traffic=cross_traffic, obfuscation=obfuscation)
        cell = Cell(cell_id=cell_id, enb=enb, description=description,
                    channel=channel)
        self.cells[cell_id] = cell
        return cell

    def add_ue(self, name: Optional[str] = None, imsi: Optional[IMSI] = None,
               cell_id: Optional[str] = None) -> UE:
        """Create, attach, and camp a UE on a cell (first cell by default)."""
        if not self.cells:
            raise RuntimeError("add at least one cell before adding UEs")
        imsi = imsi or make_imsi(self._rng)
        ue = UE(imsi=imsi, name=name)
        self.epc.attach(ue)
        ue.serving_cell = cell_id or next(iter(self.cells))
        if ue.serving_cell not in self.cells:
            raise ValueError(f"unknown cell {ue.serving_cell!r}")
        self.ues.append(ue)
        return ue

    # -- sniffer attachment -------------------------------------------------------

    def observe(
        self,
        cell_id: str,
        control: Optional[Callable[[ControlMessage], None]] = None,
        pdcch_batch: Optional[Callable] = None,
    ) -> None:
        """Attach passive observers to one cell's radio feeds.

        ``pdcch_batch`` receives the cell's grants as columnar
        :class:`~repro.lte.engine.GrantBatch` objects at the cell's
        observation points (:mod:`repro.lte.engine`): before each
        control message reaches ``control``, when ``run_for`` returns,
        and every :data:`~repro.lte.engine.FLUSH_RECORDS` grants.  State
        it builds is complete after ``run_for``; a clock callback that
        reads it mid-run sees the last observation point.
        """
        cell = self._cell(cell_id)
        if pdcch_batch is not None:
            cell.enb.grant_batch_observers.append(pdcch_batch)
        if control is not None:
            cell.enb.control_observers.append(control)
        cell.sniffer_deployed = True

    # -- traffic ---------------------------------------------------------------------

    def start_app_session(
        self,
        ue: UE,
        model,
        start_s: float = 0.0,
        duration_s: Optional[float] = None,
        session_seed: Optional[int] = None,
    ) -> AppSessionHandle:
        """Run an application traffic model on a UE.

        ``model`` is any object with ``session(rng) -> Iterator[TrafficEvent]``
        (see :class:`repro.apps.base.AppTrafficModel`).  The session starts
        ``start_s`` seconds from *now* and, if ``duration_s`` is given,
        stops generating once that much session time has elapsed.
        """
        if start_s < 0:
            raise ValueError(f"start_s must be >= 0: {start_s}")
        rng = (random.Random(session_seed) if session_seed is not None
               else self._spawn_rng())
        iterator = model.session(rng)
        handle = AppSessionHandle()
        start_us = self.clock.now_us + seconds(start_s)
        end_us = (start_us + seconds(duration_s)) if duration_s is not None else None
        self._schedule_next_event(ue, iterator, handle, start_us, end_us)
        return handle

    def _schedule_next_event(self, ue: UE, iterator: Iterator[TrafficEvent],
                             handle: AppSessionHandle, previous_us: int,
                             end_us: Optional[int]) -> None:
        try:
            event = next(iterator)
        except StopIteration:
            handle.active = False
            return
        fire_us = previous_us + event.gap_us
        if end_us is not None and fire_us > end_us:
            handle.active = False
            return

        def fire() -> None:
            if not handle.active:
                return
            self.deliver_traffic(ue, event.direction, event.size_bytes)
            handle.events_delivered += 1
            handle.bytes_delivered += event.size_bytes
            self._schedule_next_event(ue, iterator, handle, fire_us, end_us)

        self.clock.schedule_at(fire_us, fire)

    def deliver_traffic(self, ue: UE, direction: Direction,
                        size_bytes: int) -> None:
        """Inject application bytes for a UE, handling RRC state.

        Connected UEs are enqueued directly.  Idle UEs first go through
        connection establishment: paging (for downlink) plus RACH/RRC
        latency, during which arrivals are buffered and flushed once the
        connection completes.
        """
        if ue.is_connected:
            self._cell(ue.serving_cell).enb.enqueue(ue, direction, size_bytes)
            return
        if ue in self._connecting:
            self._pending[ue].append((direction, size_bytes))
            return
        self._connecting.add(ue)
        self._pending[ue] = [(direction, size_bytes)]
        cell = self._cell(ue.serving_cell)
        delay_ms = self._rng.uniform(*self._connection_delay_ms)
        if direction is Direction.DOWNLINK:
            cell.enb.page(ue.tmsi)
            delay_ms += self._rng.uniform(*self._paging_delay_ms)
        self.clock.schedule(milliseconds(delay_ms),
                            lambda: self._complete_connection(ue))

    def _complete_connection(self, ue: UE) -> None:
        self._connecting.discard(ue)
        backlog = self._pending.pop(ue, [])
        cell = self._cell(ue.serving_cell)
        if not ue.is_connected:
            cell.enb.connect(ue)
        for direction, size_bytes in backlog:
            cell.enb.enqueue(ue, direction, size_bytes)

    # -- mobility -----------------------------------------------------------------------

    def move_ue(self, ue: UE, target_cell_id: str) -> None:
        """Move a UE to another cell now (handover if connected)."""
        target = self._cell(target_cell_id)
        if ue.serving_cell == target_cell_id:
            return
        if not ue.is_connected:
            ue.on_cell_reselect(target_cell_id)
            return
        source = self._cell(ue.serving_cell)
        forwarded = source.enb.detach_for_handover(ue)
        new_rnti = target.enb.admit_handover(ue)
        target.enb.restore_backlog(ue, forwarded.dl_backlog,
                                   forwarded.ul_backlog)
        event = HandoverEvent(time_us=self.clock.now_us,
                              source_cell=source.cell_id,
                              target_cell=target.cell_id,
                              source_crnti=forwarded.rnti,
                              target_crnti=new_rnti)
        source.enb.broadcast_control(event)
        target.enb.broadcast_control(event)

    def apply_itinerary(self, ue: UE, steps: List[MobilityStep]) -> None:
        """Schedule a sequence of cell moves for a UE."""
        validate_itinerary(steps, set(self.cells))
        for step in steps:
            target = step.target_cell
            self.clock.schedule(seconds(step.at_s),
                                lambda t=target: self.move_ue(ue, t))

    # -- execution ------------------------------------------------------------------------

    def run_for(self, duration_s: float) -> None:
        """Advance the simulation by ``duration_s`` seconds."""
        if duration_s < 0:
            raise ValueError(f"duration_s must be >= 0: {duration_s}")
        with obs.span("sim.run"):
            self.clock.run_until(self.clock.now_us + seconds(duration_s))

    def close(self) -> None:
        """End the simulation: drop pending events and per-cell state.

        Scheduled callbacks, RRC contexts and HARQ retransmissions all
        point back at the network or the eNodeB that holds them.  Once
        closed, the deployment is freed by reference counting as soon
        as its last outside reference goes, without waiting for a
        cyclic-GC pass; it cannot run again.
        """
        self.clock.clear()
        self._pending.clear()
        self._connecting.clear()
        for cell in self.cells.values():
            cell.enb.close()

    def _cell(self, cell_id: Optional[str]) -> Cell:
        if cell_id is None or cell_id not in self.cells:
            raise ValueError(f"unknown cell {cell_id!r}")
        return self.cells[cell_id]
