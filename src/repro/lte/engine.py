"""The eNodeB's TTI grant loop: two size-adaptive lanes over slot columns.

:class:`TTILoop` is the grant-loop half of :class:`repro.lte.enb.ENodeB`.
The eNB keeps every connected UE's scalar state — RNTI, downlink and
uplink backlog, CQI, last-activity time — in parallel int64 columns
indexed by the UE's slot; each TTI turns those backlogs into DCI
grants on one of two lanes over the same columns:

* the **scalar lane** (:meth:`TTILoop._scalar_tti`) while the cell has
  at most :data:`SCALAR_LANE_MAX` connected UEs and no padding or
  chaff.  It reads the columns as Python ints, calls each scheduler's
  ``allocate_scalar`` entry point and writes the drained backlogs back.
  This is the paper's regime — one victim or one conversation pair per
  cell — where a TTI touches a handful of UEs and the array lane's fixed
  cost of small numpy calls would dominate.
* the **array lane** (:meth:`TTILoop._array_tti`) for crowded or
  obfuscating cells: demands, grants and drains for all UEs at once
  with array operations (:mod:`repro.lte.vecsched`).  Padding and chaff
  always take it, through the eNB's padding/chaff helpers on
  materialised allocations, so their scalar draws keep their order.

The schedulers keep one state for both entry points (the RR rotation
pointer, the dense PF averages), so a cell changes lanes between any two
TTIs with no copy or migration.  ``SCALAR_LANE_MAX`` comes from the
crossover sweep in ``benchmarks/bench_simulator.py``: below it the
scalar lane is the faster one, above it the array lane's cost grows
more slowly with the UE count.

**Both lanes emit the same bits.**  The golden suite
(``tests/integration/test_sim_golden.py``) pins committed trace digests
for LTE and 5G NR cells, runs every scenario pinned to each lane and
one scenario that crosses the bound both ways.  The shared eNB
:class:`random.Random` stream makes this subtle: every scalar draw must
happen in exactly the same order.  Per TTI the draw order is

1. ``CrossTraffic.occupied_prb`` (one ``gauss``, only when configured);
2. per direction (DL first): chaff draws, then one ``random()`` per
   allocation when ``harq_bler > 0`` (in allocation order);
3. one ``random()`` per UE for the CQI walk, plus a ``choice`` on step
   events, in RRC-connection (dict) order.

Both lanes make these draws in this order.  Step 3 is per-UE and
*cannot* be batched: ``Random.choice`` consumes a variable number of
Mersenne-Twister words (rejection sampling), so no numpy generator can
reproduce the stream; it is a scalar loop in both lanes.

Grants leave the cell as :class:`GrantBatch` columns so an attached
sniffer can ingest whole TTIs without materialising per-record
``PDCCHTransmission`` objects; plain ``pdcch_observers`` still receive
fully encoded transmissions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .dci import DCIFormat, DCIMessage, Direction, PDCCHTransmission
from .scheduler import Allocation
from .tbs import mcs_of_cqi_array

#: Largest connected-UE count whose TTIs run on the scalar lane.  Below
#: it, the array lane's fixed cost of small numpy calls outweighs the
#: per-UE Python loop; the crossover sweep in
#: ``benchmarks/bench_simulator.py`` (``BENCH_simulator.json``,
#: ``crossover``) is the evidence for the value.
SCALAR_LANE_MAX = 32

#: CQI random-walk steps — shared tuple so ``choice`` cost stays flat.
_CQI_STEPS = (-1, 1)


@dataclass(frozen=True)
class GrantBatch:
    """One TTI's grants for one direction, as parallel columns.

    ``rntis``, ``mcs``, ``n_prb`` and ``tbs_bytes`` are equal-length
    int64 arrays in emission order — the exact per-record sequence the
    cell airs as individual DCIs to its ``pdcch_observers``.
    """

    time_us: int
    direction: Direction
    rntis: np.ndarray
    mcs: np.ndarray
    n_prb: np.ndarray
    tbs_bytes: np.ndarray

    def __len__(self) -> int:
        return len(self.rntis)


GrantBatchObserver = Callable[[GrantBatch], None]


class TTILoop:
    """The demand-driven TTI loop of :class:`~repro.lte.enb.ENodeB`.

    Runs over the eNB's slot columns (``_arr_rnti``, ``_arr_dl``,
    ``_arr_ul``, ``_arr_cqi``, ``_arr_last``), its two vector schedulers
    and its shared rng; the loop only runs while some UE has backlog,
    so quiet air time costs nothing to simulate.  It lives apart from
    the RRC code in ``enb.py`` so that the vectorised-hot-path lint rule
    (PAR004) covers exactly the TTI loop.
    """

    #: HARQ round-trip time in TTIs (FDD LTE: 8 ms).
    _HARQ_RTT_TTIS = 8
    #: Maximum HARQ transmission attempts (standard default: 4).
    _HARQ_MAX_ATTEMPTS = 4

    # -- grant emission --------------------------------------------------------

    def _emit_grants(self, time_us: int, direction: Direction,
                     rntis: Sequence[int], mcs: Sequence[int],
                     n_prb: Sequence[int], tbs: Sequence[int]) -> None:
        """Air one TTI's grants: int64 columns or lists of Python ints."""
        if len(rntis) == 0:
            return
        if self.grant_batch_observers:
            columns = np.array((rntis, mcs, n_prb, tbs), dtype=np.int64)
            batch = GrantBatch(time_us=time_us, direction=direction,
                               rntis=columns[0], mcs=columns[1],
                               n_prb=columns[2], tbs_bytes=columns[3])
            for observer in self.grant_batch_observers:
                observer(batch)
        if self.pdcch_observers:
            # Materialise per-record transmissions only when someone
            # actually listens for them.
            fmt = (DCIFormat.FORMAT_1A if direction is Direction.DOWNLINK
                   else DCIFormat.FORMAT_0)
            for rnti, grant_mcs, grant_prb in zip(
                    np.asarray(rntis).tolist(), np.asarray(mcs).tolist(),
                    np.asarray(n_prb).tolist()):
                dci = DCIMessage(fmt=fmt, rnti=rnti, mcs=grant_mcs,
                                 n_prb=grant_prb)
                self._emit_pdcch(
                    PDCCHTransmission(time_us=time_us, encoded=dci.encode()))

    def _maybe_retransmit(self, direction: Direction, rnti: int, mcs: int,
                          n_prb: int, tbs: int, attempt: int) -> None:
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
            if rnti not in self._contexts:
                return
            self._emit_grants(self._clock.now_us, direction, [rnti], [mcs],
                              [n_prb], [tbs])
            self.harq_retransmissions += 1
            self.grants_issued += 1
            self._grants_obs.inc()
            self._maybe_retransmit(direction, rnti, mcs, n_prb, tbs,
                                   attempt + 1)

        self._clock.schedule(self._HARQ_RTT_TTIS * self._tti_us, retransmit)

    # -- the TTI loop: scalar lane for small cells, array lane otherwise -------

    def _ensure_tti_loop(self) -> None:
        if not self._tti_running:
            self._tti_running = True
            self._clock.schedule(self._tti_us, self._on_tti)

    def _on_tti(self) -> None:
        now = self._clock.now_us
        self._ttis_obs.inc()
        occupied = self._cross_traffic.occupied_prb(self._total_prb,
                                                    self._rng)
        available = max(1, self._total_prb - occupied)
        slots = self._ordered()
        # Read at call time so a test can pin either lane by patching it.
        if len(slots) <= SCALAR_LANE_MAX and not self._obfuscating:
            any_backlog = self._scalar_tti(now, available, slots)
        else:
            any_backlog = self._array_tti(now, available, slots)
        if any_backlog:
            self._clock.schedule(self._tti_us, self._on_tti)
        else:
            self._tti_running = False

    def _scalar_tti(self, now: int, available: int,
                    slots: np.ndarray) -> bool:
        """One TTI on Python ints read from the engine columns.

        Same grants, state writes and rng draws as :meth:`_array_tti`;
        the schedulers' ``allocate_scalar`` entry points run over the
        state their ``allocate_batch`` twins keep.  Every loop here is
        bounded by ``SCALAR_LANE_MAX`` connected UEs.  Returns whether
        any UE still holds backlog.
        """
        slot_list = self._slot_list
        rntis = self._arr_rnti[slots].tolist()
        cqi_column = self._arr_cqi[slots]
        cqis = cqi_column.tolist()
        mcs = mcs_of_cqi_array()[cqi_column].tolist()
        harq = self._profile.harq_bler > 0.0
        last_col = self._arr_last
        any_backlog = False
        for direction, scheduler, backlog_col in (
                (Direction.DOWNLINK, self._dl_scheduler, self._arr_dl),
                (Direction.UPLINK, self._ul_scheduler, self._arr_ul)):
            backlog = backlog_col[slots].tolist()
            if all(backlog):
                # Every UE has data: the demand batch is the whole cell.
                demand = None
                positions, grant_prb, grant_tbs = scheduler.allocate_scalar(
                    rntis, backlog, mcs, available)
            else:
                demand = [index for index, pending in enumerate(backlog)
                          if pending > 0]
                if not demand:
                    continue
                positions, grant_prb, grant_tbs = scheduler.allocate_scalar(
                    [rntis[index] for index in demand],
                    [backlog[index] for index in demand],
                    [mcs[index] for index in demand], available)
            grant_rntis = []
            grant_mcs = []
            for position, size in zip(positions, grant_tbs):
                index = position if demand is None else demand[position]
                left = backlog[index] - size
                backlog[index] = left if left > 0 else 0
                slot = slot_list[index]
                backlog_col[slot] = backlog[index]
                last_col[slot] = now
                grant_rntis.append(rntis[index])
                grant_mcs.append(mcs[index])
            any_backlog = any_backlog or any(backlog)
            granted_bytes = sum(grant_tbs)
            self.obfuscation_stats.useful_bytes += granted_bytes
            count = len(grant_tbs)
            self.grants_issued += count
            self._grants_obs.inc(count)
            self.bytes_granted += granted_bytes
            self._emit_grants(now, direction, grant_rntis, grant_mcs,
                              grant_prb, grant_tbs)
            if harq:
                for rnti, rate, n_prb, size in zip(grant_rntis, grant_mcs,
                                                   grant_prb, grant_tbs):
                    self._maybe_retransmit(direction, rnti, rate, n_prb,
                                           size, attempt=1)
        self._walk_cqi(slots, cqis)
        return any_backlog

    def _array_tti(self, now: int, available: int,
                   slots: np.ndarray) -> bool:
        """One TTI over whole UE columns: the lane for crowded cells.

        Returns whether any UE still holds backlog.
        """
        rntis = self._arr_rnti[slots]
        mcs = mcs_of_cqi_array()[self._arr_cqi[slots]]
        harq = self._profile.harq_bler > 0.0
        for direction, scheduler, backlog_col in (
                (Direction.DOWNLINK, self._dl_scheduler, self._arr_dl),
                (Direction.UPLINK, self._ul_scheduler, self._arr_ul)):
            backlog = backlog_col[slots]
            demand_positions = np.nonzero(backlog > 0)[0]
            if len(demand_positions):
                positions, grant_prb, grant_tbs = scheduler.allocate_batch(
                    rntis[demand_positions], backlog[demand_positions],
                    mcs[demand_positions], available)
                grant_positions = demand_positions[positions]
            else:
                grant_positions = np.empty(0, dtype=np.int64)
                grant_prb = grant_tbs = grant_positions
            if self._obfuscating:
                self._obfuscated_tti(direction, now, rntis, mcs,
                                     grant_positions, grant_prb, grant_tbs,
                                     backlog_col, available, harq)
                continue
            if not len(grant_positions):
                continue
            grant_rntis = rntis[grant_positions]
            grant_mcs = mcs[grant_positions]
            granted_bytes = int(grant_tbs.sum())
            self.obfuscation_stats.useful_bytes += granted_bytes
            grant_slots = slots[grant_positions]
            backlog_col[grant_slots] = np.maximum(
                backlog_col[grant_slots] - grant_tbs, 0)
            self._arr_last[grant_slots] = now
            count = len(grant_positions)
            self.grants_issued += count
            self._grants_obs.inc(count)
            self.bytes_granted += granted_bytes
            self._emit_grants(now, direction, grant_rntis, grant_mcs,
                              grant_prb, grant_tbs)
            if harq:
                for rnti, grant_mcs_i, grant_prb_i, grant_tbs_i in zip(
                        grant_rntis.tolist(), grant_mcs.tolist(),
                        grant_prb.tolist(), grant_tbs.tolist()):
                    self._maybe_retransmit(direction, rnti, grant_mcs_i,
                                           grant_prb_i, grant_tbs_i,
                                           attempt=1)
        self._walk_cqi(slots, self._arr_cqi[slots].tolist())
        return bool((self._arr_dl[slots] > 0).any()
                    or (self._arr_ul[slots] > 0).any())

    def _walk_cqi(self, slots: np.ndarray, cqis: List[int]) -> None:
        """Advance every UE's CQI walk, in context order, on the eNB rng.

        CQI evolves as a bounded random walk per UE — with probability
        ``cqi_step_prob`` it moves one step, clamped to the profile's
        floor and ceiling.  The *shared* eNB rng must advance
        draw-for-draw in context order (``Random.choice`` rejection-
        samples a variable number of words), so this stays a scalar
        loop in both lanes.
        """
        profile = self._profile
        step_prob = profile.cqi_step_prob
        floor = profile.cqi_floor
        ceiling = profile.cqi_ceiling
        draw = self._rng.random
        pick = self._rng.choice
        stepped_any = False
        for index, cqi in enumerate(cqis):
            if draw() < step_prob:
                stepped = cqi + pick(_CQI_STEPS)
                if stepped < floor:
                    stepped = floor
                elif stepped > ceiling:
                    stepped = ceiling
                cqis[index] = stepped
                stepped_any = True
        if stepped_any:
            self._arr_cqi[slots] = cqis

    def _obfuscated_tti(self, direction: Direction, now: int,
                        rntis: np.ndarray, mcs: np.ndarray,
                        grant_positions: np.ndarray, grant_prb: np.ndarray,
                        grant_tbs: np.ndarray, backlog_col: np.ndarray,
                        available: int, harq: bool) -> None:
        """Padding/chaff path: the eNB's helpers over materialised grants."""
        allocations = [
            Allocation(rnti=int(rntis[position]), direction=direction,
                       mcs=int(mcs[position]), n_prb=int(prb),
                       tbs_bytes=int(tbs))
            for position, prb, tbs in zip(grant_positions, grant_prb,
                                          grant_tbs)]
        self.obfuscation_stats.useful_bytes += sum(
            a.tbs_bytes for a in allocations)
        if self.obfuscation.padding_quantum > 0:
            allocations = self._pad_allocations(allocations, available)
        allocations.extend(self._chaff_allocations(direction, available))
        if not allocations:
            return
        out_rntis = np.empty(len(allocations), dtype=np.int64)
        out_mcs = np.empty(len(allocations), dtype=np.int64)
        out_prb = np.empty(len(allocations), dtype=np.int64)
        out_tbs = np.empty(len(allocations), dtype=np.int64)
        index = 0
        for allocation in allocations:  # repro: noqa[PAR004] — scalar padding/chaff path keeps its draw order
            slot = self._contexts[allocation.rnti].slot
            backlog_col[slot] = max(0, backlog_col[slot]
                                    - allocation.tbs_bytes)
            self._arr_last[slot] = now
            self.grants_issued += 1
            self._grants_obs.inc()
            self.bytes_granted += allocation.tbs_bytes
            out_rntis[index] = allocation.rnti
            out_mcs[index] = allocation.mcs
            out_prb[index] = allocation.n_prb
            out_tbs[index] = allocation.tbs_bytes
            index += 1
        self._emit_grants(now, direction, out_rntis, out_mcs, out_prb,
                          out_tbs)
        if harq:
            for allocation in allocations:  # repro: noqa[PAR004] — HARQ draws must follow allocation order
                self._maybe_retransmit(direction, allocation.rnti,
                                       allocation.mcs, allocation.n_prb,
                                       allocation.tbs_bytes, attempt=1)
