"""The eNodeB's TTI grant loop: two size-adaptive lanes over slot columns.

:class:`TTILoop` is the grant-loop half of :class:`repro.lte.enb.ENodeB`.
The eNB keeps every connected UE's scalar state — RNTI, downlink and
uplink backlog, CQI, last-activity time — in parallel int64 columns
indexed by the UE's slot, and turns those backlogs into DCI grants on
one of two lanes over the same columns:

* the **scalar lane** (:meth:`TTILoop._scalar_span`) while the cell has
  at most :data:`SCALAR_LANE_MAX` connected UEs, and at any size when
  it pads or sends chaff: the paper's regime — one victim or one
  conversation pair per cell — where a TTI touches a handful of UEs and
  small numpy calls would dominate.  It runs the ``grant_for_bytes``
  loop itself, inline, in the service order of each scheduler's
  ``open_span``; padding and chaff (:meth:`TTILoop._pad_and_chaff`)
  rework each direction's grants on the span's lists.
* the **array lane** (:meth:`TTILoop._array_tti`), one call per TTI, for
  crowded cells without padding or chaff: demands, grants and drains
  for all UEs at once with array operations (:mod:`repro.lte.vecsched`).

The schedulers keep one state for both lanes (the RR rotation pointer,
the dense PF averages), so a cell changes lanes between any two spans
with no copy or migration.  ``SCALAR_LANE_MAX`` comes from the
crossover sweep in ``benchmarks/bench_simulator.py``.

**Both lanes emit the same bits.**  The golden suite
(``tests/integration/test_sim_golden.py``) pins committed trace digests
for LTE and 5G NR cells, runs every scenario pinned to each lane and
one scenario that crosses the bound both ways.  The shared eNB
:class:`random.Random` stream makes this subtle: every scalar draw must
happen in exactly the same order.  Per TTI the draw order is

1. the cross-traffic ``gauss`` of ``CrossTraffic.occupied_prb``, only
   when configured (the scalar lane draws it from locals);
2. per direction (DL first): the chaff draws (``random()``, then on a
   hit ``choice`` and ``randint``), then one ``random()`` per grant when
   ``harq_bler > 0``, over the padded grants in grant order and then
   the chaff grant.  Allocation and padding draw nothing; on a cell
   without padding or chaff the scalar lane draws HARQ right after each
   grant;
3. one ``random()`` per UE for the CQI walk, plus a ``choice`` on step
   events, in RRC-connection (dict) order.

Step 3 *cannot* be batched: ``Random.choice`` consumes a variable
number of Mersenne-Twister words (rejection sampling), so no numpy
generator can reproduce the stream; it is a scalar loop in both lanes.

**TTI run-ahead.**  A busy burst runs as one *span*: after TTI(now),
the lane runs TTI(next) inline — no heap push and pop — while
:meth:`~repro.lte.sim.SimClock.run_ahead` allows it: ``next`` lies
inside the bound of the running ``run_until``/``run``, and every event
due at or before ``next`` is one of this cell's own HARQ retransmits,
which it fires first, in heap order, with the clock at their times.  At
the first foreign event due by then (an app arrival, an RRC timer,
another cell's TTI) the span ends and :meth:`TTILoop._on_tti` schedules
TTI(next) as usual.  This is exact.  At the end of TTI(now) a per-TTI
loop would push TTI(next) with a sequence number above every queued
event, so exactly the events due at or before ``next`` fire before it,
and nothing fires in between; the span fires the same callbacks in the
same order with the clock at the same times, so the rng draw order
above is unchanged.

No foreign event fires inside a span, so the cell's UEs and lane
cannot change in it.  The scalar lane runs a whole span in one Python
frame: it reads RNTIs, CQIs and backlogs, and through ``open_span``
each scheduler's state, once; when the span ends it writes back the
scheduler state, the granted UEs' backlogs and last-activity times, any
stepped CQIs and the counters, before the foreign event that ends the
span (an enqueue, an inactivity check, RRC) can read them.
Own retransmits touch only the grant buffers and the cell's counters.

Grants leave the cell as :class:`GrantBatch` columns.  Both lanes and
every HARQ retransmit append their grants to per-cell column buffers
across spans, and :meth:`TTILoop._flush_grants` airs what is buffered
as one batch with per-record times and directions at the cell's next
*observation point*:

(a) the top of ``ENodeB._emit_control``, before any control observer
    sees the message, so within a cell DCI records and control messages
    keep their relative order;
(b) the return of the running ``run_until``/``run``, through
    :meth:`~repro.lte.sim.SimClock.defer` (under a bare ``step`` that
    is the end of the span, so each span airs at once);
(c) as soon as :data:`FLUSH_RECORDS` grants are buffered, so even one
    long saturated span airs in bounded batches.

This is exact: the decoder, tracker and trace builders give the same
result however a run is cut into batches, and the capture rng belongs
to the sniffer alone.  What changes is *when* DCI-fed state is
complete: after ``run_for`` returns, and inside a control observer;
read from a clock callback, it reflects only the last observation
point.  An attached sniffer ingests the batches as columns, without
per-record objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .dci import Direction
from .tbs import (CQI_TO_MCS, grant_for_bytes, itbs_of_mcs_tuple,
                  mcs_of_cqi_array, tbs_bytes_rows)

#: Largest connected-UE count whose TTIs run on the scalar lane.  Below
#: it, the array lane's fixed cost of small numpy calls outweighs the
#: per-UE Python loop; the crossover sweep in
#: ``benchmarks/bench_simulator.py`` (``BENCH_simulator.json``,
#: ``crossover``) is the evidence for the value: round-robin's scalar
#: lane is cheaper through 128 UEs, proportional-fair's through 96.
SCALAR_LANE_MAX = 96

#: Buffered grants that air at once, without waiting for an observation
#: point: the bound on one :class:`GrantBatch` beyond one TTI's grants.
FLUSH_RECORDS = 4096

#: CQI random-walk steps — shared tuple so ``choice`` cost stays flat.
_CQI_STEPS = (-1, 1)

#: Record values of the two directions in a :class:`GrantBatch`.
_DL, _UL = int(Direction.DOWNLINK), int(Direction.UPLINK)


@dataclass(frozen=True)
class GrantBatch:
    """A cell's grants since its last observation point, as columns.

    One batch may cover many spans of TTIs and HARQ retransmits; at
    most :data:`FLUSH_RECORDS` grants plus one TTI's.

    ``time_us``, ``direction`` (a :class:`Direction` value), ``rntis``,
    ``mcs``, ``n_prb`` and ``tbs_bytes`` are equal-length int64 arrays
    in emission order — the exact per-record sequence of DCIs the cell
    airs.  Times never decrease.
    """

    time_us: np.ndarray
    direction: np.ndarray
    rntis: np.ndarray
    mcs: np.ndarray
    n_prb: np.ndarray
    tbs_bytes: np.ndarray

    def __len__(self) -> int:
        return len(self.rntis)


GrantBatchObserver = Callable[[GrantBatch], None]


class _Retransmit:
    """A queued HARQ retransmission: the clock callback that re-airs a grant.

    Its own type lets a span of TTIs tell its cell's retransmits from
    every other event when it runs ahead.
    """

    __slots__ = ("loop", "grant", "attempt")

    def __init__(self, loop: "TTILoop",
                 grant: Tuple[Direction, int, int, int, int],
                 attempt: int) -> None:
        self.loop = loop
        self.grant = grant
        self.attempt = attempt

    def __call__(self) -> None:
        self.loop._retransmit(self.grant, self.attempt)


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
                     rntis: List[int], mcs: List[int], n_prb: List[int],
                     tbs: List[int]) -> None:
        """Buffer one TTI's grants (lists of Python ints) until they air."""
        count = len(rntis)
        if not count or not self.grant_batch_observers:
            return
        times, directions, span_rntis, span_mcs, span_prb, span_tbs = (
            self._span_columns)
        times.extend([time_us] * count)
        directions.extend([int(direction)] * count)
        span_rntis.extend(rntis)
        span_mcs.extend(mcs)
        span_prb.extend(n_prb)
        span_tbs.extend(tbs)
        if len(times) >= FLUSH_RECORDS:
            self._flush_grants()

    def _defer_flush(self) -> None:
        """Air buffered grants when the running clock call returns."""
        if self._span_columns[0] and not self._flush_deferred:
            self._flush_deferred = True
            self._clock.defer(self._deferred_flush)

    def _deferred_flush(self) -> None:
        self._flush_deferred = False
        self._flush_grants()

    def _flush_grants(self) -> None:
        """Air the buffered grants as one :class:`GrantBatch`."""
        columns = self._span_columns
        if not columns[0]:
            return
        table = np.array(columns, dtype=np.int64)
        for column in columns:
            column.clear()
        batch = GrantBatch(*table)
        for observer in self.grant_batch_observers:
            observer(batch)

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
        self._clock.schedule(
            self._HARQ_RTT_TTIS * self._tti_us,
            _Retransmit(self, (direction, rnti, mcs, n_prb, tbs), attempt))

    def _retransmit(self, grant: Tuple[Direction, int, int, int, int],
                    attempt: int) -> None:
        """Re-air a grant, buffered like a TTI's grants."""
        direction, rnti, mcs, n_prb, tbs = grant
        # The UE may have been released meanwhile; retransmissions to a
        # retired RNTI are simply not sent.
        if rnti not in self._contexts:
            return
        self._emit_grants(self._clock.now_us, direction, [rnti], [mcs],
                          [n_prb], [tbs])
        self.harq_retransmissions += 1
        self.grants_issued += 1
        self._grants_obs.inc()
        self._maybe_retransmit(direction, rnti, mcs, n_prb, tbs,
                               attempt + 1)
        self._defer_flush()

    def _is_own_retransmit(self, callback: Callable[[], None]) -> bool:
        return type(callback) is _Retransmit and callback.loop is self

    # -- the TTI loop: scalar lane for small cells, array lane otherwise -------

    def _ensure_tti_loop(self) -> None:
        if not self._tti_running:
            self._tti_running = True
            self._clock.schedule(self._tti_us, self._on_tti)

    def _on_tti(self) -> None:
        """Run one span of TTIs from now; its grants air later."""
        clock = self._clock
        now = clock.now_us
        slots = self._ordered()
        # Read at call time so a test can pin either lane by patching it.
        if len(slots) <= SCALAR_LANE_MAX or self._obfuscating:
            resume = self._scalar_span(now, slots)
        else:
            resume = None
            while self._array_tti(now, slots):
                now += self._tti_us
                if not clock.run_ahead(now, self._is_own_retransmit):
                    resume = now
                    break
        if resume is None:
            self._tti_running = False
        else:
            clock.schedule_at(resume, self._on_tti)
        self._defer_flush()

    def _scalar_span(self, now: int, slots: np.ndarray) -> Optional[int]:
        """Run a span of TTIs from ``now`` on the scalar lane, in one frame.

        Returns the time of the TTI a foreign event interrupts, or
        ``None`` once no UE holds backlog.
        """
        clock, rng, profile = self._clock, self._rng, self._profile
        draw, pick, gauss = rng.random, rng.choice, rng.gauss
        run_ahead, schedule = clock.run_ahead, clock.schedule
        own, step_prob = self._is_own_retransmit, profile.cqi_step_prob
        # An obfuscating cell draws HARQ after its padding and chaff, in
        # _pad_and_chaff, so its inline draw is off; that method reads
        # the grants off the span columns, so they are recorded even
        # without observers.
        obfuscating = self._obfuscating
        bler = 0.0 if obfuscating else profile.harq_bler
        record = bool(self.grant_batch_observers) or obfuscating
        total_prb, tti_us = self._total_prb, self._tti_us
        # CrossTraffic.occupied_prb's draw and clamp, over locals; with
        # total_prb >= 1 a load of at most 0.95 leaves at least one PRB.
        load_mean = self._cross_traffic.mean_load
        load_spread = load_mean * self._cross_traffic.burstiness
        rows, i_tbs = tbs_bytes_rows(), itbs_of_mcs_tuple()
        times, directions, span_rntis, span_mcs, span_prb, span_tbs = (
            self._span_columns)
        rntis = self._arr_rnti[slots].tolist()
        cqis = self._arr_cqi[slots].tolist()
        mcs = [CQI_TO_MCS[cqi] for cqi in cqis]
        dl, ul = self._arr_dl[slots].tolist(), self._arr_ul[slots].tolist()
        everyone = list(range(len(rntis)))
        dl_span = self._dl_scheduler.open_span(rntis)
        ul_span = self._ul_scheduler.open_span(rntis)
        lanes = ((Direction.DOWNLINK, _DL, dl_span.order, dl_span.settle, dl),
                 (Direction.UPLINK, _UL, ul_span.order, ul_span.settle, ul))
        ttis = issued = granted = 0
        stepped_any = False
        granted_at = {}  # UE index -> time of its last grant in the span
        while True:
            ttis += 1
            available = total_prb
            if load_mean > 0.0:
                load = gauss(load_mean, load_spread)
                load = 0.0 if load < 0.0 else 0.95 if load > 0.95 else load
                available = total_prb - int(total_prb * load)
            busy = False
            for direction, code, order, settle, backlog in lanes:
                if not any(backlog):
                    if obfuscating:  # an idle direction still draws chaff
                        self._pad_and_chaff(now, direction, {}, available,
                                            available, backlog, rntis, mcs,
                                            granted_at)
                    continue
                demand = everyone if all(backlog) else [
                    index for index, pending in enumerate(backlog)
                    if pending > 0]
                served = {}
                remaining = available
                # grant_for_bytes; a saturating backlog takes all PRBs left.
                for index in order(demand, mcs):
                    if remaining <= 0:
                        break
                    rate, pending = mcs[index], backlog[index]
                    row = rows[i_tbs[rate]]
                    if row[remaining - 1] <= pending:
                        n_prb = remaining
                    else:
                        n_prb = bisect_left(row, pending, 0, remaining) + 1
                    size = row[n_prb - 1]
                    remaining -= n_prb
                    backlog[index] = pending - size if pending > size else 0
                    granted_at[index] = now
                    rnti = rntis[index]
                    served[rnti] = size
                    issued += 1
                    granted += size
                    if record:
                        times.append(now)
                        directions.append(code)
                        span_rntis.append(rnti)
                        span_mcs.append(rate)
                        span_prb.append(n_prb)
                        span_tbs.append(size)
                    if bler > 0.0 and draw() < bler:
                        schedule(self._HARQ_RTT_TTIS * tti_us, _Retransmit(
                            self, (direction, rnti, rate, n_prb, size), 1))
                settle(served)
                if obfuscating:
                    self._pad_and_chaff(now, direction, served, remaining,
                                        available, backlog, rntis, mcs,
                                        granted_at)
                busy = busy or any(backlog)
                if len(times) >= FLUSH_RECORDS:
                    self._flush_grants()
            for index, cqi in enumerate(cqis):
                if draw() < step_prob:
                    stepped = min(max(cqi + pick(_CQI_STEPS),
                                      profile.cqi_floor), profile.cqi_ceiling)
                    cqis[index] = stepped
                    mcs[index] = CQI_TO_MCS[stepped]
                    stepped_any = True
            if not busy:
                break
            now += tti_us
            if not run_ahead(now, own):
                break
        dl_span.close()
        ul_span.close()
        for index, at in granted_at.items():
            slot = self._slot_list[index]
            self._arr_dl[slot], self._arr_ul[slot] = dl[index], ul[index]
            self._arr_last[slot] = at
        if stepped_any:
            self._arr_cqi[slots] = cqis
        self._ttis_obs.inc(ttis)
        self._grants_obs.inc(issued)
        self.grants_issued += issued
        self.bytes_granted += granted
        self.obfuscation_stats.useful_bytes += granted
        return now if busy else None

    def _pad_and_chaff(self, now: int, direction: Direction,
                       served: Dict[int, int], leftover: int,
                       available: int, backlog: List[int], rntis: List[int],
                       mcs: List[int], granted_at: Dict[int, int]) -> None:
        """Padding, chaff and HARQ draws for one direction of a span's TTI.

        The direction's grants are the last ``len(served)`` entries of
        the span columns; ``served`` holds their unpadded sizes and
        ``leftover`` the PRBs they left.  Padding rounds each grant up to
        the padding quantum from the leftover PRBs and drains the backlog
        by the extra bytes; chaff gives one UE that had no backlog in
        this direction a dummy grant; then every grant, padded or chaff,
        takes its HARQ draw, in that order.
        """
        config, stats = self.obfuscation, self.obfuscation_stats
        columns = self._span_columns
        times, _, span_rntis, span_mcs, span_prb, span_tbs = columns
        first = len(times) - len(served)
        added = 0
        quantum = config.padding_quantum
        if quantum > 0 and served:
            position = {rnti: index for index, rnti in enumerate(rntis)}
            for at in range(first, len(times)):
                size, n_prb = span_tbs[at], span_prb[at]
                padded_prb, padded = grant_for_bytes(
                    -(-size // quantum) * quantum, span_mcs[at],
                    n_prb + max(0, leftover))
                if padded > size and padded_prb >= n_prb:
                    leftover -= padded_prb - n_prb
                    span_prb[at], span_tbs[at] = padded_prb, padded
                    index = position[span_rntis[at]]
                    backlog[index] = max(0, backlog[index] - (padded - size))
                    added += padded - size
            stats.padding_bytes += added
        probability = config.chaff_probability
        if probability > 0.0 and rntis and self._rng.random() < probability:
            idle = [index for index, pending in enumerate(backlog)
                    if pending == 0 and rntis[index] not in served]
            if idle:
                target = self._rng.choice(idle)
                size = self._rng.randint(64, config.chaff_max_bytes)
                n_prb, tbs = grant_for_bytes(size, mcs[target],
                                             max(1, available // 4))
                for column, value in zip(columns, (
                        now, int(direction), rntis[target], mcs[target],
                        n_prb, tbs)):
                    column.append(value)
                granted_at[target] = now
                stats.chaff_bytes += tbs
                stats.chaff_grants += 1
                added += tbs
                self.grants_issued += 1
                self._grants_obs.inc()
        self.bytes_granted += added
        if self._profile.harq_bler > 0.0:
            for at in range(first, len(times)):
                self._maybe_retransmit(direction, span_rntis[at],
                                       span_mcs[at], span_prb[at],
                                       span_tbs[at], attempt=1)

    def _array_tti(self, now: int, slots: np.ndarray) -> bool:
        """One TTI over whole UE columns: the lane for crowded cells
        without padding or chaff.

        Returns whether any UE still holds backlog.
        """
        self._ttis_obs.inc()
        available = max(1, self._total_prb - self._cross_traffic.occupied_prb(
            self._total_prb, self._rng))
        rntis = self._arr_rnti[slots]
        mcs = mcs_of_cqi_array()[self._arr_cqi[slots]]
        harq = self._profile.harq_bler > 0.0
        for direction, scheduler, backlog_col in (
                (Direction.DOWNLINK, self._dl_scheduler, self._arr_dl),
                (Direction.UPLINK, self._ul_scheduler, self._arr_ul)):
            backlog = backlog_col[slots]
            demand_positions = np.nonzero(backlog > 0)[0]
            if not len(demand_positions):
                continue
            positions, grant_prb, grant_tbs = scheduler.allocate_batch(
                rntis[demand_positions], backlog[demand_positions],
                mcs[demand_positions], available)
            grant_positions = demand_positions[positions]
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
            grant_columns = (grant_rntis.tolist(), grant_mcs.tolist(),
                             grant_prb.tolist(), grant_tbs.tolist())
            self._emit_grants(now, direction, *grant_columns)
            if harq:
                for rnti, grant_mcs_i, grant_prb_i, grant_tbs_i in zip(
                        *grant_columns):
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
        samples a variable number of words), so this is a scalar loop;
        the array lane calls it, the scalar span runs it inline.
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
