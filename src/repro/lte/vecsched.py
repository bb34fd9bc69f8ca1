"""Vectorised MAC schedulers: the eNodeB's scheduling disciplines.

The array-backed engine (:mod:`repro.lte.engine`) drives each scheduler
through one of two entry points, matching the engine's two lanes:

* ``allocate_batch`` (array lane: crowded cells without padding or
  chaff), once per direction per TTI, takes parallel arrays of RNTI,
  backlog and MCS for every UE with pending data and returns grant
  arrays;
* ``open_span(rntis)`` (scalar lane: at most ``SCALAR_LANE_MAX`` UEs,
  or a padding/chaff cell of any size), once per span of TTIs, reads
  the discipline's state for the span's UEs into Python values.  Per
  TTI its ``order(demand, mcs)`` gives the service order over UE
  indices and ``settle(served)`` updates the state; the engine runs the
  grant loop in between; ``close()`` writes the state back.

Both keep one scheduler state (the RR rotation pointer, the dense PF
averages), so the engine may switch lanes between any two spans.  Each
scheduler is grant-for-grant identical to its per-demand object
reference (``tests/lte/oracles.py``) through either entry point:

* the service **order** is reproduced exactly (RR rotation pointer, PF
  priority sort, MaxCQI sort — all stable, like ``sorted``);
* the shared PRB budget is consumed **sequentially** in that order —
  in the batch entry via a closed-form "terminal index" computation
  (see ``_sequential_grants``), on the scalar lane by the engine's
  ``grant_for_bytes`` loop — including the saturation edge where the
  final grant absorbs *all* remaining PRBs;
* PF keeps its throughput average in a dense float64 array indexed by
  RNTI (Python floats within a span), updated with the same
  ``(1-a)*avg + a*served`` expression on both lanes, so every average
  is IEEE-identical to the dict-based implementation.

Nothing here draws randomness; determinism is inherited from the inputs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .tbs import (MAX_PRB, itbs_of_mcs_array, itbs_of_mcs_tuple,
                  neg_pf_instantaneous_bytes_array,
                  neg_pf_instantaneous_bytes_tuple, tbs_bytes_array)

#: Grants for one direction of one TTI: positions into the demand batch
#: (in service order), PRBs granted, and TBS bytes granted.
GrantArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]

_EMPTY_GRANTS: GrantArrays = (np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.int64))

#: Size of the dense PF state arrays: the full 16-bit RNTI space.
_RNTI_SPACE = 1 << 16

#: Demands examined per chunk while hunting the budget's terminal index.
#: A saturating backlog ends the hunt inside the first chunk, so heavy
#: cells pay O(chunk) per TTI instead of O(n); dribble loads that grant
#: many small allocations degrade gracefully to the full sweep.
_CHUNK = 32


def _sequential_grants(order: np.ndarray, pending: np.ndarray,
                       i_tbs: np.ndarray, total_prb: int) -> GrantArrays:
    """Consume a shared PRB budget over ``order`` exactly like the scalar loop.

    The object schedulers all run::

        remaining = total_prb
        for demand in ordered:
            if remaining <= 0: break
            n_prb, tbs = grant_for_bytes(backlog, mcs, remaining)
            remaining -= n_prb

    Because ``grant_for_bytes`` takes the *minimal* fitting PRB count
    unless the budget saturates, every grant before the first "event" is
    simply the demand's unbounded need.  Two events can end the loop:

    * **stop** — the running budget hits zero before a demand is served;
    * **saturation** — ``grant_for_bytes`` detects that the remaining
      budget cannot (or only exactly) carries the backlog
      (``table[i_tbs, remaining-1] <= pending``) and grants *all*
      remaining PRBs.  A saturated grant is always the last one.

    Both are found in closed form from the exclusive prefix sum of the
    per-demand needs, so no Python-level loop runs over demands.  The
    hunt proceeds in chunks of ``_CHUNK`` carrying the running budget
    across chunk boundaries: events depend only on the prefix sums, so
    stopping at the first event in the first chunk that contains one is
    exactly the global computation — while a cell whose first demand
    saturates (the common heavy-load case) touches one chunk, not all n.
    """
    if not 1 <= total_prb <= MAX_PRB:
        raise ValueError(
            f"max_prb out of range [1, {MAX_PRB}]: {total_prb}")
    if int(pending.min(initial=1)) <= 0:
        raise ValueError("demand backlog must be positive")
    n = len(order)
    if n == 0:
        return _EMPTY_GRANTS
    table = tbs_bytes_array()
    position_parts = []
    prb_parts = []
    budget = total_prb
    start = 0
    while start < n:
        chunk = order[start:start + _CHUNK]
        chunk_pending = pending[chunk]
        chunk_itbs = i_tbs[chunk]
        rows = table[chunk_itbs]
        # side="left" insertion point via broadcast: rows non-decreasing.
        need = (rows < chunk_pending[:, None]).sum(axis=1,
                                                   dtype=np.int64) + 1
        remaining = budget - (need.cumsum() - need)
        alive = remaining > 0
        clipped = remaining.clip(1, MAX_PRB)
        saturated = alive & (table[chunk_itbs, clipped - 1]
                             <= chunk_pending)
        size = len(chunk)
        stop_at = size if bool(alive.all()) else int((~alive).argmax())
        sat_at = int(saturated.argmax()) if bool(saturated.any()) else size
        if sat_at < stop_at:
            granted = sat_at + 1
            n_prb = need[:granted].copy()
            n_prb[sat_at] = remaining[sat_at]
            position_parts.append(chunk[:granted])
            prb_parts.append(n_prb)
            break
        if stop_at < size:
            position_parts.append(chunk[:stop_at])
            prb_parts.append(need[:stop_at])
            break
        position_parts.append(chunk)
        prb_parts.append(need)
        budget = int(remaining[-1]) - int(need[-1])
        if budget <= 0:
            break
        start += _CHUNK
    if len(position_parts) == 1:
        positions, n_prb = position_parts[0], prb_parts[0]
    else:
        positions = np.concatenate(position_parts)
        n_prb = np.concatenate(prb_parts)
    tbs = table[i_tbs[positions], n_prb - 1]
    return positions, n_prb, tbs


class _StatelessSpan:
    """A scheduler that is its own scalar-lane span: its ``order`` moves
    what state it has (a Python int), so nothing settles or closes."""

    def open_span(self, rntis: Sequence[int]) -> "_StatelessSpan":
        return self

    def settle(self, served: Dict[int, int]) -> None:
        pass

    def close(self) -> None:
        pass


class VectorRoundRobinScheduler(_StatelessSpan):
    """Round-robin: serve pending UEs cyclically, fair in turns."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next_index = 0

    def allocate_batch(self, rntis: np.ndarray, pending: np.ndarray,
                       mcs: np.ndarray, total_prb: int) -> GrantArrays:
        count = len(rntis)
        if count == 0:
            return _EMPTY_GRANTS
        start = self._next_index % count
        order = np.concatenate((np.arange(start, count, dtype=np.int64),
                                np.arange(0, start, dtype=np.int64)))
        self._next_index = (start + 1) % count
        i_tbs = itbs_of_mcs_array()[mcs]
        return _sequential_grants(order, pending, i_tbs, total_prb)

    def order(self, demand: List[int], mcs: Sequence[int]) -> List[int]:
        """:meth:`allocate_batch`'s rotation over ``demand`` (UE indices)."""
        start = self._next_index % len(demand)
        self._next_index = (start + 1) % len(demand)
        return demand[start:] + demand[:start] if start else demand


class VectorProportionalFairScheduler:
    """Proportional fair: rank by instantaneous rate over average rate.

    The per-RNTI throughput average lives in a dense ``float64`` array
    over the whole 16-bit RNTI space, initialised to the dict twin's
    default of 1.0 — so a gather at any RNTI reads exactly what
    ``self._avg_rate.get(rnti, 1.0)`` would.  Membership (which RNTIs the
    dict twin would enumerate in its decay sweep) is tracked separately
    as a sorted index array.
    """

    name = "proportional-fair"

    def __init__(self, averaging_window: float = 100.0) -> None:
        if averaging_window <= 1.0:
            raise ValueError(
                f"averaging_window must exceed 1: {averaging_window}")
        self._alpha = 1.0 / averaging_window
        self._avg = np.ones(_RNTI_SPACE, dtype=np.float64)
        self._served = np.zeros(_RNTI_SPACE, dtype=np.float64)
        self._known = np.empty(0, dtype=np.int64)
        # Membership mirror of _known: lets the steady state (every
        # demand RNTI already a member) skip the per-TTI union1d sort.
        self._known_mask = np.zeros(_RNTI_SPACE, dtype=bool)

    def allocate_batch(self, rntis: np.ndarray, pending: np.ndarray,
                       mcs: np.ndarray, total_prb: int) -> GrantArrays:
        if len(rntis) == 0:
            return _EMPTY_GRANTS
        rntis = np.asarray(rntis, dtype=np.int64)
        i_tbs = itbs_of_mcs_array()[mcs]
        # Negated priority, ascending stable sort == scalar descending
        # stable rank; same float divisions, one fewer array pass.
        neg_priority = (neg_pf_instantaneous_bytes_array()[i_tbs]
                        / np.maximum(self._avg[rntis], 1e-9))
        order = neg_priority.argsort(kind="stable")
        positions, n_prb, tbs = _sequential_grants(
            order, pending, i_tbs, total_prb)
        # Decay sweep over every RNTI the dict twin would enumerate:
        # members seen so far plus this TTI's demands.  Duplicate demand
        # RNTIs collapse like dict writes — the fancy-index assignment
        # below keeps the *last* grant's bytes, same as served[rnti]=tbs
        # executed in grant order.
        granted_rntis = rntis[positions]
        self._served[granted_rntis] = tbs
        if bool(self._known_mask[rntis].all()):
            members = self._known
        else:
            members = np.union1d(self._known, rntis)
            self._known = members
            self._known_mask[rntis] = True
        self._avg[members] = ((1.0 - self._alpha) * self._avg[members]
                              + self._alpha * self._served[members])
        self._served[granted_rntis] = 0.0
        return positions, n_prb, tbs

    def open_span(self, rntis: Sequence[int]) -> "_ProportionalFairSpan":
        """The scalar lane's view of the averages for a span over ``rntis``."""
        return _ProportionalFairSpan(self, rntis)

    def forget(self, rnti: int) -> None:
        """Drop a released RNTI from the average (same as dict ``pop``)."""
        self._avg[rnti] = 1.0
        self._known_mask[rnti] = False
        index = int(np.searchsorted(self._known, rnti))
        if index < len(self._known) and self._known[index] == rnti:
            self._known = np.delete(self._known, index)


class _ProportionalFairSpan:
    """PF state for one scalar span: the span's averages as Python floats.

    Ranks and decays with the batched path's exact float expressions and
    writes the averages and new members back at :meth:`close`.  Members
    of ``_known`` outside the span (the eNB forgets every RNTI it
    retires, so its spans have none) take the span's decay steps at
    :meth:`close`, one multiply-add per step.
    """

    __slots__ = ("_scheduler", "_rntis", "_avg", "_members", "_steps",
                 "_keep", "_alpha")

    def __init__(self, scheduler: VectorProportionalFairScheduler,
                 rntis: Sequence[int]) -> None:
        self._scheduler, self._rntis, self._steps = scheduler, rntis, 0
        self._keep, self._alpha = 1.0 - scheduler._alpha, scheduler._alpha
        self._avg = {rnti: scheduler._avg.item(rnti) for rnti in rntis}
        self._members = {rnti for rnti in self._avg
                         if scheduler._known_mask.item(rnti)}

    def order(self, demand: List[int], mcs: Sequence[int]) -> List[int]:
        """The PF ranking of ``allocate_batch``, over the span's floats."""
        rntis, avg = self._rntis, self._avg
        if len(self._members) < len(avg):
            self._members.update([rntis[index] for index in demand])
        if len(demand) == 1:
            return demand
        neg, i_tbs = neg_pf_instantaneous_bytes_tuple(), itbs_of_mcs_tuple()
        return sorted(demand, key=lambda index: (
            neg[i_tbs[mcs[index]]] / max(avg[rntis[index]], 1e-9)))

    def settle(self, served: Dict[int, int]) -> None:
        """Decay every member; ``served`` maps RNTI to its granted bytes."""
        keep, alpha, avg = self._keep, self._alpha, self._avg
        for rnti in self._members:
            avg[rnti] = keep * avg[rnti] + alpha * served.get(rnti, 0.0)
        self._steps += 1

    def close(self) -> None:
        """Write the span's averages and members back to the scheduler."""
        scheduler = self._scheduler
        avg, known_mask = scheduler._avg, scheduler._known_mask
        outside = [rnti for rnti in scheduler._known.tolist()
                   if rnti not in self._avg]
        for _ in range(self._steps if outside else 0):
            avg[outside] = self._keep * avg[outside] + self._alpha * 0.0
        for rnti in self._members:
            avg[rnti] = self._avg[rnti]
        new = [rnti for rnti in self._members if not known_mask.item(rnti)]
        if new:
            scheduler._known = np.union1d(scheduler._known, new)
            known_mask[new] = True


class VectorMaxCQIScheduler(_StatelessSpan):
    """Greedy max-CQI: serve the best-channel UE first."""

    name = "max-cqi"

    def allocate_batch(self, rntis: np.ndarray, pending: np.ndarray,
                       mcs: np.ndarray, total_prb: int) -> GrantArrays:
        if len(rntis) == 0:
            return _EMPTY_GRANTS
        order = np.argsort(-np.asarray(mcs, dtype=np.int64), kind="stable")
        i_tbs = itbs_of_mcs_array()[mcs]
        return _sequential_grants(order, pending, i_tbs, total_prb)

    def order(self, demand: List[int], mcs: Sequence[int]) -> List[int]:
        """:meth:`allocate_batch`'s stable MCS ranking of ``demand``."""
        if len(demand) == 1:
            return demand
        return sorted(demand, key=lambda index: -mcs[index])


_VECTOR_SCHEDULERS = {
    "round-robin": VectorRoundRobinScheduler,
    "proportional-fair": VectorProportionalFairScheduler,
    "max-cqi": VectorMaxCQIScheduler,
}


def make_vector_scheduler(name: str):
    """Instantiate a vector scheduler by registry name."""
    try:
        factory = _VECTOR_SCHEDULERS[name]
    except KeyError:
        known = ", ".join(sorted(_VECTOR_SCHEDULERS))
        raise ValueError(f"unknown scheduler {name!r} (known: {known})")
    return factory()


def scheduler_names() -> Tuple[str, ...]:
    """Names of all registered scheduling disciplines."""
    return tuple(sorted(_VECTOR_SCHEDULERS))
