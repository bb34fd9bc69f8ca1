"""Vectorised MAC schedulers: the eNodeB's scheduling disciplines.

The array-backed engine (:mod:`repro.lte.engine`) calls each scheduler
once per direction per TTI through one of two entry points, matching
the engine's two lanes:

* ``allocate_batch`` (array lane, crowded cells) takes parallel arrays
  of RNTI, backlog and MCS for every UE with pending data;
* ``allocate_scalar`` (scalar lane, at most ``SCALAR_LANE_MAX`` UEs)
  takes the same three columns as Python lists and loops over them.

Both run over one scheduler state — the RR rotation pointer, the dense
PF averages — so the engine may switch entry points between any two
TTIs.  Each scheduler here is grant-for-grant identical to its
per-demand object reference (``tests/lte/oracles.py``) through either
entry point:

* the service **order** is reproduced exactly (RR rotation pointer, PF
  priority sort, MaxCQI sort — all stable, like ``sorted``);
* the shared PRB budget is consumed **sequentially** in that order —
  in the batch entry via a closed-form "terminal index" computation
  (see ``_sequential_grants``), in the scalar entry via the
  ``grant_for_bytes`` loop itself (``_scalar_grants``) — including the
  saturation edge where the final grant absorbs *all* remaining PRBs;
* PF keeps its throughput average in a dense float64 array indexed by
  RNTI, updated with the same ``(1-a)*avg + a*served`` expression in
  both entries, so every average is IEEE-identical to the dict-based
  implementation.

Nothing here draws randomness; determinism is inherited from the inputs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence, Tuple

import numpy as np

from .tbs import (MAX_PRB, itbs_of_mcs_array, itbs_of_mcs_tuple,
                  neg_pf_instantaneous_bytes_array,
                  neg_pf_instantaneous_bytes_tuple, tbs_bytes_array,
                  tbs_bytes_rows)

#: Grants for one direction of one TTI: positions into the demand batch
#: (in service order), PRBs granted, and TBS bytes granted.
GrantArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]

_EMPTY_GRANTS: GrantArrays = (np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.int64))

#: The same triple as Python lists: the scalar entry points' result.
GrantLists = Tuple[List[int], List[int], List[int]]

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


def _scalar_grants(order: Sequence[int], pending: Sequence[int],
                   mcs: Sequence[int], total_prb: int) -> GrantLists:
    """:func:`_sequential_grants` on Python ints, for the scalar lane.

    This is the scalar ``grant_for_bytes`` loop itself: a saturating
    demand takes every remaining PRB, any other takes the smallest
    fitting count (``bisect_left`` on the non-decreasing TBS row).
    """
    if not 1 <= total_prb <= MAX_PRB:
        raise ValueError(
            f"max_prb out of range [1, {MAX_PRB}]: {total_prb}")
    if min(pending, default=1) <= 0:
        raise ValueError("demand backlog must be positive")
    rows = tbs_bytes_rows()
    i_tbs = itbs_of_mcs_tuple()
    positions: List[int] = []
    prbs: List[int] = []
    sizes: List[int] = []
    remaining = total_prb
    for position in order:
        if remaining <= 0:
            break
        row = rows[i_tbs[mcs[position]]]
        backlog = pending[position]
        if row[remaining - 1] <= backlog:
            n_prb = remaining
        else:
            n_prb = bisect_left(row, backlog, 0, remaining) + 1
        positions.append(position)
        prbs.append(n_prb)
        sizes.append(row[n_prb - 1])
        remaining -= n_prb
    return positions, prbs, sizes


class VectorRoundRobinScheduler:
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

    def allocate_scalar(self, rntis: Sequence[int], pending: Sequence[int],
                        mcs: Sequence[int], total_prb: int) -> GrantLists:
        """:meth:`allocate_batch` on Python lists (same rotation pointer)."""
        count = len(rntis)
        if count == 0:
            return [], [], []
        start = self._next_index % count
        self._next_index = (start + 1) % count
        order = [*range(start, count), *range(start)]
        return _scalar_grants(order, pending, mcs, total_prb)


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

    def allocate_scalar(self, rntis: Sequence[int], pending: Sequence[int],
                        mcs: Sequence[int], total_prb: int) -> GrantLists:
        """:meth:`allocate_batch` on Python lists, over the same averages.

        Reads and writes the dense ``_avg`` array element by element with
        the batched path's exact float expressions, so either path may
        run any TTI.  The decay sweep walks ``_known``, which holds only
        live RNTIs once the eNB forgets released ones.
        """
        count = len(rntis)
        if count == 0:
            return [], [], []
        avg = self._avg
        if count == 1:
            order = [0]  # one demand: nothing to rank
        else:
            neg_instantaneous = neg_pf_instantaneous_bytes_tuple()
            i_tbs = itbs_of_mcs_tuple()
            neg_priority = [neg_instantaneous[i_tbs[rate]]
                            / max(avg.item(rnti), 1e-9)
                            for rnti, rate in zip(rntis, mcs)]
            order = sorted(range(count), key=neg_priority.__getitem__)
        positions, n_prb, tbs = _scalar_grants(order, pending, mcs,
                                               total_prb)
        # Last grant wins for a duplicated RNTI, as in the batched path.
        served = {}
        for position, size in zip(positions, tbs):
            served[rntis[position]] = size
        known_mask = self._known_mask
        for rnti in rntis:
            if not known_mask.item(rnti):
                new = np.asarray(rntis, dtype=np.int64)
                self._known = np.union1d(self._known, new)
                known_mask[new] = True
                break
        keep = 1.0 - self._alpha
        alpha = self._alpha
        for rnti in self._known.tolist():
            avg[rnti] = keep * avg.item(rnti) + alpha * served.get(rnti, 0.0)
        return positions, n_prb, tbs

    def forget(self, rnti: int) -> None:
        """Drop a released RNTI from the average (same as dict ``pop``)."""
        self._avg[rnti] = 1.0
        self._known_mask[rnti] = False
        index = int(np.searchsorted(self._known, rnti))
        if index < len(self._known) and self._known[index] == rnti:
            self._known = np.delete(self._known, index)


class VectorMaxCQIScheduler:
    """Greedy max-CQI: serve the best-channel UE first."""

    name = "max-cqi"

    def __init__(self) -> None:
        pass

    def allocate_batch(self, rntis: np.ndarray, pending: np.ndarray,
                       mcs: np.ndarray, total_prb: int) -> GrantArrays:
        if len(rntis) == 0:
            return _EMPTY_GRANTS
        order = np.argsort(-np.asarray(mcs, dtype=np.int64), kind="stable")
        i_tbs = itbs_of_mcs_array()[mcs]
        return _sequential_grants(order, pending, i_tbs, total_prb)

    def allocate_scalar(self, rntis: Sequence[int], pending: Sequence[int],
                        mcs: Sequence[int], total_prb: int) -> GrantLists:
        """:meth:`allocate_batch` on Python lists (stable MCS ranking)."""
        if not rntis:
            return [], [], []
        order = sorted(range(len(rntis)), key=lambda i: -mcs[i])
        return _scalar_grants(order, pending, mcs, total_prb)


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
