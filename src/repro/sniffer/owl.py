"""OWL-style online RNTI tracker (Bui & Widmer, ATC'16; paper §III-E ❶).

The paper "collect[s] and maintain[s] a list of active RNTIs using
open-source software OWL which identifies UEs within a given cell".
The tracker consumes the blind-decoded record stream and decides which
RNTIs are *real* active users versus decode noise:

* a candidate RNTI is **confirmed** once it appears at least
  ``confirm_threshold`` times within ``confirm_window_s`` — corrupted
  captures produce uniformly random 16-bit values, so repeats at the
  same value are overwhelmingly genuine;
* a confirmed RNTI **expires** after ``expiry_s`` without traffic,
  reflecting RRC release (the eNB will reassign it eventually).

It also listens to the control feed: a ``RandomAccessResponse`` names a
just-assigned temporary C-RNTI, which is immediately trusted (this is
how OWL bootstraps quickly after connection setup).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from .. import obs
from ..lte.identifiers import is_crnti
from ..lte.rrc import (ControlMessage, RandomAccessResponse,
                       RRCConnectionRelease)
from ..lte.sim import to_seconds


@dataclass
class _Candidate:
    first_seen_s: float
    last_seen_s: float
    hits: int = 1


@dataclass
class RNTIActivity:
    """Lifetime summary of one confirmed RNTI."""

    rnti: int
    confirmed_s: float
    last_seen_s: float
    records: int = 0
    expired: bool = field(default=False)


class OWLTracker:
    """Maintains the set of active (confirmed) C-RNTIs in a cell."""

    def __init__(self, confirm_threshold: int = 3,
                 confirm_window_s: float = 1.0,
                 expiry_s: float = 12.0) -> None:
        if confirm_threshold < 1:
            raise ValueError(
                f"confirm_threshold must be >= 1: {confirm_threshold}")
        self._threshold = confirm_threshold
        self._window_s = confirm_window_s
        self._expiry_s = expiry_s
        self._candidates: Dict[int, _Candidate] = {}
        self._active: Dict[int, RNTIActivity] = {}
        self._history: List[RNTIActivity] = []
        # Candidate sweeps are amortised: at most one dictionary scan
        # per confirm window, so the hot on_dci path stays O(1).
        self._last_sweep_s = float("-inf")
        self._ever_confirmed: Set[int] = set()
        self._confirmed_obs = obs.counter("sniffer.tracker.confirmed")
        self._retired_obs = obs.counter("sniffer.tracker.retired")
        self._pruned_obs = obs.counter("sniffer.tracker.candidates_pruned")
        self._reconfirmed = obs.attr_counter("sniffer.tracker.reconfirmed")

    # -- ingestion ---------------------------------------------------------------

    def on_dci(self, now: float, rnti: int) -> None:
        """Feed one blind-decoded DCI as primitives."""
        self._expire_stale(now)
        self._hit(now, rnti)

    def on_dci_batch(self, now, rntis) -> None:
        """Feed a batch of DCIs in one call: one time, or one per record.

        ``now`` is a scalar every record shares, or an array of
        per-record times that never decrease (a simulator grant batch).  The
        result is state-for-state what calling :meth:`on_dci` once per
        record leaves: the same active set and dict order, candidates,
        history and counters.  The batch splits at each record where an
        expiry or the once-per-window candidate sweep may fall, and
        that record goes through :meth:`on_dci`.  Between split points
        every per-record expiry/sweep pass is a no-op, so the records
        collapse per RNTI (:meth:`_absorb`).
        """
        rntis = np.asarray(rntis)
        count = len(rntis)
        if count == 0:
            return
        if isinstance(now, (float, int)):
            times = np.full(count, now, dtype=np.float64)
        else:
            times = np.asarray(now, dtype=np.float64)
            if times.ndim == 0:
                times = np.full(count, times)
            elif count > 1 and bool((times[1:] < times[:-1]).any()):
                raise ValueError("per-record times must not decrease")
        start = 0
        while start < count:
            stop = self._quiet_until(times, start)
            if stop == start:
                self.on_dci(float(times[start]), int(rntis[start]))
                start += 1
            elif start == 0 and stop == count:
                self._absorb(times, rntis)
                return
            else:
                self._absorb(times[start:stop], rntis[start:stop])
                start = stop

    def _quiet_until(self, times: np.ndarray, start: int) -> int:
        """First record from ``start`` on where an expiry/sweep may fall.

        Conservative and exact: an active entry's ``last_seen_s`` only
        grows, and an entry confirmed from here on is seen no earlier
        than ``times[start]``, so no entry can expire at a record ``t``
        with ``t - floor <= expiry_s``.  Both masks are monotone in
        ``t`` (float subtraction is), so the first flagged record is the
        first of the run.
        """
        floor = float(times[start])
        for activity in self._active.values():
            if activity.last_seen_s < floor:
                floor = activity.last_seen_s
        last = float(times[-1])
        if (last - self._last_sweep_s < self._window_s
                and last - floor <= self._expiry_s):
            return len(times)
        rest = times[start:]
        due = ((rest - self._last_sweep_s >= self._window_s)
               | (rest - floor > self._expiry_s))
        return start + int(np.argmax(due))

    def _absorb(self, times: np.ndarray, rntis: np.ndarray) -> None:
        """Records no expiry or sweep falls among, collapsed per RNTI.

        An active RNTI takes all its records in one update.  Any other
        runs the candidate rule record by record until it confirms, and
        its remaining records become activity.  RNTIs do not interact
        here, so only the order of confirmations is observable (the
        active dict's order): they are applied in record order.
        """
        if len(rntis) == 1:
            self._hit(float(times[0]), int(rntis[0]))
            return
        order = rntis.argsort(kind="stable")
        ordered = rntis[order]
        # Each RNTI's records are ordered[lo:hi]; ``ends`` holds hi - 1.
        group_end = np.empty(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=group_end[:-1])
        group_end[-1] = True
        ends = group_end.nonzero()[0]
        confirms = []
        hi = 0
        for rnti, end, last in zip(ordered[ends].tolist(), ends.tolist(),
                                   times[order[ends]].tolist()):
            lo, hi = hi, end + 1
            if not is_crnti(rnti):
                continue
            activity = self._active.get(rnti)
            if activity is not None:
                activity.last_seen_s = max(activity.last_seen_s, last)
                activity.records += hi - lo
                continue
            picks = order[lo:hi]
            for offset, time_s in enumerate(times[picks].tolist()):
                if self._candidate_hit(time_s, rnti):
                    confirms.append((int(picks[offset]), rnti, time_s,
                                     hi - lo - offset - 1, last))
                    break
        confirms.sort()
        for _, rnti, time_s, remaining, last in confirms:
            self._confirm(rnti, time_s)
            if remaining:
                activity = self._active[rnti]
                activity.last_seen_s = max(activity.last_seen_s, last)
                activity.records += remaining

    def _hit(self, now: float, rnti: int) -> None:
        """One record's effect once expiry and sweep have run."""
        if not is_crnti(rnti):
            return
        activity = self._active.get(rnti)
        if activity is not None:
            # Chunked feeds may deliver records slightly out of time
            # order at chunk boundaries; liveness clocks only ever move
            # forward, so a late-arriving old record cannot shrink an
            # entry's lifetime or trigger a spurious expiry later.
            activity.last_seen_s = max(activity.last_seen_s, now)
            activity.records += 1
            return
        if self._candidate_hit(now, rnti):
            self._confirm(rnti, now)

    def _candidate_hit(self, now: float, rnti: int) -> bool:
        """Count one sighting of a candidate; whether it now confirms."""
        candidate = self._candidates.get(rnti)
        if candidate is None or now - candidate.first_seen_s > self._window_s:
            candidate = self._candidates[rnti] = _Candidate(
                first_seen_s=now, last_seen_s=now)
        else:
            candidate.hits += 1
            candidate.last_seen_s = max(candidate.last_seen_s, now)
        return candidate.hits >= self._threshold

    def on_control(self, message: ControlMessage) -> None:
        """Feed one control-plane message."""
        if isinstance(message, RandomAccessResponse):
            now = to_seconds(message.time_us)
            self._expire_stale(now)
            if is_crnti(message.temp_crnti):
                self._confirm(message.temp_crnti, now)
        elif isinstance(message, RRCConnectionRelease):
            self._retire(message.crnti, to_seconds(message.time_us))

    # -- internals ------------------------------------------------------------------

    def _confirm(self, rnti: int, now: float) -> None:
        if rnti in self._active:
            activity = self._active[rnti]
            activity.last_seen_s = max(activity.last_seen_s, now)
            return
        self._candidates.pop(rnti, None)
        self._active[rnti] = RNTIActivity(rnti=rnti, confirmed_s=now,
                                          last_seen_s=now)
        self._confirmed_obs.inc()
        # An RNTI confirmed, retired, then confirmed again is churn the
        # tracker absorbed (reassignment faults, RRC release/reconnect);
        # counted explicitly so degraded captures are distinguishable
        # from clean ones in the run manifest.
        if rnti in self._ever_confirmed:
            self._reconfirmed.inc()
        else:
            self._ever_confirmed.add(rnti)

    def _retire(self, rnti: int, now: float) -> None:
        activity = self._active.pop(rnti, None)
        if activity is not None:
            activity.expired = True
            activity.last_seen_s = max(activity.last_seen_s, now)
            self._history.append(activity)
            self._retired_obs.inc()

    def _expire_stale(self, now: float) -> None:
        stale = [rnti for rnti, activity in self._active.items()
                 if now - activity.last_seen_s > self._expiry_s]
        for rnti in stale:
            self._retire(rnti, now)
        # Corrupted captures yield uniformly random garbage RNTIs whose
        # one-hit candidate entries would otherwise accumulate forever
        # (a long-capture memory leak).  A candidate unseen for a full
        # confirm window can never confirm — on_dci restarts the window
        # for it anyway — so it is dropped.  Swept at most once per
        # window to keep the per-DCI cost amortised O(1).
        if now - self._last_sweep_s >= self._window_s:
            self._last_sweep_s = now
            dead = [rnti for rnti, candidate in self._candidates.items()
                    if now - candidate.last_seen_s > self._window_s]
            for rnti in dead:
                del self._candidates[rnti]
            if dead:
                self._pruned_obs.inc(len(dead))

    # -- queries ------------------------------------------------------------------------

    def active_rntis(self) -> Set[int]:
        """Currently-confirmed RNTIs."""
        return set(self._active)

    def is_active(self, rnti: int) -> bool:
        return rnti in self._active

    def activity(self, rnti: int) -> Optional[RNTIActivity]:
        return self._active.get(rnti)

    def history(self) -> List[RNTIActivity]:
        """Expired activities, in retirement order."""
        return list(self._history)

    @property
    def candidate_count(self) -> int:
        return len(self._candidates)

    @property
    def reconfirmations(self) -> int:
        """Confirm events for RNTIs already confirmed once before."""
        return self._reconfirmed.value
