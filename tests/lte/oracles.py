"""Object MAC schedulers: the reference the vector schedulers match.

The eNodeB runs the batched schedulers of :mod:`repro.lte.vecsched`.
These per-demand object schedulers are the implementations they were
derived from; the differential suite (``tests/lte/test_vecsched.py``)
and the property harness (``tests/properties/test_vector_scheduler.py``)
compare the two grant for grant.  Downlink and uplink are scheduled
independently (FDD), each over its own ``total_prb`` grid per TTI.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.lte.dci import Direction
from repro.lte.tbs import grant_for_bytes, mcs_to_itbs, transport_block_bytes


@dataclass(frozen=True)
class Allocation:
    """A grant decided by a scheduler, ready to be signalled as DCI."""

    rnti: int
    direction: Direction
    mcs: int
    n_prb: int
    tbs_bytes: int


@dataclass
class Demand:
    """One UE's pending traffic in one direction for this TTI."""

    rnti: int
    direction: Direction
    backlog_bytes: int
    mcs: int

    def __post_init__(self) -> None:
        if self.backlog_bytes <= 0:
            raise ValueError(f"demand must be positive: {self.backlog_bytes}")


class MACScheduler(abc.ABC):
    """Base class: allocate one TTI's PRBs among competing demands."""

    name: str = "abstract"

    @abc.abstractmethod
    def allocate(self, demands: Sequence[Demand], total_prb: int) -> List[Allocation]:
        """Produce grants for one TTI in one direction.

        Implementations must never allocate more than ``total_prb`` PRBs
        in total and must emit at most one grant per RNTI (per TS 36.213,
        a UE receives at most one DL assignment per TTI per carrier).
        """

    @staticmethod
    def _grant(demand: Demand, remaining_prb: int) -> Allocation:
        n_prb, tbs = grant_for_bytes(demand.backlog_bytes, demand.mcs, remaining_prb)
        return Allocation(rnti=demand.rnti, direction=demand.direction,
                          mcs=demand.mcs, n_prb=n_prb, tbs_bytes=tbs)


class RoundRobinScheduler(MACScheduler):
    """Classic round-robin: serve demands cyclically, fair in turns."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next_index = 0

    def allocate(self, demands: Sequence[Demand], total_prb: int) -> List[Allocation]:
        if not demands:
            return []
        grants: List[Allocation] = []
        remaining = total_prb
        order = list(range(len(demands)))
        start = self._next_index % len(demands)
        rotated = order[start:] + order[:start]
        for index in rotated:
            if remaining <= 0:
                break
            grants.append(self._grant(demands[index], remaining))
            remaining -= grants[-1].n_prb
        self._next_index = (start + 1) % len(demands)
        return grants


class ProportionalFairScheduler(MACScheduler):
    """Proportional fair: rank by instantaneous rate over average rate.

    Maintains an exponentially-averaged throughput per RNTI; UEs that
    have recently been served rank lower, producing the short-timescale
    interleaving visible in commercial captures.
    """

    name = "proportional-fair"

    def __init__(self, averaging_window: float = 100.0) -> None:
        if averaging_window <= 1.0:
            raise ValueError(f"averaging_window must be > 1: {averaging_window}")
        self._alpha = 1.0 / averaging_window
        self._avg_rate: Dict[int, float] = {}

    def _priority(self, demand: Demand) -> float:
        instantaneous = transport_block_bytes(mcs_to_itbs(demand.mcs), 25)
        average = self._avg_rate.get(demand.rnti, 1.0)
        return instantaneous / max(average, 1e-9)

    def allocate(self, demands: Sequence[Demand], total_prb: int) -> List[Allocation]:
        if not demands:
            return []
        ranked = sorted(demands, key=self._priority, reverse=True)
        grants: List[Allocation] = []
        remaining = total_prb
        served_bytes: Dict[int, int] = {}
        for demand in ranked:
            if remaining <= 0:
                break
            grant = self._grant(demand, remaining)
            grants.append(grant)
            remaining -= grant.n_prb
            served_bytes[demand.rnti] = grant.tbs_bytes
        # Decay every known average; credit the served UEs.
        for rnti in sorted({d.rnti for d in demands} | set(self._avg_rate)):
            previous = self._avg_rate.get(rnti, 1.0)
            self._avg_rate[rnti] = ((1.0 - self._alpha) * previous
                                    + self._alpha * served_bytes.get(rnti, 0))
        return grants

    def forget(self, rnti: int) -> None:
        """Drop state for a released RNTI (called on RRC release)."""
        self._avg_rate.pop(rnti, None)


class MaxCQIScheduler(MACScheduler):
    """Greedy: always serve the best-channel demand first (max throughput)."""

    name = "max-cqi"

    def allocate(self, demands: Sequence[Demand], total_prb: int) -> List[Allocation]:
        if not demands:
            return []
        ranked = sorted(demands, key=lambda d: d.mcs, reverse=True)
        grants: List[Allocation] = []
        remaining = total_prb
        for demand in ranked:
            if remaining <= 0:
                break
            grant = self._grant(demand, remaining)
            grants.append(grant)
            remaining -= grant.n_prb
        return grants


_SCHEDULERS = {
    RoundRobinScheduler.name: RoundRobinScheduler,
    ProportionalFairScheduler.name: ProportionalFairScheduler,
    MaxCQIScheduler.name: MaxCQIScheduler,
}


def make_scheduler(name: str) -> MACScheduler:
    """Instantiate a scheduler by its registry name."""
    try:
        return _SCHEDULERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; known: {sorted(_SCHEDULERS)}") from None
