"""City-scale sharded simulation: many cells fanned out over ParallelMap.

The paper's threat model prices attacks against *whole-city* victim
populations, which means simulating many cells for long stretches of
virtual time — far beyond what one serial event loop covers.  This
module shards a multi-cell scenario across the deterministic
:class:`~repro.runtime.parallel.ParallelMap` with three design rules
that together make every run **bit-identical** regardless of shard
count or backend:

* **Epoch-synchronous time.**  Simulated time is cut into fixed epochs.
  Within an epoch every cell evolves independently as a pure, seeded
  task — its network rng, sniffer rng and traffic rng are all derived
  by hashing ``(master_seed, role, cell, epoch)``, never from global
  state — so a (cell, epoch) task returns the same trace no matter
  which worker (or which process) runs it.

* **Boundary-synchronised handover.**  Cross-cell movement happens only
  at epoch boundaries, in the driver: each UE's unserved backlog is
  collected from its cell and, with a probability drawn from a seeded
  migration rng (one draw per UE slot per boundary, independent of
  outcomes), carried into a neighbouring cell for the next epoch.
  Because migration is computed outside the workers from seeds alone,
  it cannot depend on scheduling or sharding.

* **Traces return by value.**  A (shard, epoch) task returns its
  cells' traces and residuals through the pool like any other result;
  the driver shifts each fragment onto the city clock and merges the
  fragments of a cell once, after the last epoch.  Nothing touches
  the disk.

Shards are contiguous groups of cells; one (shard, epoch) work item is
small, so the driver uses :meth:`ParallelMap.map_batched` to amortise
task overhead.  Per-epoch cell tasks rebuild their ``LTENetwork`` from
seeds — RRC session state intentionally does not cross epochs (each
epoch models an independent activity burst), only queued bytes do.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..runtime.parallel import ParallelMap
from ..sniffer.capture import CellSniffer
from ..sniffer.trace import Trace
from .channel import ChannelProfile
from .dci import Direction
from .network import LTENetwork

#: Residual backlog carried over one epoch boundary: ue slot -> (dl, ul).
Residuals = Dict[int, Tuple[int, int]]


def _entity_seed(master: int, *parts) -> int:
    """Stable 64-bit seed for one named entity of the scenario."""
    text = ":".join([str(master)] + [str(part) for part in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class CityScenario:
    """A reproducible multi-cell workload, fully determined by ``seed``."""

    n_cells: int = 4
    ues_per_cell: int = 4
    epochs: int = 2
    epoch_s: float = 2.0
    seed: int = 0
    scheduler_name: str = "round-robin"
    total_prb: int = 50
    channel_profile: Optional[ChannelProfile] = None
    #: Mean size of one application burst (bytes, downlink-dominated).
    mean_request_bytes: int = 150_000
    #: Mean request arrivals per UE per second.
    request_rate_hz: float = 1.5
    #: Probability a UE's residual backlog migrates at an epoch boundary.
    migration_prob: float = 0.25

    def cell_ids(self) -> List[str]:
        return [f"city-{index:03d}" for index in range(self.n_cells)]


@dataclass
class CityResult:
    """Per-cell merged traces plus run accounting."""

    traces: Dict[str, Trace] = field(default_factory=dict)
    #: Record-column bytes the shard tasks returned, over all epochs.
    spilled_bytes: int = 0
    epochs: int = 0
    shards: int = 0

    @property
    def total_records(self) -> int:
        return sum(len(trace) for trace in self.traces.values())


def _run_cell_epoch(scenario: CityScenario, cell_id: str, epoch: int,
                    carried: Residuals) -> Tuple[Trace, Residuals]:
    """Simulate one cell for one epoch — a pure function of its seeds."""
    net = LTENetwork(seed=_entity_seed(scenario.seed, "net", cell_id, epoch))
    net.add_cell(cell_id, channel_profile=scenario.channel_profile,
                 scheduler_name=scenario.scheduler_name,
                 total_prb=scenario.total_prb)
    sniffer = CellSniffer(
        cell_id,
        seed=_entity_seed(scenario.seed, "sniffer", cell_id, epoch)
        & 0x7FFFFFFF).attach(net)
    ues = [net.add_ue(name=f"{cell_id}-ue{index}")
           for index in range(scenario.ues_per_cell)]
    # Residual backlog from the previous epoch arrives first (1 ms in).
    for slot, (dl_bytes, ul_bytes) in sorted(carried.items()):
        if dl_bytes > 0:
            net.clock.schedule(1_000, partial(net.deliver_traffic,
                                              ues[slot], Direction.DOWNLINK,
                                              dl_bytes))
        if ul_bytes > 0:
            net.clock.schedule(1_000, partial(net.deliver_traffic,
                                              ues[slot], Direction.UPLINK,
                                              ul_bytes))
    # Seeded application bursts: Poisson-ish arrivals per UE.
    traffic_rng = random.Random(
        _entity_seed(scenario.seed, "traffic", cell_id, epoch))
    for slot, ue in enumerate(ues):
        at_s = 0.005 + traffic_rng.expovariate(scenario.request_rate_hz)
        while at_s < scenario.epoch_s:
            size = max(256, int(traffic_rng.gauss(
                scenario.mean_request_bytes,
                0.3 * scenario.mean_request_bytes)))
            direction = (Direction.UPLINK
                         if traffic_rng.random() < 0.25
                         else Direction.DOWNLINK)
            net.clock.schedule(int(at_s * 1_000_000),
                               partial(net.deliver_traffic, ue, direction,
                                       size))
            at_s += traffic_rng.expovariate(scenario.request_rate_hz)
    net.run_for(scenario.epoch_s)
    enb = net.cells[cell_id].enb
    residuals: Residuals = {}
    for slot, ue in enumerate(ues):
        context = enb.context_for(ue)
        if context is not None and context.total_backlog > 0:
            residuals[slot] = (context.dl_backlog, context.ul_backlog)
    net.close()
    trace = Trace.merged(
        [sniffer.trace_for_rnti(rnti) for rnti in sniffer.observed_rntis()],
        cell=cell_id)
    return trace, residuals


def _run_shard_epoch(scenario: CityScenario,
                     payload) -> List[Tuple[Trace, Residuals]]:
    """Worker task: simulate one shard's cells for one epoch.

    Returns one ``(trace, residuals)`` pair per cell, in shard order.
    """
    epoch, cells = payload
    return [_run_cell_epoch(scenario, cell_id, epoch, carried)
            for cell_id, carried in cells]


def _shard_cells(cell_ids: Sequence[str], shards: int) -> List[List[str]]:
    """Contiguous, deterministic partition of cells into shards."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1: {shards}")
    shards = min(shards, len(cell_ids))
    per_shard = -(-len(cell_ids) // shards)
    return [list(cell_ids[start:start + per_shard])
            for start in range(0, len(cell_ids), per_shard)]


def run_city(scenario: CityScenario, mapper: Optional[ParallelMap] = None,
             shards: int = 1) -> CityResult:
    """Run a sharded city scenario; bit-identical for any shards/backend.

    Each epoch fans (shard, epoch) tasks through ``mapper.map_batched``;
    each returns its cells' traces and residuals by value.  At every
    epoch boundary the seeded migration pass moves residual backlog
    between neighbouring cells.
    """
    mapper = mapper or ParallelMap(workers=1)
    cells = scenario.cell_ids()
    shard_lists = _shard_cells(cells, shards)
    carried: Dict[str, Residuals] = {cell_id: {} for cell_id in cells}
    fragments: Dict[str, List[Trace]] = {cell_id: [] for cell_id in cells}
    spilled_bytes = 0
    with obs.span("sim.city"):
        for epoch in range(scenario.epochs):
            payloads = [
                (epoch, [(cell_id, carried[cell_id]) for cell_id in shard])
                for shard in shard_lists]
            results = mapper.map_batched(
                partial(_run_shard_epoch, scenario), payloads)
            epoch_residuals: Dict[str, Residuals] = {}
            offset_s = epoch * scenario.epoch_s
            for shard, returned in zip(shard_lists, results):
                for cell_id, (trace, residual) in zip(shard, returned):
                    spilled_bytes += sum(column.nbytes for column in (
                        trace.times_s, trace.rntis, trace.directions,
                        trace.tbs_bytes))
                    if len(trace):
                        times = trace.times_s + offset_s
                        fragments[cell_id].append(Trace.from_arrays(
                            times, trace.rntis, trace.directions,
                            trace.tbs_bytes, validate=False, cell=cell_id))
                    epoch_residuals[cell_id] = residual
            # Boundary-synchronised migration: seeded per epoch, one
            # draw per UE slot in cell order — independent of outcomes
            # and of sharding, so every layout sees the same moves.
            migration_rng = random.Random(
                _entity_seed(scenario.seed, "migrate", epoch))
            carried = {cell_id: {} for cell_id in cells}
            for cell_index, cell_id in enumerate(cells):
                residual = epoch_residuals.get(cell_id, {})
                for slot in range(scenario.ues_per_cell):
                    migrate = (migration_rng.random()
                               < scenario.migration_prob)
                    dl_bytes, ul_bytes = residual.get(slot, (0, 0))
                    if dl_bytes == 0 and ul_bytes == 0:
                        continue
                    target = (cells[(cell_index + 1) % len(cells)]
                              if migrate and len(cells) > 1 else cell_id)
                    old_dl, old_ul = carried[target].get(slot, (0, 0))
                    carried[target][slot] = (old_dl + dl_bytes,
                                             old_ul + ul_bytes)
        merged = {cell_id: Trace.merged(parts, cell=cell_id)
                  for cell_id, parts in fragments.items()}
    return CityResult(traces=merged, spilled_bytes=spilled_bytes,
                      epochs=scenario.epochs, shards=len(shard_lists))
