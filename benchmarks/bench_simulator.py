#!/usr/bin/env python
"""Benchmark guard: TTI loop cost across cell sizes, plus shard scaling.

Measures the simulator hot loop two ways and records both, with a
sharded city scaling sweep, into ``BENCH_simulator.json`` at the repo
root:

* a saturated 2048-UE cell — every UE holding a large backlog, so each
  TTI runs the full scheduler + grant path on the array lane — timed
  as grants per second over ``TIMED_S`` of simulated air time;
* a crossover sweep over T-Mobile cells of 1-128 saturated UEs with a
  T-Mobile capture sniffer attached, round-robin and proportional-fair:
  per-TTI microseconds of the eNodeB as shipped and pinned to its
  scalar lane and to its array lane.  The sweep is the evidence for
  ``repro.lte.engine.SCALAR_LANE_MAX``.

The guards:

* on the 2048-UE cell the eNodeB must sustain at least
  ``MIN_GRANTS_PER_S`` grants per second;
* that rate must not regress by more than 2× against the committed
  ``BENCH_simulator.json``;
* at every swept cell size, the shipped eNodeB and each pinned lane may
  cost at most ``MAX_TTI_US_BASE + MAX_TTI_US_PER_UE * ues``
  microseconds per TTI.

Run via ``make bench-sim`` or
``PYTHONPATH=src python benchmarks/bench_simulator.py``.
"""

import contextlib

import harness

OUT = harness.REPO_ROOT / "BENCH_simulator.json"

#: Grants per second the saturated 2048-UE cell must sustain.
MIN_GRANTS_PER_S = 1_500.0
ROUNDS = 3

N_UES = 2048
TOTAL_PRB = 100
WARM_S = 0.5           # all UEs finish RRC setup before timing starts
TIMED_S = 0.5          # 500 TTIs

#: Crossover sweep: cell sizes, disciplines and timed span per point.
SWEEP_UES = (1, 2, 4, 8, 16, 32, 64, 128)
SWEEP_SCHEDULERS = ("round-robin", "proportional-fair")
SWEEP_WARM_S = 0.1
SWEEP_TIMED_S = 0.3
#: Per-TTI ceiling at a swept cell of ``ues`` UEs, for the shipped
#: eNodeB and each pinned lane: a fixed cost plus a per-UE cost.
MAX_TTI_US_BASE = 300.0
MAX_TTI_US_PER_UE = 6.0

#: The legacy per-UE object loop was deleted; its last measurements
#: are kept here as history.
LEGACY_NOTE = ("The deleted per-UE object TTI loop took 15.7x the array "
               "lane's wall time on the 2048-UE cell (5.19 s vs 0.33 s on "
               "a 2-CPU host; 16.7x historically) and 1.2-2.9x the shipped "
               "eNodeB's per-TTI time across the crossover sweep.")

#: Sweep variants: the eNodeB as shipped, and pinned to each lane by
#: moving its lane bound (``None`` keeps the shipped bound).
LANE_BOUNDS = {"default": None, "scalar_lane": 1 << 30, "array_lane": 0}

GUARDS = (harness.floor("grants_per_s", MIN_GRANTS_PER_S),
          harness.regression("grants_per_s"))


def _build_network():
    from repro.lte.channel import ChannelProfile
    from repro.lte.dci import Direction
    from repro.lte.network import LTENetwork

    net = LTENetwork(seed=7)
    net.add_cell("bench", scheduler_name="proportional-fair",
                 total_prb=TOTAL_PRB,
                 channel_profile=ChannelProfile(mean_cqi=12, cqi_span=2,
                                                cqi_step_prob=0.05))
    for index in range(N_UES):
        ue = net.add_ue(name=f"ue{index}")
        net.deliver_traffic(ue, Direction.DOWNLINK, 50_000_000)
        net.deliver_traffic(ue, Direction.UPLINK, 50_000_000)
    return net


def _time_crowded_cell():
    """Best-of-``ROUNDS`` wall time of the timed span, and its grants."""

    @contextlib.contextmanager
    def warm(_):
        net = _build_network()
        net.run_for(WARM_S)            # connection setup + loop warm-up
        yield net, net.cells["bench"].enb.grants_issued

    def timed_span(warmed):
        net, before = warmed
        net.run_for(TIMED_S)
        return net.cells["bench"].enb.grants_issued - before

    best, grants = harness.best_of({"cell": timed_span}, ROUNDS, setup=warm)
    return best["cell"], grants["cell"][-1]


def _crossover_cell(scheduler_name, n_ues):
    """One T-Mobile cell of ``n_ues`` saturated UEs plus a capture sniffer."""
    from repro.lte.dci import Direction
    from repro.lte.network import LTENetwork
    from repro.operators import TMOBILE
    from repro.sniffer.capture import CellSniffer

    net = LTENetwork(seed=7)
    net.add_cell("sweep", scheduler_name=scheduler_name,
                 total_prb=TMOBILE.total_prb,
                 channel_profile=TMOBILE.serving_channel,
                 cross_traffic=TMOBILE.cross_traffic)
    sniffer = CellSniffer("sweep", capture_profile=TMOBILE.capture_channel,
                          seed=5).attach(net)
    for index in range(n_ues):
        ue = net.add_ue(name=f"ue{index}")
        # Uplink first: the UE connects after RACH alone, no paging.
        net.deliver_traffic(ue, Direction.UPLINK, 50_000_000)
        net.deliver_traffic(ue, Direction.DOWNLINK, 50_000_000)
    return net, sniffer


@contextlib.contextmanager
def _warm_sweep_cell(scheduler_name, n_ues, bound):
    """A warmed sweep cell with the eNodeB's lane bound set to ``bound``.

    Every UE keeps a backlog for the whole run, so each millisecond
    after the warm-up is one TTI.
    """
    from repro.lte import engine as engine_module

    shipped = engine_module.SCALAR_LANE_MAX
    engine_module.SCALAR_LANE_MAX = shipped if bound is None else bound
    try:
        net, sniffer = _crossover_cell(scheduler_name, n_ues)
        net.run_for(SWEEP_WARM_S)
        if net.cells["sweep"].enb.connected_count != n_ues:
            raise RuntimeError("sweep UEs not connected before timing")
        yield net, sniffer
    finally:
        engine_module.SCALAR_LANE_MAX = shipped


def _max_tti_us(n_ues):
    return MAX_TTI_US_BASE + MAX_TTI_US_PER_UE * n_ues


def _crossover_point(scheduler_name, n_ues):
    """Best-of-``ROUNDS`` per-TTI cost of the eNodeB and each lane."""
    from repro.lte.engine import SCALAR_LANE_MAX as shipped

    def timed_span(cell):
        net, sniffer = cell
        net.run_for(SWEEP_TIMED_S)
        return sniffer.total_records

    best, captured = harness.best_of(
        dict.fromkeys(LANE_BOUNDS, timed_span), ROUNDS,
        setup=lambda name: _warm_sweep_cell(scheduler_name, n_ues,
                                            LANE_BOUNDS[name]))
    records = {count for counts in captured.values() for count in counts}
    if len(records) != 1:
        raise RuntimeError(f"lanes diverged at {scheduler_name} "
                           f"n={n_ues}: records {sorted(records)}")
    row = {"scheduler": scheduler_name, "ues": n_ues,
           "lane": "scalar" if n_ues <= shipped else "array"}
    row.update({f"{name}_tti_us":
                round(seconds / (SWEEP_TIMED_S * 1000) * 1e6, 1)
                for name, seconds in best.items()})
    row["records"] = records.pop()
    return row


def _crossover_sweep():
    """Per-TTI cost of the eNodeB and its lanes across cell sizes."""
    return [_crossover_point(scheduler_name, n_ues)
            for scheduler_name in SWEEP_SCHEDULERS
            for n_ues in SWEEP_UES]


def _shard_scaling():
    from repro.lte.city import CityScenario, run_city
    from repro.runtime.parallel import ParallelMap

    scenario = CityScenario(n_cells=8, ues_per_cell=12, epochs=1,
                            epoch_s=1.0, seed=3,
                            mean_request_bytes=800_000,
                            request_rate_hz=4.0)
    sweep = []
    for shards, workers in ((1, 1), (2, 2), (4, 4)):
        mapper = ParallelMap(workers=workers,
                             backend="process" if workers > 1 else "serial")
        wall_s, outputs = harness.best_of(
            {"city": lambda _: run_city(scenario, mapper, shards=shards)}, 1)
        result = outputs["city"][-1]
        sweep.append({"shards": shards, "workers": workers,
                      "wall_s": wall_s["city"],
                      "records": result.total_records,
                      "spilled_bytes": result.spilled_bytes})
    return sweep


def main() -> int:
    from repro.lte.engine import SCALAR_LANE_MAX

    wall_s, grants = _time_crowded_cell()
    grants_per_s = grants / wall_s
    crossover = _crossover_sweep()
    sweep = _shard_scaling()

    print(f"simulator: {grants} grants in {wall_s:.3f} s -> "
          f"{grants_per_s:,.0f} grants/s")
    ceilings = []
    for index, row in enumerate(crossover):
        ceiling = _max_tti_us(row["ues"])
        print(f"  {row['scheduler']:>17} n={row['ues']:<3} "
              f"default {row['default_tti_us']:7.1f} us ({row['lane']} lane)"
              f"  scalar {row['scalar_lane_tti_us']:7.1f}  "
              f"array {row['array_lane_tti_us']:7.1f}  "
              f"ceiling {ceiling:7.1f}")
        ceilings += [harness.ceiling(
            f"crossover.points.{index}.{name}_tti_us", ceiling)
            for name in LANE_BOUNDS]
    for entry in sweep:
        print(f"  city shards={entry['shards']} workers={entry['workers']}: "
              f"{entry['wall_s']:.3f} s, {entry['records']} records")

    return harness.record(
        OUT,
        "Saturated single-cell TTI loop (proportional-fair"
        f", {N_UES} UEs, {TOTAL_PRB} PRB, "
        f"{int(TIMED_S * 1000)} TTIs timed) in grants per "
        f"second, best of {ROUNDS}; per-TTI crossover "
        "sweep over T-Mobile cells of 1-128 saturated UEs "
        "with a capture sniffer, as shipped and pinned to "
        "each lane; plus sharded city scaling sweep.",
        {"ues": N_UES, "total_prb": TOTAL_PRB,
         "timed_ttis": int(TIMED_S * 1000), "rounds": ROUNDS},
        {"wall_s": wall_s,
         "timed_grants": grants,
         "grants_per_s": grants_per_s,
         "crossover": {
             "scalar_lane_max": SCALAR_LANE_MAX,
             "timed_ttis": int(SWEEP_TIMED_S * 1000),
             "points": crossover,
         },
         # Per-(shard, epoch) tasks are independent, so on k >= shards
         # cores the sweep approaches the max per-shard time; otherwise
         # the host's core count bounds it.
         "shard_sweep": sweep,
         "legacy_note": LEGACY_NOTE},
        GUARDS + tuple(ceilings))


if __name__ == "__main__":
    harness.run(main)
