#!/usr/bin/env python
"""Benchmark guard: TTI engine cost across cell sizes, plus shard scaling.

Measures the simulator hot loop two ways and records both, with a
sharded city scaling sweep, into ``BENCH_simulator.json`` at the repo
root:

* a saturated 2048-UE cell — every UE holding a large backlog, so each
  TTI runs the full scheduler + grant path — timed with the legacy
  per-UE object engine and with the default engine (its array lane);
* a crossover sweep over T-Mobile cells of 1-128 saturated UEs with a
  T-Mobile capture sniffer attached, round-robin and proportional-fair:
  per-TTI microseconds of the legacy engine, the default engine, and
  the default engine pinned to its scalar lane and to its array lane.
  The sweep is the evidence for ``repro.lte.engine.SCALAR_LANE_MAX``.

Three guards then apply:

* on the 2048-UE cell the default engine must be at least
  ``MIN_SPEEDUP``× faster than the legacy loop;
* that speedup must not regress by more than 2× against the committed
  ``BENCH_simulator.json`` (loaded before overwriting);
* at every swept cell size the default engine may cost at most
  ``MAX_SWEEP_RATIO``× the legacy loop's per-TTI time.

Run via ``make bench-sim``, ``python -m repro.cli bench sim``, or
``python benchmarks/bench_simulator.py``.
"""

import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
OUT = REPO_ROOT / "BENCH_simulator.json"

MIN_SPEEDUP = 10.0
REGRESSION_FACTOR = 2.0
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
#: The default engine may cost at most this multiple of the legacy
#: loop's per-TTI time at any swept cell size.
MAX_SWEEP_RATIO = 1.5

sys.path.insert(0, str(SRC))


def _build_network(engine):
    from repro.lte.channel import ChannelProfile
    from repro.lte.dci import Direction
    from repro.lte.network import LTENetwork

    net = LTENetwork(seed=7)
    net.add_cell("bench", scheduler_name="proportional-fair",
                 total_prb=TOTAL_PRB, engine=engine,
                 channel_profile=ChannelProfile(mean_cqi=12, cqi_span=2,
                                                cqi_step_prob=0.05))
    for index in range(N_UES):
        ue = net.add_ue(name=f"ue{index}")
        net.deliver_traffic(ue, Direction.DOWNLINK, 50_000_000)
        net.deliver_traffic(ue, Direction.UPLINK, 50_000_000)
    return net


def _time_engine(engine):
    best = float("inf")
    grants = 0
    for _ in range(ROUNDS):
        net = _build_network(engine)
        net.run_for(WARM_S)            # connection setup + loop warm-up
        started = time.perf_counter()
        net.run_for(TIMED_S)
        best = min(best, time.perf_counter() - started)
        grants = net.cells["bench"].enb.grants_issued
    return best, grants


def _crossover_cell(engine, scheduler_name, n_ues):
    """One T-Mobile cell of ``n_ues`` saturated UEs plus a capture sniffer."""
    from repro.lte.dci import Direction
    from repro.lte.network import LTENetwork
    from repro.operators import TMOBILE
    from repro.sniffer.capture import CellSniffer

    net = LTENetwork(seed=7)
    net.add_cell("sweep", scheduler_name=scheduler_name,
                 total_prb=TMOBILE.total_prb, engine=engine,
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


def _time_tti_us(engine, scheduler_name, n_ues):
    """Wall time of one TTI in microseconds, and the records captured.

    Every UE keeps a backlog for the whole run, so each millisecond is
    one TTI: ``SWEEP_TIMED_S * 1000`` TTIs are timed.
    """
    net, sniffer = _crossover_cell(engine, scheduler_name, n_ues)
    net.run_for(SWEEP_WARM_S)
    if net.cells["sweep"].enb.connected_count != n_ues:
        raise RuntimeError("sweep UEs not connected before timing")
    started = time.perf_counter()
    net.run_for(SWEEP_TIMED_S)
    elapsed = time.perf_counter() - started
    return elapsed / (SWEEP_TIMED_S * 1000) * 1e6, sniffer.total_records


def _crossover_point(scheduler_name, n_ues):
    """Best-of-``ROUNDS`` per-TTI cost of each engine and lane at one size.

    ``vector`` is the default engine as shipped; ``scalar_lane`` and
    ``array_lane`` pin every TTI to one lane by moving the lane bound.
    Rounds interleave the four variants so host drift hits all alike.
    """
    from repro.lte import engine as engine_module

    shipped = engine_module.SCALAR_LANE_MAX
    variants = (("legacy", "legacy", shipped),
                ("vector", "vector", shipped),
                ("scalar_lane", "vector", 1 << 30),
                ("array_lane", "vector", 0))
    best = {name: float("inf") for name, _, _ in variants}
    records = set()
    try:
        for _ in range(ROUNDS):
            for name, engine, bound in variants:
                engine_module.SCALAR_LANE_MAX = bound
                tti_us, captured = _time_tti_us(engine, scheduler_name,
                                                n_ues)
                best[name] = min(best[name], tti_us)
                records.add(captured)
    finally:
        engine_module.SCALAR_LANE_MAX = shipped
    if len(records) != 1:
        raise RuntimeError(f"engines diverged at {scheduler_name} "
                           f"n={n_ues}: records {sorted(records)}")
    row = {"scheduler": scheduler_name, "ues": n_ues,
           "lane": "scalar" if n_ues <= shipped else "array"}
    row.update({f"{name}_tti_us": round(value, 1)
                for name, value in best.items()})
    row["ratio"] = round(best["vector"] / best["legacy"], 3)
    row["records"] = records.pop()
    return row


def _crossover_sweep():
    """Per-TTI cost of both engines across cell sizes (lane evidence)."""
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
        started = time.perf_counter()
        result = run_city(scenario, mapper, shards=shards)
        sweep.append({"shards": shards, "workers": workers,
                      "wall_s": time.perf_counter() - started,
                      "records": result.total_records,
                      "spilled_bytes": result.spilled_bytes})
    return sweep


def main() -> int:
    from repro.lte.engine import SCALAR_LANE_MAX

    previous_speedup = None
    if OUT.exists():
        try:
            previous_speedup = json.loads(
                OUT.read_text())["results"]["speedup"]
        except (ValueError, KeyError):
            previous_speedup = None

    legacy_s, legacy_grants = _time_engine("legacy")
    vector_s, vector_grants = _time_engine("vector")
    if legacy_grants != vector_grants:
        print(f"FAIL: engines diverged ({legacy_grants} vs "
              f"{vector_grants} grants)", file=sys.stderr)
        return 1
    speedup = legacy_s / vector_s
    crossover = _crossover_sweep()
    sweep = _shard_scaling()

    document = {
        "description": "Saturated single-cell TTI loop (proportional-fair"
                       f", {N_UES} UEs, {TOTAL_PRB} PRB, "
                       f"{int(TIMED_S * 1000)} TTIs timed): legacy per-UE "
                       "object engine vs batched array engine, best of "
                       f"{ROUNDS}; per-TTI crossover sweep over T-Mobile "
                       "cells of 1-128 saturated UEs with a capture "
                       "sniffer; plus sharded city scaling sweep.",
        "workload": {
            "ues": N_UES,
            "total_prb": TOTAL_PRB,
            "timed_ttis": int(TIMED_S * 1000),
            "rounds": ROUNDS,
            "grants_per_engine": vector_grants,
            # Shard scaling tracks available cores: per-(shard, epoch)
            # tasks are independent, so on k >= shards cores the sweep
            # approaches max per-shard time; on this host it is bounded
            # by cpu_count.
            "cpu_count": os.cpu_count(),
        },
        "results": {
            "legacy_wall_s": legacy_s,
            "vector_wall_s": vector_s,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "crossover": {
                "scalar_lane_max": SCALAR_LANE_MAX,
                "max_ratio": MAX_SWEEP_RATIO,
                "timed_ttis": int(SWEEP_TIMED_S * 1000),
                "points": crossover,
            },
            "shard_sweep": sweep,
        },
    }
    OUT.write_text(json.dumps(document, indent=2) + "\n")
    print(f"simulator: legacy {legacy_s:.3f} s, vector {vector_s:.3f} s "
          f"-> {speedup:.1f}x (target >= {MIN_SPEEDUP:.0f}x) -> {OUT.name}")
    for row in crossover:
        print(f"  {row['scheduler']:>17} n={row['ues']:<3} "
              f"legacy {row['legacy_tti_us']:7.1f} us  "
              f"default {row['vector_tti_us']:7.1f} us ({row['lane']} lane)"
              f"  scalar {row['scalar_lane_tti_us']:7.1f}  "
              f"array {row['array_lane_tti_us']:7.1f}  "
              f"ratio {row['ratio']:.2f}")
    for entry in sweep:
        print(f"  city shards={entry['shards']} workers={entry['workers']}: "
              f"{entry['wall_s']:.3f} s, {entry['records']} records")

    if speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup {speedup:.1f}x below the "
              f"{MIN_SPEEDUP:.0f}x floor", file=sys.stderr)
        return 1
    slow = [row for row in crossover if row["ratio"] > MAX_SWEEP_RATIO]
    for row in slow:
        print(f"FAIL: default engine {row['ratio']:.2f}x the legacy "
              f"per-TTI time at {row['scheduler']} n={row['ues']} "
              f"(limit {MAX_SWEEP_RATIO}x)", file=sys.stderr)
    if slow:
        return 1
    if (previous_speedup is not None
            and speedup < previous_speedup / REGRESSION_FACTOR):
        print(f"FAIL: speedup {speedup:.1f}x regressed more than "
              f"{REGRESSION_FACTOR:.0f}x against the recorded "
              f"{previous_speedup:.1f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
