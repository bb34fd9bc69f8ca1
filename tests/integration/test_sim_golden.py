"""Golden equivalence: the vectorized engine is bit-identical to legacy.

The array-backed :class:`~repro.lte.engine.VectorENodeB` replaced the
per-UE object hot loop as the default simulator.  Its contract is not
"statistically similar" but **bit-identical**: same seeds in, same trace
bytes out, for every scheduler, every obfuscation knob, HARQ, capture
loss/corruption, and RNTI refresh.  These goldens pin that contract:

* single-cell scenario sweep, legacy vs vector, comparing every trace
  column plus capture/tracker observability — run once with every TTI
  pinned to the vector engine's array lane and once pinned to its
  scalar lane, since every scenario here sits below the crossover;
* a crossing scenario whose connections push the cell above
  ``SCALAR_LANE_MAX`` and whose inactivity releases bring it back, so
  the engine changes lanes mid-run in both directions;
* the experiment driver path (``collect_trace``) under the
  ``REPRO_SIM_ENGINE`` override, proving drivers need no changes;
* the sharded city simulator across shard counts {1, 2, 4} on both the
  serial and the process ``ParallelMap`` backends.
"""

import hashlib

import numpy as np
import pytest

from repro.core.dataset import collect_trace
from repro.lte.channel import ChannelProfile
from repro.lte.city import CityScenario, run_city
from repro.lte.dci import Direction
from repro.lte import engine as engine_module
from repro.lte.engine import ENGINE_ENV, VectorENodeB, resolve_engine
from repro.lte.enb import ENodeB
from repro.lte.network import LTENetwork
from repro.lte.obfuscation import ObfuscationConfig
from repro.lte.scheduler import CrossTraffic
from repro.operators import LAB
from repro.runtime.parallel import ParallelMap
from repro.sniffer.capture import CellSniffer

#: Scenario sweep: (scheduler, cell kwargs, capture profile kwargs).
SCENARIOS = [
    ("round-robin", {}, {}),
    ("proportional-fair", {}, {}),
    ("max-cqi", {}, {}),
    ("proportional-fair",
     {"channel_profile": ChannelProfile(harq_bler=0.12),
      "cross_traffic": CrossTraffic(mean_load=0.3)},
     {"capture_loss": 0.05, "corruption_prob": 0.05}),
    ("round-robin",
     {"obfuscation": ObfuscationConfig(padding_quantum=8,
                                       chaff_probability=0.2,
                                       rnti_refresh_s=0.6)},
     {}),
]


def _simulate(engine, scheduler_name, cell_kwargs, capture_kwargs,
              seed=42, duration_s=1.5):
    net = LTENetwork(seed=seed)
    net.add_cell("golden", scheduler_name=scheduler_name, total_prb=50,
                 engine=engine, **cell_kwargs)
    profile = (ChannelProfile(**capture_kwargs) if capture_kwargs
               else None)
    sniffer = CellSniffer("golden", capture_profile=profile,
                          seed=7).attach(net)
    ues = [net.add_ue(name=f"ue{i}") for i in range(4)]
    rng_schedule = [(0.01, 0, Direction.DOWNLINK, 400_000),
                    (0.02, 1, Direction.DOWNLINK, 90_000),
                    (0.05, 2, Direction.UPLINK, 30_000),
                    (0.30, 3, Direction.DOWNLINK, 1_500_000),
                    (0.70, 0, Direction.UPLINK, 250_000),
                    (0.90, 1, Direction.DOWNLINK, 12_000)]
    for at_s, index, direction, size in rng_schedule:
        net.clock.schedule(int(at_s * 1_000_000),
                           lambda u=ues[index], d=direction, s=size:
                           net.deliver_traffic(u, d, s))
    net.run_for(duration_s)
    return net, sniffer


def _trace_digest(sniffer):
    digest = hashlib.sha256()
    for rnti in sniffer.observed_rntis():
        trace = sniffer.trace_for_rnti(rnti)
        digest.update(rnti.to_bytes(4, "big"))
        digest.update(trace.times_s.tobytes())
        digest.update(trace.rntis.tobytes())
        digest.update(trace.directions.tobytes())
        digest.update(trace.tbs_bytes.tobytes())
    return digest.hexdigest()


@pytest.fixture
def lane_spy(monkeypatch):
    """Count the vector engine's TTIs per lane, and record lane changes.

    ``counts["changes"]`` lists the lanes in the order they took over.
    """
    counts = {"scalar": 0, "array": 0, "changes": []}
    for lane in ("scalar", "array"):
        original = getattr(VectorENodeB, f"_{lane}_tti")

        def spy(self, *args, _lane=lane, _original=original):
            counts[_lane] += 1
            if counts["changes"][-1:] != [_lane]:
                counts["changes"].append(_lane)
            return _original(self, *args)

        monkeypatch.setattr(VectorENodeB, f"_{lane}_tti", spy)
    return counts


#: Lane pins: a bound of 0 sends every TTI of a populated cell to the
#: array lane, an unreachable bound sends every TTI to the scalar lane.
LANE_BOUNDS = {"array": 0, "scalar": 1 << 30}


@pytest.mark.parametrize("lane", sorted(LANE_BOUNDS))
@pytest.mark.parametrize("scheduler_name,cell_kwargs,capture_kwargs",
                         SCENARIOS)
def test_vector_engine_trace_golden(scheduler_name, cell_kwargs,
                                    capture_kwargs, lane, lane_spy,
                                    monkeypatch):
    legacy_net, legacy_sniffer = _simulate("legacy", scheduler_name,
                                           cell_kwargs, capture_kwargs)
    monkeypatch.setattr(engine_module, "SCALAR_LANE_MAX", LANE_BOUNDS[lane])
    vector_net, vector_sniffer = _simulate("vector", scheduler_name,
                                           cell_kwargs, capture_kwargs)
    assert _trace_digest(legacy_sniffer) == _trace_digest(vector_sniffer)
    obfuscating = "obfuscation" in cell_kwargs and (
        cell_kwargs["obfuscation"].padding_quantum > 0
        or cell_kwargs["obfuscation"].chaff_probability > 0.0)
    ran = "array" if obfuscating else lane
    assert lane_spy[ran] > 0
    assert lane_spy["scalar" if ran == "array" else "array"] == 0
    assert (legacy_sniffer.total_records > 0
            or not capture_kwargs)  # lossy runs may drop, clean must see
    legacy_enb = legacy_net.cells["golden"].enb
    vector_enb = vector_net.cells["golden"].enb
    assert isinstance(vector_enb, VectorENodeB)
    assert type(legacy_enb) is ENodeB
    assert vector_enb.grants_issued == legacy_enb.grants_issued
    assert vector_enb.bytes_granted == legacy_enb.bytes_granted
    assert (vector_enb.harq_retransmissions
            == legacy_enb.harq_retransmissions)
    assert (vector_sniffer.tracker.active_rntis()
            == legacy_sniffer.tracker.active_rntis())


def _crossing_simulation(engine):
    """A PF cell that grows past the scalar-lane bound and shrinks back.

    Three UEs stay busy throughout; at 0.3 s every other UE sends one
    burst, which connects them and lifts the cell above
    ``SCALAR_LANE_MAX``; the 0.25 s inactivity timer then releases them
    again.  HARQ, capture loss/corruption and RNTI refresh all run.
    """
    n_ues = engine_module.SCALAR_LANE_MAX + 6
    net = LTENetwork(seed=5)
    net.add_cell("crossing", scheduler_name="proportional-fair",
                 total_prb=50, engine=engine, inactivity_timeout_s=0.25,
                 channel_profile=ChannelProfile(harq_bler=0.1),
                 obfuscation=ObfuscationConfig(rnti_refresh_s=0.4))
    sniffer = CellSniffer("crossing", seed=3,
                          capture_profile=ChannelProfile(
                              capture_loss=0.05,
                              corruption_prob=0.03)).attach(net)
    ues = [net.add_ue(name=f"ue{i}") for i in range(n_ues)]
    peak = [0]

    def sample():
        peak[0] = max(peak[0], net.cells["crossing"].enb.connected_count)

    for step in range(40):
        at_us = 10_000 + step * 40_000
        for index in range(3):
            net.clock.schedule(at_us + index * 1_000,
                               lambda u=ues[index]: net.deliver_traffic(
                                   u, Direction.UPLINK, 6_000))
        net.clock.schedule(at_us + 5_000, sample)
    for index, ue in enumerate(ues[3:]):
        net.clock.schedule(300_000 + index * 500,
                           lambda u=ue: net.deliver_traffic(
                               u, Direction.UPLINK, 20_000))
    net.run_for(1.7)
    return net, sniffer, peak[0]


def test_crossing_scenario_switches_lanes_and_matches_legacy(lane_spy):
    legacy_net, legacy_sniffer, _ = _crossing_simulation("legacy")
    vector_net, vector_sniffer, peak = _crossing_simulation("vector")
    bound = engine_module.SCALAR_LANE_MAX
    assert peak > bound
    assert vector_net.cells["crossing"].enb.connected_count <= bound
    assert lane_spy["changes"] == ["scalar", "array", "scalar"]
    assert _trace_digest(vector_sniffer) == _trace_digest(legacy_sniffer)
    legacy_enb = legacy_net.cells["crossing"].enb
    vector_enb = vector_net.cells["crossing"].enb
    assert vector_enb.grants_issued == legacy_enb.grants_issued
    assert (vector_enb.harq_retransmissions
            == legacy_enb.harq_retransmissions)
    assert (vector_enb.obfuscation_stats.rnti_refreshes
            == legacy_enb.obfuscation_stats.rnti_refreshes > 0)


def test_engine_env_override_reaches_experiment_drivers(monkeypatch):
    """``collect_trace`` is engine-agnostic: the env knob decides."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    digests = {}
    for engine in ("legacy", "vector"):
        monkeypatch.setenv(ENGINE_ENV, engine)
        trace = collect_trace("Netflix", operator=LAB, duration_s=6.0,
                              seed=77)
        digests[engine] = hashlib.sha256(
            trace.times_s.tobytes() + trace.rntis.tobytes()
            + trace.directions.tobytes()
            + trace.tbs_bytes.tobytes()).hexdigest()
        assert len(trace) > 0
    assert digests["legacy"] == digests["vector"]


def test_resolve_engine_precedence(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    assert resolve_engine() is VectorENodeB
    monkeypatch.setenv(ENGINE_ENV, "legacy")
    assert resolve_engine() is ENodeB
    assert resolve_engine("vector") is VectorENodeB  # explicit beats env
    with pytest.raises(ValueError):
        resolve_engine("warp")


def _city_digest(result):
    digest = hashlib.sha256()
    for cell_id in sorted(result.traces):
        trace = result.traces[cell_id]
        digest.update(cell_id.encode())
        digest.update(trace.times_s.tobytes())
        digest.update(trace.rntis.tobytes())
        digest.update(trace.directions.tobytes())
        digest.update(trace.tbs_bytes.tobytes())
    return digest.hexdigest()


class TestShardedCityGoldens:
    SCENARIO = CityScenario(n_cells=4, ues_per_cell=3, epochs=2,
                            epoch_s=1.0, seed=11, migration_prob=0.4)

    @pytest.fixture(scope="class")
    def reference(self):
        result = run_city(self.SCENARIO, ParallelMap(workers=1), shards=1)
        assert result.total_records > 0
        assert result.spilled_bytes > 0
        return _city_digest(result)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_serial_backend_bit_identical(self, reference, shards):
        result = run_city(self.SCENARIO,
                          ParallelMap(workers=1, backend="serial"),
                          shards=shards)
        assert _city_digest(result) == reference
        assert result.shards == shards

    @pytest.mark.parametrize("shards", [2, 4])
    def test_process_backend_bit_identical(self, reference, shards):
        result = run_city(self.SCENARIO,
                          ParallelMap(workers=2, backend="process"),
                          shards=shards)
        assert _city_digest(result) == reference

    def test_legacy_engine_city_matches(self, reference):
        result = run_city(self.SCENARIO, ParallelMap(workers=1), shards=2,
                          engine="legacy")
        assert _city_digest(result) == reference
