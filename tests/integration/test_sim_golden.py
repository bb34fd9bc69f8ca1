"""Golden traces: the simulator's grant stream, pinned by committed digests.

Every attack reads the per-TTI PDCCH grant stream, so the simulator's
contract is not "statistically similar" but **bit-identical**: same
seeds in, same trace bytes out, for every scheduler, every obfuscation
knob, HARQ, capture loss/corruption, and RNTI refresh.  The digests and
counters below are committed constants.  They were recorded from the
per-UE object loop the array-backed eNodeB replaced, and both engines
reproduced them before that loop was deleted.  They pin:

* a single-cell LTE scenario sweep, and the same knobs on a 5G NR cell
  (0.5 ms slots, proportional-fair, 100 PRB), each run once with every
  TTI pinned to the eNodeB's array lane and once pinned to its scalar
  lane, since every scenario here sits below the crossover;
* a crossing scenario whose connections push the cell above
  ``SCALAR_LANE_MAX`` and whose inactivity releases bring it back, so
  the engine changes lanes mid-run in both directions;
* the experiment driver path (``collect_trace``);
* the sharded city simulator across shard counts {1, 2, 4} on both the
  serial and the process ``ParallelMap`` backends.
"""

import hashlib
from dataclasses import dataclass

import pytest

from repro.core.dataset import collect_trace
from repro.fiveg.gnb import NR_SLOT_US, GNodeB, add_nr_cell
from repro.lte.channel import ChannelProfile
from repro.lte.city import CityScenario, run_city
from repro.lte.dci import Direction
from repro.lte import engine as engine_module
from repro.lte.enb import ENodeB
from repro.lte.network import LTENetwork
from repro.lte.obfuscation import ObfuscationConfig
from repro.lte.scheduler import CrossTraffic
from repro.operators import LAB
from repro.runtime.parallel import ParallelMap
from repro.sniffer.capture import CellSniffer


@dataclass(frozen=True)
class Golden:
    """What one seeded scenario must produce, recorded once."""

    digest: str
    grants_issued: int
    bytes_granted: int
    harq_retransmissions: int
    active_rntis: int


#: LTE scenario sweep: (scheduler, cell kwargs, capture profile kwargs).
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

#: ``SCENARIOS[i]`` must reproduce ``GOLDENS[i]``.
GOLDENS = [
    Golden("e48f22ab318b3d845f1fd6940453a402"
           "3e11a81173121af53923b7683ab4199f",
           763, 2282320, 0, 4),
    Golden("cb6e0ea2c427ea84a6aed61fcdf05bae"
           "b6af677cd1ff9824bed02b67a808cf73",
           764, 2282259, 0, 4),
    Golden("9dbe76950cbecffd91c73008da6dff7b"
           "4a075c01a68e34d1ddd95b5a10dfe2b7",
           721, 2282162, 0, 4),
    Golden("e4b08a9ca1db5414b96f00855cce4f0e"
           "56f8ab073beece45c277b6adf1a97003",
           1213, 2282107, 131, 34),
    Golden("16ff1613c49a87b0944aefd5b9be7596"
           "1c9ff25cf7c8d8cf1ff5dd3336df9e46",
           983, 2420772, 0, 7),
]

#: NR scenario sweep on a gNodeB (proportional-fair, 100 PRB, 0.5 ms
#: slots): clean; HARQ with capture loss and corruption; padding, chaff
#: and RNTI refresh.  (cell kwargs, capture profile kwargs).
NR_SCENARIOS = [
    ({}, {}),
    ({"channel_profile": ChannelProfile(harq_bler=0.12),
      "cross_traffic": CrossTraffic(mean_load=0.3)},
     {"capture_loss": 0.05, "corruption_prob": 0.05}),
    ({"obfuscation": ObfuscationConfig(padding_quantum=8,
                                       chaff_probability=0.2,
                                       rnti_refresh_s=0.6)},
     {}),
]

#: ``NR_SCENARIOS[i]`` must reproduce ``NR_GOLDENS[i]``.
NR_GOLDENS = [
    Golden("54bc4b9af8c552174422458c00a04e91"
           "ea39c1e36f3870d54076c6681628263b",
           353, 2282278, 0, 4),
    Golden("016851143ac2f54f487a3abf99ff0fdd"
           "56ac6d7f795d20a230d7563aeb56e377",
           661, 2282161, 86, 22),
    Golden("bb868fa9fba643b77035dd2cd5a9ac76"
           "852c1ebc01ee7beb8054e11729d89a26",
           502, 2374009, 0, 5),
]

#: The crossing scenario: trace digest, grants, HARQ retransmissions
#: and RNTI refreshes.
CROSSING_GOLDEN = (
    "534351c9133ddd262e5f76fe186faecde03edeaff04c1aa45e526d6b11622739",
    664, 69, 47)

#: ``collect_trace("Netflix", LAB, 6 s, seed 77)``.
DRIVER_DIGEST = (
    "f43db5a2514c42a6dfaffa73f3dd1643527d054a94495a2d07b23c6cc14bc50b")

#: ``TestShardedCityGoldens.SCENARIO`` merged over all cells.
CITY_DIGEST = (
    "21f04d4fe428ff636b0b53ea1bbc21650772a08dea0690eb4dcf23f3c71af1ce")


def _simulate(scheduler_name, cell_kwargs, capture_kwargs, nr=False,
              seed=42, duration_s=1.5):
    net = LTENetwork(seed=seed)
    if nr:
        add_nr_cell(net, "golden", **cell_kwargs)
    else:
        net.add_cell("golden", scheduler_name=scheduler_name, total_prb=50,
                     **cell_kwargs)
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
    return net.cells["golden"].enb, sniffer


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


def _observed(enb, sniffer):
    return Golden(_trace_digest(sniffer), enb.grants_issued,
                  enb.bytes_granted, enb.harq_retransmissions,
                  len(sniffer.tracker.active_rntis()))


def _obfuscating(cell_kwargs):
    config = cell_kwargs.get("obfuscation")
    return config is not None and (config.padding_quantum > 0
                                   or config.chaff_probability > 0.0)


@pytest.fixture
def lane_spy(monkeypatch):
    """Count the eNodeB's TTIs per lane, and record lane changes.

    ``counts["changes"]`` lists the lanes in the order they took over.
    """
    counts = {"scalar": 0, "array": 0, "changes": []}
    for lane in ("scalar", "array"):
        original = getattr(ENodeB, f"_{lane}_tti")

        def spy(self, *args, _lane=lane, _original=original):
            counts[_lane] += 1
            if counts["changes"][-1:] != [_lane]:
                counts["changes"].append(_lane)
            return _original(self, *args)

        monkeypatch.setattr(ENodeB, f"_{lane}_tti", spy)
    return counts


#: Lane pins: a bound of 0 sends every TTI of a populated cell to the
#: array lane, an unreachable bound sends every TTI to the scalar lane.
LANE_BOUNDS = {"array": 0, "scalar": 1 << 30}


def _assert_lane(lane_spy, lane, cell_kwargs):
    ran = "array" if _obfuscating(cell_kwargs) else lane
    assert lane_spy[ran] > 0
    assert lane_spy["scalar" if ran == "array" else "array"] == 0


@pytest.mark.parametrize("lane", sorted(LANE_BOUNDS))
@pytest.mark.parametrize("scheduler_name,cell_kwargs,capture_kwargs",
                         SCENARIOS)
def test_vector_engine_trace_golden(scheduler_name, cell_kwargs,
                                    capture_kwargs, lane, lane_spy,
                                    monkeypatch):
    golden = GOLDENS[SCENARIOS.index(
        (scheduler_name, cell_kwargs, capture_kwargs))]
    monkeypatch.setattr(engine_module, "SCALAR_LANE_MAX", LANE_BOUNDS[lane])
    enb, sniffer = _simulate(scheduler_name, cell_kwargs, capture_kwargs)
    assert _observed(enb, sniffer) == golden
    _assert_lane(lane_spy, lane, cell_kwargs)
    assert sniffer.total_records > 0 or capture_kwargs


@pytest.mark.parametrize("lane", sorted(LANE_BOUNDS))
@pytest.mark.parametrize("cell_kwargs,capture_kwargs", NR_SCENARIOS)
def test_nr_cell_trace_golden(cell_kwargs, capture_kwargs, lane, lane_spy,
                              monkeypatch):
    golden = NR_GOLDENS[NR_SCENARIOS.index((cell_kwargs, capture_kwargs))]
    monkeypatch.setattr(engine_module, "SCALAR_LANE_MAX", LANE_BOUNDS[lane])
    gnb, sniffer = _simulate(None, cell_kwargs, capture_kwargs, nr=True)
    assert isinstance(gnb, GNodeB)
    assert gnb._tti_us == NR_SLOT_US
    assert _observed(gnb, sniffer) == golden
    _assert_lane(lane_spy, lane, cell_kwargs)
    assert sniffer.total_records > 0


def _crossing_simulation():
    """A PF cell that grows past the scalar-lane bound and shrinks back.

    Three UEs stay busy throughout; at 0.3 s every other UE sends one
    burst, which connects them and lifts the cell above
    ``SCALAR_LANE_MAX``; the 0.25 s inactivity timer then releases them
    again.  HARQ, capture loss/corruption and RNTI refresh all run.
    """
    n_ues = engine_module.SCALAR_LANE_MAX + 6
    net = LTENetwork(seed=5)
    net.add_cell("crossing", scheduler_name="proportional-fair",
                 total_prb=50, inactivity_timeout_s=0.25,
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
    enb = net.cells["crossing"].enb
    observed = (_trace_digest(sniffer), enb.grants_issued,
                enb.harq_retransmissions,
                enb.obfuscation_stats.rnti_refreshes)
    return enb, observed, peak[0]


def test_crossing_scenario_switches_lanes_and_matches_legacy(lane_spy):
    enb, observed, peak = _crossing_simulation()
    bound = engine_module.SCALAR_LANE_MAX
    assert peak > bound
    assert enb.connected_count <= bound
    assert lane_spy["changes"] == ["scalar", "array", "scalar"]
    assert observed == CROSSING_GOLDEN
    assert CROSSING_GOLDEN[3] > 0


def _driver_digest():
    trace = collect_trace("Netflix", operator=LAB, duration_s=6.0, seed=77)
    assert len(trace) > 0
    return hashlib.sha256(
        trace.times_s.tobytes() + trace.rntis.tobytes()
        + trace.directions.tobytes()
        + trace.tbs_bytes.tobytes()).hexdigest()


def test_collect_trace_driver_golden(monkeypatch):
    """The experiment driver path reproduces its committed digest."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    assert _driver_digest() == DRIVER_DIGEST


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

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_serial_backend_bit_identical(self, shards):
        result = run_city(self.SCENARIO,
                          ParallelMap(workers=1, backend="serial"),
                          shards=shards)
        assert result.total_records > 0
        assert result.spilled_bytes > 0
        assert _city_digest(result) == CITY_DIGEST
        assert result.shards == shards

    @pytest.mark.parametrize("shards", [2, 4])
    def test_process_backend_bit_identical(self, shards):
        result = run_city(self.SCENARIO,
                          ParallelMap(workers=2, backend="process"),
                          shards=shards)
        assert _city_digest(result) == CITY_DIGEST
