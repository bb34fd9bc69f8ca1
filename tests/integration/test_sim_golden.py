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
  lane, since every scenario here sits below the crossover (a cell
  with padding or chaff runs on the scalar lane under either pin);
* a crossing scenario whose connections push the cell above
  ``SCALAR_LANE_MAX`` and whose inactivity releases bring it back, so
  the engine changes lanes mid-run in both directions, and the same
  cell with padding and chaff, which stays on the scalar lane;
* the overhead counters of padding and chaff;
* the experiment driver path (``collect_trace``);
* the sharded city simulator across shard counts {1, 2, 4} on both the
  serial and the process ``ParallelMap`` backends;
* TTI run-ahead: scenarios built to stress the span rule give the same
  bits with run-ahead on and off, and split ``run_for`` calls give the
  bits of one call;
* grant batches at observation points: with control messages mid-run,
  every control observer sees the sniffer state that immediate
  delivery gives it, and ``FLUSH_RECORDS`` bounds every batch.
"""

import hashlib
from dataclasses import dataclass

import pytest

from repro import obs
from repro.core.dataset import collect_trace
from repro.fiveg.gnb import NR_SLOT_US, GNodeB, add_nr_cell
from repro.lte.channel import ChannelProfile
from repro.lte.city import CityScenario, run_city
from repro.lte.dci import Direction
from repro.lte import engine as engine_module
from repro.lte.enb import ENodeB
from repro.lte.network import LTENetwork
from repro.lte.sim import SimClock
from repro.lte.obfuscation import ObfuscationConfig
from repro.lte.scheduler import CrossTraffic
from repro.operators import LAB
from repro.runtime.parallel import ParallelMap
from repro.sniffer.capture import CellSniffer
from repro.sniffer.trace import TraceSet


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
    ("proportional-fair",
     {"channel_profile": ChannelProfile(harq_bler=0.12),
      "cross_traffic": CrossTraffic(mean_load=0.3),
      "obfuscation": ObfuscationConfig(padding_quantum=8,
                                       chaff_probability=0.2)},
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
    Golden("8b6db521413d487293e21a8e80709cbb"
           "74e40059254cdf0ee24793adfbaa63a9",
           1494, 2430710, 177, 4),
]

#: Overhead counters of the obfuscating scenarios: useful, padding and
#: chaff bytes, and chaff grants.  Keyed by ``SCENARIOS`` index, and by
#: ``"nr"`` for the obfuscating ``NR_SCENARIOS`` entry.
OVERHEAD_GOLDENS = {
    4: (2282255, 255, 138262, 251),
    5: (2282266, 212, 148232, 338),
    "nr": (2282170, 245, 91594, 134),
}

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
    net, sniffer = _golden_network(scheduler_name, cell_kwargs,
                                   capture_kwargs, nr=nr, seed=seed)
    net.run_for(duration_s)
    return net.cells["golden"].enb, sniffer


def _golden_network(scheduler_name, cell_kwargs, capture_kwargs, nr=False,
                    seed=42):
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
    """Count the eNodeB's scalar spans and array TTIs, and record lane
    changes.

    ``counts["changes"]`` lists the lanes in the order they took over.
    """
    counts = {"scalar": 0, "array": 0, "changes": []}
    for lane, method in (("scalar", "_scalar_span"), ("array", "_array_tti")):
        original = getattr(ENodeB, method)

        def spy(self, *args, _lane=lane, _original=original):
            counts[_lane] += 1
            if counts["changes"][-1:] != [_lane]:
                counts["changes"].append(_lane)
            return _original(self, *args)

        monkeypatch.setattr(ENodeB, method, spy)
    return counts


#: Lane pins: a bound of 0 sends every TTI of a populated cell to the
#: array lane, an unreachable bound sends every TTI to the scalar lane.
LANE_BOUNDS = {"array": 0, "scalar": 1 << 30}


def _assert_lane(lane_spy, lane, cell_kwargs):
    # Padding and chaff run on the scalar lane at any cell size.
    ran = "scalar" if _obfuscating(cell_kwargs) else lane
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


def _lane_states(scenario, lane, monkeypatch):
    """Live-slot columns and counters at every split of a pinned run."""
    monkeypatch.setattr(engine_module, "SCALAR_LANE_MAX", LANE_BOUNDS[lane])
    with obs.override(True):
        net, _ = _golden_network(*scenario)
    enb = net.cells["golden"].enb
    states = []
    for _ in range(30):
        net.run_for(0.05)
        slots = enb._ordered()
        states.append(([getattr(enb, name)[slots].tolist() for name in
                        ("_arr_dl", "_arr_ul", "_arr_cqi", "_arr_last")],
                       enb.obfuscation_stats.useful_bytes,
                       enb._ttis_obs.value, enb._grants_obs.value))
    return states


@pytest.mark.parametrize("scheduler_name,cell_kwargs,capture_kwargs", [
    scenario for scenario in SCENARIOS if not _obfuscating(scenario[1])])
def test_lanes_leave_the_same_columns_and_counters(
        scheduler_name, cell_kwargs, capture_kwargs, lane_spy, monkeypatch):
    """Both lanes write the same slot columns and counters, mid-burst
    and at the end, though the scalar lane writes them once per span."""
    scenario = (scheduler_name, cell_kwargs, capture_kwargs)
    scalar = _lane_states(scenario, "scalar", monkeypatch)
    array = _lane_states(scenario, "array", monkeypatch)
    assert scalar == array
    assert lane_spy["scalar"] > 0 and lane_spy["array"] > 0
    assert any(any(columns[0]) or any(columns[1])
               for columns, *_ in scalar)
    assert scalar[-1][2] > 0 and scalar[-1][3] > 0


#: The scalar-lane bound the crossing scenario runs under: its cell is
#: sized from this, not from the shipped ``SCALAR_LANE_MAX``, so the
#: golden pins one scenario whatever the tuned bound is.
CROSSING_BOUND = 32


def _crossing_network(obfuscation=ObfuscationConfig(rnti_refresh_s=0.4)):
    """A PF cell that grows past the scalar-lane bound and shrinks back.

    Three UEs stay busy throughout; at 0.3 s every other UE sends one
    burst, which connects them and lifts the cell above
    ``CROSSING_BOUND``; the 0.25 s inactivity timer then releases them
    again.  HARQ, capture loss/corruption and ``obfuscation`` (by
    default RNTI refresh alone) all run.  Returns the network, its
    sniffer and the sampled peak UE count.  Run it with
    ``SCALAR_LANE_MAX`` set to ``CROSSING_BOUND``.
    """
    n_ues = CROSSING_BOUND + 6
    net = LTENetwork(seed=5)
    net.add_cell("crossing", scheduler_name="proportional-fair",
                 total_prb=50, inactivity_timeout_s=0.25,
                 channel_profile=ChannelProfile(harq_bler=0.1),
                 obfuscation=obfuscation)
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
    return net, sniffer, peak


def _crossing_observed(net, sniffer):
    enb = net.cells["crossing"].enb
    return (_trace_digest(sniffer), enb.grants_issued,
            enb.harq_retransmissions, enb.obfuscation_stats.rnti_refreshes)


def _crossing_simulation():
    net, sniffer, peak = _crossing_network()
    net.run_for(1.7)
    return net.cells["crossing"].enb, _crossing_observed(net, sniffer), peak[0]


def test_crossing_scenario_switches_lanes_and_matches_legacy(lane_spy,
                                                            monkeypatch):
    monkeypatch.setattr(engine_module, "SCALAR_LANE_MAX", CROSSING_BOUND)
    enb, observed, peak = _crossing_simulation()
    bound = engine_module.SCALAR_LANE_MAX
    assert peak > bound
    assert enb.connected_count <= bound
    assert lane_spy["changes"] == ["scalar", "array", "scalar"]
    assert observed == CROSSING_GOLDEN
    assert CROSSING_GOLDEN[3] > 0


def _overhead(enb):
    stats = enb.obfuscation_stats
    return (stats.useful_bytes, stats.padding_bytes, stats.chaff_bytes,
            stats.chaff_grants)


@pytest.mark.parametrize("key", sorted(OVERHEAD_GOLDENS, key=str))
def test_obfuscation_overhead_golden(key):
    """Padding and chaff account the bytes and grants they add."""
    if key == "nr":
        enb, _ = _simulate(None, *NR_SCENARIOS[2], nr=True)
    else:
        enb, _ = _simulate(*SCENARIOS[key])
    assert _overhead(enb) == OVERHEAD_GOLDENS[key]
    assert enb.bytes_granted == sum(OVERHEAD_GOLDENS[key][:3])


def test_unobserved_obfuscating_cell_counts_like_a_watched_one():
    """Padding and chaff read their grants off the span columns, which a
    cell fills even without grant observers; each observation point
    empties them."""
    scheduler_name, cell_kwargs, capture_kwargs = SCENARIOS[5]
    net, _ = _golden_network(scheduler_name, cell_kwargs, capture_kwargs)
    enb = net.cells["golden"].enb
    enb.grant_batch_observers.clear()
    for _ in range(15):
        net.run_for(0.1)
        assert not any(enb._span_columns)
    golden = GOLDENS[5]
    assert (enb.grants_issued, enb.bytes_granted, enb.harq_retransmissions,
            _overhead(enb)) == (golden.grants_issued, golden.bytes_granted,
                                golden.harq_retransmissions,
                                OVERHEAD_GOLDENS[5])


#: The crossing cell with padding and chaff on top of HARQ and RNTI
#: refresh: trace digest, grants, HARQ retransmissions, RNTI refreshes,
#: bytes granted and the overhead counters.
CROWDED_OBFUSCATING_GOLDEN = (
    "3d7c3ba175bc79f870bcadff8566fbf1d6b56dad484a8a6cf6a55aade3be27ac",
    819, 90, 55, 1519285, (1425101, 1422, 92762, 165))


def test_crowded_obfuscating_cell_runs_on_the_scalar_lane(lane_spy,
                                                          monkeypatch):
    """Padding and chaff hold their draw order in a cell of more than
    ``SCALAR_LANE_MAX`` UEs, where HARQ draws follow the chaff."""
    monkeypatch.setattr(engine_module, "SCALAR_LANE_MAX", CROSSING_BOUND)
    net, sniffer, peak = _crossing_network(ObfuscationConfig(
        padding_quantum=8, chaff_probability=0.2, rnti_refresh_s=0.4))
    net.run_for(1.7)
    enb = net.cells["crossing"].enb
    assert peak[0] > CROSSING_BOUND
    assert (*_crossing_observed(net, sniffer), enb.bytes_granted,
            _overhead(enb)) == CROWDED_OBFUSCATING_GOLDEN
    assert lane_spy["array"] == 0 and lane_spy["scalar"] > 0


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

    def test_traces_return_by_value(self, monkeypatch):
        # No shard task spills an archive: an NPZ write raises, in the
        # driver and in the forked workers that inherit the patch.
        def no_archive(self, path, compressed=True):
            raise AssertionError(f"run_city wrote {path}")

        monkeypatch.setattr(TraceSet, "to_npz", no_archive)
        serial = run_city(self.SCENARIO,
                          ParallelMap(workers=1, backend="serial"), shards=2)
        def fallbacks():
            return obs.snapshot()["counters"].get(
                "runtime.parallel.serial_fallbacks", 0)

        with obs.override(True):
            before = fallbacks()
            process = run_city(self.SCENARIO,
                               ParallelMap(workers=2, backend="process"),
                               shards=2)
            assert fallbacks() == before, "the process run fell back"
        assert _city_digest(serial) == _city_digest(process) == CITY_DIGEST
        # Each record is returned once, in the epoch that produced it:
        # 8 + 4 + 1 + 8 column bytes.
        assert serial.spilled_bytes == process.spilled_bytes \
            == 21 * serial.total_records


# -- TTI run-ahead -------------------------------------------------------------


def _per_tti(monkeypatch):
    """Turn run-ahead off: every TTI goes through the clock's heap."""
    monkeypatch.setattr(SimClock, "run_ahead",
                        lambda self, time_us, inline: False)


def _sniffer_state(sniffer):
    """Everything a sniffer holds: records, counters, rng, tracker."""
    tracker = sniffer.tracker
    return (_trace_digest(sniffer), sniffer.decoder.capture_stats,
            sniffer.decoder._capture._rng.getstate(),
            list(tracker._active), tracker.candidate_count,
            [(a.rnti, a.confirmed_s, a.last_seen_s, a.records)
             for a in tracker.history()])


def _probe(net, sniffers, log, at_us):
    """A foreign event at ``at_us`` that logs what it can observe."""
    def probe():
        log.append((net.clock.now_us,
                    [(cell.enb.grants_issued, cell.enb.harq_retransmissions)
                     for cell in net.cells.values()],
                    [sniffer.total_records for sniffer in sniffers]))
    net.clock.schedule_at(at_us, probe)


def _busy_cell(net, cell_id, harq_bler, capture, seed):
    net.add_cell(cell_id, scheduler_name="proportional-fair", total_prb=25,
                 channel_profile=ChannelProfile(harq_bler=harq_bler))
    return CellSniffer(cell_id, seed=seed,
                       capture_profile=ChannelProfile(**capture)
                       ).attach(net)


def _boundary_events(net, log):
    """Foreign events land exactly on the busy loop's TTI boundaries."""
    sniffer = _busy_cell(net, "a", 0.2,
                         {"capture_loss": 0.05, "corruption_prob": 0.05}, 3)
    ues = [net.add_ue(name=f"ue{i}") for i in range(2)]
    net.deliver_traffic(ues[0], Direction.DOWNLINK, 1)
    net.clock.schedule_at(100_000, lambda: net.deliver_traffic(
        ues[0], Direction.DOWNLINK, 400_000))
    for step in range(30):
        at_us = 110_000 + step * 7_000
        _probe(net, [sniffer], log, at_us)
        net.clock.schedule_at(at_us, lambda u=ues[step % 2]:
                              net.deliver_traffic(u, Direction.UPLINK, 900))
    return [sniffer]


def _harq_ties(net, log):
    """Heavy HARQ: retransmits tie with TTIs of a long busy burst."""
    sniffer = _busy_cell(net, "a", 0.45, {}, 4)
    ues = [net.add_ue(name=f"ue{i}") for i in range(3)]
    for index, ue in enumerate(ues):
        net.deliver_traffic(ue, Direction.UPLINK, 1)
        net.clock.schedule_at(150_000 + index * 1_000,
                              lambda u=ue: net.deliver_traffic(
                                  u, Direction.DOWNLINK, 250_000))
    _probe(net, [sniffer], log, 400_000)
    return [sniffer]


def _off_grid_restarts(net, log):
    """Short bursts restart the loop off the 1 ms grid between retransmits."""
    sniffer = _busy_cell(net, "a", 0.4, {"corruption_prob": 0.1}, 5)
    ue = net.add_ue(name="ue0")
    net.deliver_traffic(ue, Direction.UPLINK, 1)
    for burst in range(40):
        at_us = 120_000 + burst * 6_300 + (burst % 7) * 111
        net.clock.schedule_at(at_us, lambda: net.deliver_traffic(
            ue, Direction.DOWNLINK, 3_000))
        _probe(net, [sniffer], log, at_us + 2_000)
    return [sniffer]


def _two_cells(net, log):
    """Two busy cells share the clock; their TTIs interleave."""
    sniffers = [_busy_cell(net, "a", 0.2, {"capture_loss": 0.1}, 6),
                _busy_cell(net, "b", 0.0, {}, 7)]
    ues = [net.add_ue(name="ue-a", cell_id="a"),
           net.add_ue(name="ue-b", cell_id="b")]
    for index, ue in enumerate(ues):
        net.deliver_traffic(ue, Direction.UPLINK, 1)
        net.clock.schedule_at(100_000 + 300 * index,
                              lambda u=ue: net.deliver_traffic(
                                  u, Direction.DOWNLINK, 600_000))
        net.clock.schedule_at(400_000 + 700 * index,
                              lambda u=ue: net.deliver_traffic(
                                  u, Direction.UPLINK, 80_000))
    for step in range(10):
        _probe(net, sniffers, log, 150_000 + step * 50_000)
    return sniffers


RUN_AHEAD_SCENARIOS = {"boundary-events": _boundary_events,
                       "harq-ties": _harq_ties,
                       "off-grid-restarts": _off_grid_restarts,
                       "two-cells": _two_cells}


def _count_spans(monkeypatch):
    """Count ``_on_tti`` calls: one per span of TTIs."""
    calls = [0]
    on_tti = ENodeB._on_tti

    def spy(self):
        calls[0] += 1
        on_tti(self)

    monkeypatch.setattr(ENodeB, "_on_tti", spy)
    return calls


def _run_scenario(build, span_calls):
    span_calls[0] = 0
    net = LTENetwork(seed=9)
    log = []
    sniffers = build(net, log)
    net.run_for(1.2)
    cells = [(cell.enb.grants_issued, cell.enb.bytes_granted,
              cell.enb.harq_retransmissions) for cell in net.cells.values()]
    state = (cells, log, [_sniffer_state(sniffer) for sniffer in sniffers])
    return state, span_calls[0]


@pytest.mark.parametrize("name", sorted(RUN_AHEAD_SCENARIOS))
def test_run_ahead_matches_per_tti_scheduling(name, monkeypatch):
    build = RUN_AHEAD_SCENARIOS[name]
    span_calls = _count_spans(monkeypatch)
    spans, span_count = _run_scenario(build, span_calls)
    _per_tti(monkeypatch)
    per_tti, tti_count = _run_scenario(build, span_calls)
    assert spans == per_tti
    cells, log, sniffers = per_tti
    assert log
    assert cells[0][2] > 0
    assert all(state[1]["decoded"] > 0 for state in sniffers)
    if name != "two-cells":
        assert span_count < tti_count


def test_split_run_for_matches_one_call_and_stops_at_bound():
    # A TTI runs only when the one before left backlog, so every TTI
    # airs at least one grant: the batches' times cover every TTI.
    ticks = []
    scenario = SCENARIOS[3]
    whole = _simulate(*scenario, duration_s=1.5)
    net, sniffer = _golden_network(*scenario)
    net.cells["golden"].enb.grant_batch_observers.append(
        lambda batch: ticks.extend(batch.time_us.tolist()))
    for duration_s in (0.3043, 0.0005, 0.4002, 0.795):
        net.run_for(duration_s)
        assert max(ticks) <= net.clock.now_us
    assert net.clock.now_us == 1_500_000
    assert (_observed(net.cells["golden"].enb, sniffer)
            == _observed(*whole) == GOLDENS[3])


# -- observation points ----------------------------------------------------------


def _snapshot_at_control(net, sniffers):
    """Log each sniffer's full state at every control message of its cell.

    Registered after the sniffers, so each snapshot holds what a control
    observer may read: every grant the cell aired before the message.
    """
    snapshots = []
    for sniffer in sniffers:
        net.observe(sniffer.cell_id,
                    control=lambda message, s=sniffer: snapshots.append(
                        (message, _sniffer_state(s))))
    return snapshots


def _collect_batches(net):
    batches = []
    for cell in net.cells.values():
        cell.enb.grant_batch_observers.append(batches.append)
    return batches


def _crossing_points():
    net, sniffer, _ = _crossing_network()
    return net, [sniffer], 1.7, lambda: _crossing_observed(net, sniffer)


def _refresh_golden_points():
    scenario = SCENARIOS[4]
    assert scenario[1]["obfuscation"].rnti_refresh_s is not None
    net, sniffer = _golden_network(*scenario)
    return net, [sniffer], 1.5, lambda: _observed(
        net.cells["golden"].enb, sniffer)


def _handover_points():
    """Two busy cells; a victim hands over mid-burst, others go idle."""
    net = LTENetwork(seed=21)
    sniffers = []
    for index, cell_id in enumerate(("src", "dst")):
        net.add_cell(cell_id, scheduler_name="proportional-fair",
                     total_prb=25, inactivity_timeout_s=0.3,
                     channel_profile=ChannelProfile(harq_bler=0.1))
        sniffers.append(CellSniffer(cell_id, seed=11 + index,
                                    capture_profile=ChannelProfile(
                                        capture_loss=0.05)).attach(net))
    victim = net.add_ue(name="victim", cell_id="src")
    others = [net.add_ue(name=f"ue{index}", cell_id=cell_id)
              for index, cell_id in enumerate(("src", "dst", "dst"))]
    for step in range(25):
        at_us = 20_000 + step * 45_000
        net.clock.schedule_at(at_us, lambda: net.deliver_traffic(
            victim, Direction.DOWNLINK, 60_000))
        ue = others[step % 3]
        net.clock.schedule_at(at_us + 7_000 * (step % 4),
                              lambda u=ue: net.deliver_traffic(
                                  u, Direction.UPLINK, 9_000))
    net.clock.schedule_at(520_500, lambda: net.move_ue(victim, "dst"))

    def observed():
        return ([(cell.enb.grants_issued, cell.enb.harq_retransmissions)
                 for cell in net.cells.values()],
                [_sniffer_state(sniffer) for sniffer in sniffers],
                victim.serving_cell)

    return net, sniffers, 1.6, observed


OBSERVATION_SCENARIOS = {"crossing": (_crossing_points, CROSSING_GOLDEN),
                         "rnti-refresh": (_refresh_golden_points,
                                          GOLDENS[4]),
                         "handover": (_handover_points, None)}


def _observe_run(build):
    net, sniffers, duration_s, observed = build()
    snapshots = _snapshot_at_control(net, sniffers)
    batches = _collect_batches(net)
    net.run_for(duration_s)
    return snapshots, observed(), len(batches)


@pytest.mark.parametrize("name", sorted(OBSERVATION_SCENARIOS))
def test_observation_points_match_immediate_delivery(name, monkeypatch):
    """Coalesced grant batches give every control observer what per-emit
    delivery gives it, and the same end state."""
    build, golden = OBSERVATION_SCENARIOS[name]
    monkeypatch.setattr(engine_module, "SCALAR_LANE_MAX", CROSSING_BOUND)
    shipped = _observe_run(build)
    monkeypatch.setattr(engine_module, "FLUSH_RECORDS", 1)
    immediate = _observe_run(build)
    snapshots, end_state, batches = shipped
    assert (snapshots, end_state) == immediate[:2]
    if golden is not None:
        assert end_state == golden
    # Control messages fell in the middle of the run, between grants.
    decoded = [state[1]["decoded"] for _, state in snapshots]
    assert len(snapshots) > 4 and 0 < decoded[len(decoded) // 2]
    assert batches < immediate[2]


def test_flush_records_bounds_every_batch():
    """A saturated cell's one long run airs batches of at most
    ``FLUSH_RECORDS`` grants plus one TTI's."""
    _assert_flush_records_bound_batches()


def test_flush_records_bounds_every_array_batch(monkeypatch):
    """The same bound with the saturated cell pinned to the array lane."""
    monkeypatch.setattr(engine_module, "SCALAR_LANE_MAX", LANE_BOUNDS["array"])
    _assert_flush_records_bound_batches()


def _assert_flush_records_bound_batches():
    total_prb = 25
    net = LTENetwork(seed=3)
    net.add_cell("sat", total_prb=total_prb)
    sniffer = CellSniffer("sat", seed=1).attach(net)
    enb = net.cells["sat"].enb
    lengths = []
    enb.grant_batch_observers.append(lambda batch: lengths.append(len(batch)))
    ues = [net.add_ue(name=f"ue{index}") for index in range(40)]
    for ue in ues:
        enb.connect(ue)

    def feed():
        for ue in ues:
            enb.enqueue(ue, Direction.DOWNLINK, 8)
            enb.enqueue(ue, Direction.UPLINK, 8)
        net.clock.schedule(1_000, feed)

    net.clock.schedule(1_000, feed)
    net.run_for(0.5)
    assert sum(lengths) == enb.grants_issued > 4 * engine_module.FLUSH_RECORDS
    assert engine_module.FLUSH_RECORDS < max(lengths)
    assert max(lengths) <= engine_module.FLUSH_RECORDS + total_prb
    assert sniffer.decoder.capture_stats["decoded"] == enb.grants_issued
