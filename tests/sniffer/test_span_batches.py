"""Span batches: any split of a span decodes and tracks like per-record.

The eNodeB airs each busy burst as one :class:`GrantBatch` with
per-record times and directions.  How the grants are cut into batches
must not matter:

* the decoder leaves the same records, counters and capture-rng state
  for every partition of a span, on the clean lane and on the lossy
  channels of ``test_decoder_lanes.py``;
* ``OWLTracker.on_dci_batch`` with per-record times leaves exactly the
  state per-record ``on_dci`` leaves, including spans that cross an
  expiry and a candidate sweep, and its scalar-time form (the stream
  service's call) does too.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.lte.channel import ChannelProfile
from repro.lte.dci import Direction
from repro.lte.engine import GrantBatch
from repro.lte.tbs import MAX_MCS, mcs_to_itbs, transport_block_bytes
from repro.sniffer.capture import CellSniffer
from repro.sniffer.owl import OWLTracker

from .test_decoder_lanes import CHANNELS

#: The clean lane plus every lossy channel of the lane differential.
LANES = [(0.0, 0.0)] + CHANNELS

SETTINGS = settings(max_examples=40, deadline=None)


def _span(seed, ttis=120):
    """A busy burst: 1-3 grants per TTI, a few RNTIs, some non-C-RNTIs."""
    rng = random.Random(seed)
    pool = [rng.randint(0x003D, 0xFFF3) for _ in range(4)] + [0x0001]
    columns = [[] for _ in range(6)]
    time_us = 1_000_000
    for _ in range(ttis):
        time_us += rng.choice((500, 1_000, 1_000, 1_000, 8_000))
        for _ in range(rng.choice((1, 1, 2, 3))):
            mcs = rng.randint(0, MAX_MCS)
            n_prb = rng.randint(1, 50)
            for column, value in zip(columns, (
                    time_us, int(rng.choice(list(Direction))),
                    rng.choice(pool), mcs, n_prb,
                    transport_block_bytes(mcs_to_itbs(mcs), n_prb))):
                column.append(value)
    return GrantBatch(*np.array(columns, dtype=np.int64))


def _slices(batch, cuts):
    bounds = [0, *sorted(set(cuts)), len(batch)]
    return [GrantBatch(*(column[lo:hi] for column in (
        batch.time_us, batch.direction, batch.rntis, batch.mcs,
        batch.n_prb, batch.tbs_bytes)))
        for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _sniff(loss, corruption, batches):
    with obs.override(True):
        sniffer = CellSniffer("cell", seed=99, confirm_threshold=2,
                              capture_profile=ChannelProfile(
                                  capture_loss=loss,
                                  corruption_prob=corruption))
    raw = []
    sniffer.decoder.add_batch_sink(
        lambda *columns: raw.extend(zip(*(c.tolist() for c in columns))))
    for batch in batches:
        sniffer.decoder.on_pdcch_batch(batch)
    traces = {rnti: sniffer.trace_for_rnti(rnti)
              for rnti in sniffer.observed_rntis()}
    return (raw,
            {rnti: (trace.times_s.tolist(), trace.directions.tolist(),
                    trace.tbs_bytes.tolist())
             for rnti, trace in traces.items()},
            sniffer.decoder.capture_stats,
            sniffer.decoder._capture._rng.getstate(),
            _tracker_state(sniffer.tracker))


@pytest.mark.parametrize("loss,corruption", LANES)
@SETTINGS
@given(seed=st.integers(0, 10_000),
       cuts=st.lists(st.integers(1, 150), max_size=12))
def test_any_partition_of_a_span_decodes_alike(loss, corruption, seed,
                                               cuts):
    span = _span(seed)
    cuts = [cut for cut in cuts if cut < len(span)]
    whole = _sniff(loss, corruption, [span])
    assert _sniff(loss, corruption, _slices(span, cuts)) == whole
    assert _sniff(loss, corruption,
                  _slices(span, range(1, len(span)))) == whole
    assert whole[0] or loss > 0.9


def _tracker_state(tracker):
    return ([(rnti, a.confirmed_s, a.last_seen_s, a.records, a.expired)
             for rnti, a in tracker._active.items()],
            {rnti: (c.first_seen_s, c.last_seen_s, c.hits)
             for rnti, c in tracker._candidates.items()},
            [(a.rnti, a.confirmed_s, a.last_seen_s, a.records)
             for a in tracker.history()],
            tracker._last_sweep_s, sorted(tracker._ever_confirmed),
            tracker._confirmed_obs.value, tracker._retired_obs.value,
            tracker._pruned_obs.value, tracker.reconfirmations)


def _tracker(threshold):
    with obs.override(True):
        return OWLTracker(confirm_threshold=threshold)


def _records(seed, count):
    """Sorted times with gaps that cross sweeps, windows and expiries."""
    rng = random.Random(seed)
    pool = [rng.randint(0x003D, 0xFFF3) for _ in range(5)] + [0x0002]
    times, rntis, now = [], [], 0.0
    for _ in range(count):
        now += rng.choice((0.0, 0.0005, 0.001, 0.001, 0.3, 1.0, 2.5, 13.0))
        times.append(now)
        rntis.append(rng.choice(pool))
    return np.array(times), np.array(rntis, dtype=np.int64)


@given(seed=st.integers(0, 10_000), threshold=st.integers(1, 3),
       prefix=st.integers(0, 40),
       cuts=st.lists(st.integers(1, 200), max_size=6))
@SETTINGS
def test_multi_timestamp_batches_match_per_record(seed, threshold, prefix,
                                                  cuts):
    times, rntis = _records(seed, 200)
    per_record, batched = _tracker(threshold), _tracker(threshold)
    for time_s, rnti in zip(times.tolist(), rntis.tolist()):
        per_record.on_dci(time_s, rnti)
    for time_s, rnti in zip(times[:prefix].tolist(),
                            rntis[:prefix].tolist()):
        batched.on_dci(time_s, rnti)
    bounds = [prefix, *sorted({cut for cut in cuts if cut > prefix}), 200]
    for lo, hi in zip(bounds, bounds[1:]):
        batched.on_dci_batch(times[lo:hi], rntis[lo:hi])
    assert _tracker_state(batched) == _tracker_state(per_record)


def test_span_crossing_an_expiry_and_sweeps_matches_per_record():
    """An idle RNTI expires, and sweeps fire, inside one long span."""
    idle, busy, other = 0x1001, 0x2002, 0x3003
    span_times = 11.5 + 0.001 * np.arange(2_000)
    span_rntis = np.where(np.arange(2_000) % 5 == 0, other, busy)
    states = []
    for batched in (False, True):
        tracker = _tracker(2)
        tracker.on_dci(0.0, idle)
        tracker.on_dci(0.1, idle)
        tracker.on_dci(0.2, other)
        if batched:
            tracker.on_dci_batch(span_times, span_rntis)
        else:
            for time_s, rnti in zip(span_times.tolist(),
                                    span_rntis.tolist()):
                tracker.on_dci(time_s, rnti)
        states.append(_tracker_state(tracker))
    assert states[0] == states[1]
    active, _, history = states[0][:3]
    assert [entry[0] for entry in history] == [idle]
    assert {entry[0] for entry in active} == {busy, other}
    assert states[0][7] > 0


@given(seed=st.integers(0, 10_000), threshold=st.integers(1, 3))
@SETTINGS
def test_scalar_time_batches_match_per_record(seed, threshold):
    """The stream service's call: one time for a whole chunk."""
    times, rntis = _records(seed, 300)
    per_record, batched = _tracker(threshold), _tracker(threshold)
    for lo in range(0, 300, 37):
        chunk = rntis[lo:lo + 37]
        now = float(times[lo:lo + 37][-1])
        for rnti in chunk.tolist():
            per_record.on_dci(now, rnti)
        batched.on_dci_batch(now, chunk)
    assert _tracker_state(batched) == _tracker_state(per_record)


def test_decreasing_times_are_rejected():
    with pytest.raises(ValueError):
        OWLTracker().on_dci_batch(np.array([1.0, 0.5]),
                                  np.array([0x1001, 0x1001]))
