"""Chunk-partition properties for the streaming data plane.

The streaming guarantee is universally quantified over chunkings: for
*any* partition of a trace into chunks, the streaming windowizer's
features, the online classifier's verdicts, and the identity layer's
bindings must equal the batch path's.  Hypothesis draws arbitrary
partitions (including empty chunks and 1-record chunks) over clean,
generator-built, and fault-injected traces.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.core.features import (N_FEATURES, WindowConfig,
                                 extract_features)
from repro.faults import apply_plan
from repro.faults.generators import bursty_trace, synthetic_trace
from repro.lte.rrc import RRCConnectionRelease
from repro.sniffer.identity import IdentityMapper
from repro.sniffer.owl import OWLTracker
from repro.stream import StreamingWindowizer
from tests.core.test_columnar_golden import (EDGE_RNTIS, RNTIS,
                                             random_trace)
from tests.properties.strategies import ITEM_SEEDS, PLANS, SETTINGS

_TRACE_SEEDS = st.integers(0, 30)

#: An arbitrary partition: chunk sizes drawn 0..40 (0 = empty ingest),
#: with the final chunk absorbing the remainder.
_PARTITIONS = st.lists(st.integers(0, 40), min_size=0, max_size=25)

_CONFIGS = st.sampled_from([
    WindowConfig(),
    WindowConfig(stride_ms=25.0),
    WindowConfig(min_frames=3),
    WindowConfig(gap_threshold_s=0.4),
    WindowConfig(stride_ms=40.0, min_frames=2, gap_threshold_s=0.6),
    WindowConfig(window_ms=250.0, stride_ms=40.0),
])


def _chunks(trace, sizes):
    """Cut the trace's columns by the drawn sizes; remainder at the end."""
    n = len(trace)
    bounds = [0]
    for size in sizes:
        bounds.append(min(n, bounds[-1] + size))
    if bounds[-1] < n:
        bounds.append(n)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield (trace.times_s[lo:hi], trace.rntis[lo:hi],
               trace.directions[lo:hi], trace.tbs_bytes[lo:hi])


def _stream(trace, config, sizes):
    windowizer = StreamingWindowizer(config)
    rows = []
    for chunk in _chunks(trace, sizes):
        batch = windowizer.ingest(*chunk)
        if len(batch):
            rows.append(batch.rows)
    final = windowizer.finish()
    if len(final):
        rows.append(final.rows)
    if not rows:
        return np.empty((0, N_FEATURES), dtype=np.float64)
    return np.concatenate(rows, axis=0)


@SETTINGS
@given(trace_seed=_TRACE_SEEDS, sizes=_PARTITIONS, config=_CONFIGS,
       rntis=st.sampled_from([RNTIS, EDGE_RNTIS]))
def test_any_partition_matches_batch_features(trace_seed, sizes, config,
                                              rntis):
    trace = random_trace(trace_seed, duplicates=(trace_seed % 2 == 0),
                         rntis=rntis)
    expected = extract_features(trace, config)
    actual = _stream(trace, config, sizes)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


@SETTINGS
@given(plan=PLANS, trace_seed=st.integers(0, 10), item_seed=ITEM_SEEDS,
       sizes=_PARTITIONS)
def test_faulted_traces_stream_identically(plan, trace_seed, item_seed,
                                           sizes):
    faulted = apply_plan(synthetic_trace(trace_seed, n_records=250),
                         plan, item_seed=item_seed)
    config = WindowConfig(gap_threshold_s=0.8)
    expected = extract_features(faulted, config)
    actual = _stream(faulted, config, sizes)
    assert np.array_equal(actual, expected)


@SETTINGS
@given(trace_seed=st.integers(0, 10), sizes=_PARTITIONS)
def test_bursty_traces_stream_identically(trace_seed, sizes):
    trace = bursty_trace(trace_seed, n_bursts=4)
    config = WindowConfig(stride_ms=50.0)
    expected = extract_features(trace, config)
    actual = _stream(trace, config, sizes)
    assert np.array_equal(actual, expected)


@SETTINGS
@given(trace_seed=st.integers(0, 10), sizes=_PARTITIONS)
def test_tracker_bindings_partition_invariant(trace_seed, sizes):
    """OWL liveness is chunking-invariant when fed per closed chunk."""
    trace = synthetic_trace(trace_seed, n_records=200)
    batch = OWLTracker()
    if len(trace):
        batch.on_dci_batch(float(trace.times_s[-1]), trace.rntis)
    chunked = OWLTracker()
    for times, rntis, _, _ in _chunks(trace, sizes):
        if len(times):
            chunked.on_dci_batch(float(times[-1]), rntis)
    assert chunked.active_rntis() == batch.active_rntis()


class TestOutOfOrderDeterminism:
    """Satellite: out-of-order records within a chunk are handled
    deterministically — clamped liveness in the trackers, reordering in
    the windowizer — and never corrupt counters or bindings."""

    @SETTINGS
    @given(seed=st.integers(0, 50))
    def test_owl_last_seen_never_regresses(self, seed):
        rng = np.random.default_rng(seed)
        tracker = OWLTracker(confirm_threshold=1)
        times = np.sort(rng.uniform(0.0, 5.0, 30))
        order = rng.permutation(len(times))    # out-of-order feed
        for position in order:
            tracker.on_dci(float(times[position]), 0x100)
        activity = tracker.activity(0x100)
        assert activity is not None
        # Clamped: the liveness clock holds the max time seen, not the
        # last-fed (possibly stale) timestamp.
        assert activity.last_seen_s == float(times[-1])
        assert activity.records + 1 >= len(times)

    @SETTINGS
    @given(seed=st.integers(0, 50))
    def test_identity_bindings_never_run_backwards(self, seed):
        rng = np.random.default_rng(seed)
        mapper = IdentityMapper(cell="c0")
        open_s = float(rng.uniform(1.0, 5.0))
        mapper.register_handover_binding(0x200, 0xABCD, open_s)
        # A release delivered out of order (before the open's time).
        release_s = float(rng.uniform(0.0, open_s))
        mapper.on_control(RRCConnectionRelease(
            time_us=int(release_s * 1_000_000), crnti=0x200))
        closed = [binding for binding in mapper.history
                  if binding.rnti == 0x200]
        assert closed, "release must close the binding"
        assert closed[-1].end_s >= closed[-1].start_s
        # covers() stays well-defined for the clamped interval.
        assert not closed[-1].covers(closed[-1].end_s + 0.1)
