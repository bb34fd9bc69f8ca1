"""Fault plans through the collection pipeline: determinism + caching.

The acceptance criteria for the fault subsystem live here: a plan with
identical (params, seed) must yield bit-identical traces on the serial
and process ParallelMap backends and with the trace cache cold, warm or
off; the cache holds the clean capture only, so faulted and clean runs
share one entry and an edited transform is never served stale; and a
fault-free plan must be indistinguishable from no plan at all.
"""

import numpy as np
import pytest

from repro import runtime
from repro.core.dataset import collect_pair, collect_trace, collect_traces
from repro.faults import FaultPlan, FaultSpec, fault_names, transforms
from repro.operators import LAB

PLAN = FaultPlan.build(
    FaultSpec.make("burst_loss", rate=0.25, burst_s=0.5),
    FaultSpec.make("rnti_churn", interval_s=3.0),
    FaultSpec.make("corrupt_decode", rate=0.05),
    seed=7)

APPS = ["YouTube", "Netflix"]


def _columns(trace):
    return (trace.times_s, trace.rntis, trace.directions, trace.tbs_bytes)


def assert_sets_identical(a, b):
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert ta.metadata() == tb.metadata()
        for ca, cb in zip(_columns(ta), _columns(tb)):
            assert ca.dtype == cb.dtype
            assert np.array_equal(ca, cb)


class TestBackendBitIdentity:
    def test_serial_and_process_backends_match(self):
        with runtime.overrides(cache_enabled=False):
            serial = collect_traces(APPS, operator=LAB, traces_per_app=2,
                                    duration_s=8.0, seed=4, workers=1,
                                    fault_plan=PLAN)
            fanned = collect_traces(APPS, operator=LAB, traces_per_app=2,
                                    duration_s=8.0, seed=4, workers=3,
                                    fault_plan=PLAN)
        assert_sets_identical(serial, fanned)

    def test_plan_actually_degrades_the_stream(self):
        with runtime.overrides(cache_enabled=False):
            clean = collect_traces(APPS, operator=LAB, traces_per_app=2,
                                   duration_s=8.0, seed=4, workers=1)
            faulted = collect_traces(APPS, operator=LAB, traces_per_app=2,
                                     duration_s=8.0, seed=4, workers=1,
                                     fault_plan=PLAN)
        assert sum(len(t) for t in faulted) < sum(len(t) for t in clean)

    def test_pair_faulting_deterministic(self):
        with runtime.overrides(cache_enabled=False):
            first = collect_pair("WhatsApp Call", "call", operator=LAB,
                                 duration_s=8.0, seed=5, fault_plan=PLAN)
            second = collect_pair("WhatsApp Call", "call", operator=LAB,
                                  duration_s=8.0, seed=5, fault_plan=PLAN)
            clean = collect_pair("WhatsApp Call", "call", operator=LAB,
                                 duration_s=8.0, seed=5)
        assert_sets_identical(first, second)
        # The two legs get distinct per-leg item seeds.
        total_faulted = len(first[0]) + len(first[1])
        total_clean = len(clean[0]) + len(clean[1])
        assert total_faulted != total_clean


class TestCacheSemantics:
    def test_faulted_run_hits_the_clean_entry(self, tmp_path):
        with runtime.overrides(cache_enabled=True, cache_dir=tmp_path):
            faulted = collect_trace("YouTube", operator=LAB,
                                    duration_s=8.0, seed=4,
                                    fault_plan=PLAN)
            runtime.reset_stats()
            clean = collect_trace("YouTube", operator=LAB, duration_s=8.0,
                                  seed=4)
            reseeded = collect_trace(
                "YouTube", operator=LAB, duration_s=8.0, seed=4,
                fault_plan=FaultPlan(faults=PLAN.faults, seed=8))
            stats = runtime.stats()
        assert stats.simulations == 0
        assert stats.cache.hits == 2
        assert not np.array_equal(clean.times_s, faulted.times_s)
        assert not np.array_equal(faulted.times_s, reseeded.times_s)

    def test_warm_cache_rerun_simulates_nothing(self, tmp_path):
        with runtime.overrides(cache_enabled=True, cache_dir=tmp_path):
            first = collect_traces(APPS, operator=LAB, traces_per_app=2,
                                   duration_s=8.0, seed=4, workers=1,
                                   fault_plan=PLAN)
            runtime.reset_stats()
            second = collect_traces(APPS, operator=LAB, traces_per_app=2,
                                    duration_s=8.0, seed=4, workers=1,
                                    fault_plan=PLAN)
            assert runtime.stats().simulations == 0
        assert_sets_identical(first, second)

    def test_faulted_and_clean_share_one_entry(self, tmp_path):
        with runtime.overrides(cache_enabled=True, cache_dir=tmp_path):
            runtime.reset_stats()
            clean = collect_trace("YouTube", operator=LAB, duration_s=8.0,
                                  seed=4)
            faulted = collect_trace("YouTube", operator=LAB,
                                    duration_s=8.0, seed=4,
                                    fault_plan=PLAN)
            assert runtime.stats().simulations == 1
            assert len(runtime.trace_cache().entries()) == 1
        assert not np.array_equal(clean.times_s, faulted.times_s)

    def test_swapped_transform_is_not_served_stale(self, tmp_path,
                                                   monkeypatch):
        plan = FaultPlan.build(FaultSpec.make("capture_loss", rate=0.2),
                               seed=3)
        kwargs = dict(operator=LAB, duration_s=8.0, seed=4)
        with runtime.overrides(cache_enabled=True, cache_dir=tmp_path):
            lossy = collect_trace("YouTube", fault_plan=plan, **kwargs)
            # Edit the transform: capture_loss now keeps every record.
            monkeypatch.setitem(transforms._REGISTRY, "capture_loss",
                                lambda trace, rng, *, rate: trace)
            edited = collect_trace("YouTube", fault_plan=plan, **kwargs)
            clean = collect_trace("YouTube", **kwargs)
        assert len(lossy) < len(clean)
        assert_sets_identical([edited], [clean])


#: Parameters that make each registered fault alter an 8 s capture.
FAULT_PARAMS = {
    "burst_loss": dict(rate=0.25, burst_s=0.5),
    "capture_loss": dict(rate=0.2),
    "cell_outage": dict(start_s=2.0, duration_s=1.5),
    "clock_skew": dict(skew=1e-4, jitter_s=1e-3),
    "corrupt_decode": dict(rate=0.1),
    "duplicate_decode": dict(rate=0.1),
    "rnti_churn": dict(interval_s=2.0),
}


def _bytes_of(traces):
    return [(trace.metadata(),
             [(c.dtype.str, c.tobytes()) for c in _columns(trace)])
            for trace in traces]


@pytest.mark.parametrize("name", fault_names())
def test_cache_cold_warm_off_give_identical_faulted_bytes(name, tmp_path):
    plan = FaultPlan.build(FaultSpec.make(name, **FAULT_PARAMS[name]),
                           seed=5)

    def collect():
        trace = collect_trace("YouTube", operator=LAB, duration_s=8.0,
                              seed=4, fault_plan=plan)
        pair = collect_pair("WhatsApp Call", "call", operator=LAB,
                            duration_s=8.0, seed=5, fault_plan=plan)
        return _bytes_of([trace, *pair])

    with runtime.overrides(cache_enabled=False):
        off = collect()
        clean = _bytes_of([collect_trace("YouTube", operator=LAB,
                                         duration_s=8.0, seed=4)])
    with runtime.overrides(cache_enabled=True, cache_dir=tmp_path):
        cold = collect()
        entries = {path: path.read_bytes()
                   for path, _, _ in runtime.trace_cache().entries()}
        runtime.reset_stats()
        warm = collect()
        stats = runtime.stats()
    assert stats.simulations == 0 and stats.cache.hits == 2
    assert cold == off
    assert warm == off
    assert off[0] != clean[0]
    # Faulting a cache hit never writes through to the entry.
    assert len(entries) == 2
    assert {path: path.read_bytes() for path in entries} == entries


class TestNoopEquivalence:
    def test_noop_plan_equals_no_plan_bytes(self):
        noop = FaultPlan.build(seed=99)
        with runtime.overrides(cache_enabled=False):
            base = collect_trace("YouTube", operator=LAB, duration_s=8.0,
                                 seed=4)
            planned = collect_trace("YouTube", operator=LAB,
                                    duration_s=8.0, seed=4,
                                    fault_plan=noop)
        for ca, cb in zip(_columns(base), _columns(planned)):
            assert np.array_equal(ca, cb)

    def test_noop_plan_shares_the_clean_cache_entry(self, tmp_path):
        with runtime.overrides(cache_enabled=True, cache_dir=tmp_path):
            collect_trace("YouTube", operator=LAB, duration_s=8.0, seed=4)
            runtime.reset_stats()
            collect_trace("YouTube", operator=LAB, duration_s=8.0, seed=4,
                          fault_plan=FaultPlan.build(seed=99))
            assert runtime.stats().simulations == 0

    def test_runtime_configured_plan_matches_explicit_argument(self):
        with runtime.overrides(cache_enabled=False, fault_plan=PLAN):
            ambient = collect_trace("Netflix", operator=LAB,
                                    duration_s=8.0, seed=6)
        with runtime.overrides(cache_enabled=False):
            explicit = collect_trace("Netflix", operator=LAB,
                                     duration_s=8.0, seed=6,
                                     fault_plan=PLAN)
        for ca, cb in zip(_columns(ambient), _columns(explicit)):
            assert np.array_equal(ca, cb)
