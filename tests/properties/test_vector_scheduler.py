"""Property: vectorized grants equal the per-UE reference scheduler.

Hypothesis drives randomized cell loads through the legacy object
schedulers and their batched twins simultaneously and asserts the grant
streams are identical — positions, PRB counts and TBS bytes.  The load
generator deliberately covers the paper-relevant corner cases:

* **RNTI collisions** — the same RNTI appearing twice in one batch
  (refresh races, reassignment faults), where PF's "last write wins"
  served-bytes semantics must match the dict implementation;
* **retransmission-shaped loads** — multiple consecutive rounds with the
  *same* demand set, the pattern HARQ retransmissions produce, where
  any drift in scheduler state (RR rotation pointer, PF averages)
  compounds round over round;
* degenerate budgets (1 PRB) and saturating backlogs (many MB against a
  handful of PRBs).

The engine's scalar lane drives each vector scheduler through
``open_span`` over the same state ``allocate_batch`` keeps, so a third
property cuts one random TTI sequence into spans, runs it through both
entry points and through a scheduler that switches between them span by
span, and asserts identical grants and bit-identical scheduler state
after every span.

``derandomize=True`` pins the example stream to the test id so CI
failures replay locally without sharing a database.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.lte.dci import Direction
from repro.lte.tbs import MAX_PRB
from repro.lte.vecsched import make_vector_scheduler
from tests.lte.oracles import Demand, MACScheduler, make_scheduler

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)

_BACKLOGS = st.one_of(st.integers(1, 300),            # sub-PRB dribble
                      st.integers(301, 50_000),       # typical bursts
                      st.integers(50_001, 8_000_000))  # saturating bulk

_DEMAND = st.tuples(st.integers(0x003D, 0xFFF3), _BACKLOGS,
                    st.integers(0, 28))

#: A cell load: up to 12 demands, plus indices to duplicate (collisions).
_LOADS = st.tuples(
    st.lists(_DEMAND, min_size=1, max_size=12),
    st.lists(st.integers(0, 11), max_size=4),
)

_SCHEDULER_NAMES = st.sampled_from(["round-robin", "proportional-fair",
                                    "max-cqi"])


def _build_demands(load):
    entries, duplicates = load
    # Duplicate some entries under a shared RNTI: a collision batch.
    for index in duplicates:
        source = entries[index % len(entries)]
        entries = entries + [(source[0], max(1, source[1] // 2),
                              source[2])]
    return [Demand(rnti=rnti, direction=Direction.DOWNLINK,
                   backlog_bytes=backlog, mcs=mcs)
            for rnti, backlog, mcs in entries]


def _batch(demands):
    return (np.array([d.rnti for d in demands], dtype=np.int64),
            np.array([d.backlog_bytes for d in demands], dtype=np.int64),
            np.array([d.mcs for d in demands], dtype=np.int64))


@SETTINGS
@given(name=_SCHEDULER_NAMES, load=_LOADS,
       total_prb=st.integers(1, MAX_PRB),
       rounds=st.integers(1, 4))
def test_vector_grants_equal_reference(name, load, total_prb, rounds):
    legacy = make_scheduler(name)
    vector = make_vector_scheduler(name)
    demands = _build_demands(load)
    rntis, pending, mcs = _batch(demands)
    # Re-presenting the same demand set for several rounds exercises the
    # retransmission pattern: stateful schedulers must stay in lockstep.
    for _ in range(rounds):
        allocations = legacy.allocate(demands, total_prb)
        positions, n_prb, tbs = vector.allocate_batch(
            rntis, pending, mcs, total_prb)
        assert len(allocations) == len(positions)
        granted = sum(int(prb) for prb in n_prb)
        assert granted <= total_prb
        for alloc, pos, prb, size in zip(allocations, positions.tolist(),
                                         n_prb.tolist(), tbs.tolist()):
            assert alloc.rnti == demands[pos].rnti
            assert alloc.mcs == demands[pos].mcs
            assert alloc.n_prb == prb
            assert alloc.tbs_bytes == size


@SETTINGS
@given(load=_LOADS, total_prb=st.integers(1, MAX_PRB),
       forget_round=st.integers(0, 2))
def test_pf_averages_identical_across_rnti_release(load, total_prb,
                                                   forget_round):
    legacy = make_scheduler("proportional-fair")
    vector = make_vector_scheduler("proportional-fair")
    demands = _build_demands(load)
    rntis, pending, mcs = _batch(demands)
    for round_index in range(3):
        legacy.allocate(demands, total_prb)
        vector.allocate_batch(rntis, pending, mcs, total_prb)
        if round_index == forget_round:
            victim = demands[0].rnti
            legacy.forget(victim)
            vector.forget(victim)
    for demand in demands:
        expected = legacy._avg_rate.get(demand.rnti, 1.0)
        assert float(vector._avg[demand.rnti]) == expected


#: One state sequence cut into spans: per span its TTIs (a load and a
#: budget each), which lane the lane-switching scheduler takes, and
#: optionally an RNTI to release after it.
_SPANS = st.lists(
    st.tuples(st.lists(st.tuples(_LOADS, st.integers(1, MAX_PRB)),
                       min_size=1, max_size=4),
              st.booleans(), st.one_of(st.none(), st.integers(0, 15))),
    min_size=1, max_size=5)


def _run_span(scheduler, ttis):
    """Drive ``open_span`` like the engine's scalar lane, one span of TTIs.

    The span's UEs are every demand of every TTI in it, so each TTI's
    demand is a run of UE indices; grants come from the oracle's
    ``grant_for_bytes`` loop between ``order`` and ``settle``.
    """
    demands = [d for load, _ in ttis for d in _build_demands(load)]
    rntis = [d.rnti for d in demands]
    mcs = [d.mcs for d in demands]
    span = scheduler.open_span(rntis)
    grants, offset = [], 0
    for load, total_prb in ttis:
        count = len(_build_demands(load))
        demand = list(range(offset, offset + count))
        positions, n_prb, tbs = [], [], []
        served = {}
        remaining = total_prb
        for index in span.order(demand, mcs):
            if remaining <= 0:
                break
            allocation = MACScheduler._grant(demands[index], remaining)
            remaining -= allocation.n_prb
            positions.append(index - offset)
            n_prb.append(allocation.n_prb)
            tbs.append(allocation.tbs_bytes)
            served[allocation.rnti] = allocation.tbs_bytes
        span.settle(served)
        grants.append([positions, n_prb, tbs])
        offset += count
    span.close()
    return grants


def _run_batch(scheduler, ttis):
    grants = []
    for load, total_prb in ttis:
        rntis, pending, mcs = _batch(_build_demands(load))
        grants.append([part.tolist() for part in scheduler.allocate_batch(
            rntis, pending, mcs, total_prb)])
    return grants


def _assert_same_state(name, scheduler, reference):
    if name == "proportional-fair":
        # A bool first: a failing assert on two 512 KiB byte strings
        # would have pytest diff them.
        same_bits = scheduler._avg.tobytes() == reference._avg.tobytes()
        assert same_bits, "PF averages differ bit for bit"
        assert np.array_equal(scheduler._known, reference._known)
        assert np.array_equal(scheduler._known_mask, reference._known_mask)
    else:
        assert vars(scheduler) == vars(reference)


@SETTINGS
@given(name=_SCHEDULER_NAMES, spans=_SPANS)
def test_scalar_entry_point_equals_allocate_batch(name, spans):
    batched = make_vector_scheduler(name)
    spanned = make_vector_scheduler(name)
    switching = make_vector_scheduler(name)
    for ttis, scalar_lane, release in spans:
        expected = _run_batch(batched, ttis)
        assert _run_span(spanned, ttis) == expected
        # A scheduler may change lanes between any two spans.
        run = _run_span if scalar_lane else _run_batch
        assert run(switching, ttis) == expected
        for scheduler in (spanned, switching):
            _assert_same_state(name, scheduler, batched)
        if release is not None and name == "proportional-fair":
            load = ttis[0][0]
            victim = _build_demands(load)[release % len(load[0])].rnti
            for scheduler in (batched, spanned, switching):
                scheduler.forget(victim)
