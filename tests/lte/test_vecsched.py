"""Vector schedulers are grant-for-grant twins of the object schedulers."""

import random

import numpy as np
import pytest

from repro.lte.dci import Direction
from repro.lte.tbs import MAX_PRB
from repro.lte.vecsched import (VectorProportionalFairScheduler,
                                _sequential_grants, make_vector_scheduler)
from tests.lte.oracles import Demand, make_scheduler


def _random_demands(rng, count, allow_collisions=False):
    rntis = []
    for _ in range(count):
        if allow_collisions and rntis and rng.random() < 0.3:
            rntis.append(rng.choice(rntis))
        else:
            rntis.append(rng.randint(0x003D, 0xFFF3))
    return [Demand(rnti=rnti, direction=Direction.DOWNLINK,
                   backlog_bytes=rng.choice(
                       [rng.randint(1, 300), rng.randint(301, 20_000),
                        rng.randint(20_001, 5_000_000)]),
                   mcs=rng.randint(0, 28))
            for rnti in rntis]


def _as_batch(demands):
    rntis = np.array([d.rnti for d in demands], dtype=np.int64)
    pending = np.array([d.backlog_bytes for d in demands], dtype=np.int64)
    mcs = np.array([d.mcs for d in demands], dtype=np.int64)
    return rntis, pending, mcs


def _assert_same_grants(demands, allocations, grants):
    positions, n_prb, tbs = grants
    assert len(allocations) == len(positions)
    for alloc, pos, prb, size in zip(allocations, positions.tolist(),
                                     n_prb.tolist(), tbs.tolist()):
        assert alloc.rnti == demands[pos].rnti
        assert alloc.mcs == demands[pos].mcs
        assert alloc.n_prb == prb
        assert alloc.tbs_bytes == size


@pytest.mark.parametrize("name", ["round-robin", "proportional-fair",
                                  "max-cqi"])
def test_vector_matches_object_scheduler_over_many_ttis(name):
    rng = random.Random(1234)
    legacy = make_scheduler(name)
    vector = make_vector_scheduler(name)
    for tti in range(200):
        demands = _random_demands(rng, rng.randint(0, 12),
                                  allow_collisions=True)
        total_prb = rng.randint(1, MAX_PRB)
        allocations = legacy.allocate(demands, total_prb)
        if not demands:
            assert allocations == []
            continue
        grants = vector.allocate_batch(*_as_batch(demands), total_prb)
        _assert_same_grants(demands, allocations, grants)


def test_pf_state_stays_float_identical_through_forget():
    rng = random.Random(9)
    legacy = make_scheduler("proportional-fair")
    vector = VectorProportionalFairScheduler()
    seen = set()
    for _ in range(120):
        demands = _random_demands(rng, rng.randint(1, 8),
                                  allow_collisions=True)
        seen.update(d.rnti for d in demands)
        total_prb = rng.randint(1, MAX_PRB)
        allocations = legacy.allocate(demands, total_prb)
        grants = vector.allocate_batch(*_as_batch(demands), total_prb)
        _assert_same_grants(demands, allocations, grants)
        if seen and rng.random() < 0.2:
            victim = rng.choice(sorted(seen))
            legacy.forget(victim)
            vector.forget(victim)
        # The dense array must read exactly what the dict twin holds —
        # bitwise, not approximately: averages feed priorities, and any
        # drift eventually flips a sort order.
        for rnti in sorted(seen):
            expected = legacy._avg_rate.get(rnti, 1.0)
            assert float(vector._avg[rnti]) == expected


def test_sequential_grants_saturation_takes_all_remaining_prbs():
    # One huge backlog: the scalar loop saturates and grants the whole
    # budget to the first demand.
    order = np.array([0], dtype=np.int64)
    pending = np.array([10_000_000], dtype=np.int64)
    i_tbs = np.array([10], dtype=np.int64)
    positions, n_prb, tbs = _sequential_grants(order, pending, i_tbs, 30)
    assert positions.tolist() == [0]
    assert n_prb.tolist() == [30]


def test_sequential_grants_rejects_bad_inputs():
    order = np.array([0], dtype=np.int64)
    i_tbs = np.array([5], dtype=np.int64)
    with pytest.raises(ValueError):
        _sequential_grants(order, np.array([100], dtype=np.int64), i_tbs, 0)
    with pytest.raises(ValueError):
        _sequential_grants(order, np.array([0], dtype=np.int64), i_tbs, 10)


def test_make_vector_scheduler_rejects_unknown_names():
    with pytest.raises(ValueError):
        make_vector_scheduler("strict-priority")
