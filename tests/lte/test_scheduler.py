"""Tests for the MAC schedulers: conservation, fairness, cross traffic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lte.dci import Direction
from repro.lte.scheduler import CrossTraffic
from repro.lte.vecsched import scheduler_names
from tests.lte.oracles import (Demand, MaxCQIScheduler,
                               ProportionalFairScheduler, RoundRobinScheduler,
                               make_scheduler)


def demand(rnti, backlog=10_000, mcs=15, direction=Direction.DOWNLINK):
    return Demand(rnti=rnti, direction=direction, backlog_bytes=backlog,
                  mcs=mcs)


demand_lists = st.lists(
    st.builds(demand,
              rnti=st.integers(min_value=0x100, max_value=0x1FF),
              backlog=st.integers(min_value=1, max_value=500_000),
              mcs=st.integers(min_value=0, max_value=28)),
    min_size=0, max_size=12,
    unique_by=lambda d: d.rnti)

all_schedulers = st.sampled_from(list(scheduler_names()))


class TestDemandValidation:
    def test_positive_backlog_required(self):
        with pytest.raises(ValueError):
            Demand(rnti=1, direction=Direction.UPLINK, backlog_bytes=0,
                   mcs=10)


class TestRegistry:
    def test_all_names_constructible(self):
        for name in scheduler_names():
            assert make_scheduler(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("strict-priority")


class TestRoundRobin:
    def test_empty_demands(self):
        assert RoundRobinScheduler().allocate([], 50) == []

    def test_single_demand_served(self):
        grants = RoundRobinScheduler().allocate([demand(1, 100)], 50)
        assert len(grants) == 1
        assert grants[0].tbs_bytes >= 100

    def test_rotation_changes_first_served(self):
        scheduler = RoundRobinScheduler()
        demands = [demand(1, 10**6), demand(2, 10**6), demand(3, 10**6)]
        first_round = scheduler.allocate(demands, 10)
        second_round = scheduler.allocate(demands, 10)
        assert first_round[0].rnti != second_round[0].rnti

    def test_every_ue_eventually_served(self):
        scheduler = RoundRobinScheduler()
        demands = [demand(i, 10**7) for i in range(1, 6)]
        served = set()
        for _ in range(10):
            for grant in scheduler.allocate(demands, 8):
                served.add(grant.rnti)
        assert served == {1, 2, 3, 4, 5}


class TestProportionalFair:
    def test_recently_served_ue_deprioritised(self):
        scheduler = ProportionalFairScheduler(averaging_window=5.0)
        hog = demand(1, 10**7, mcs=28)
        other = demand(2, 10**7, mcs=28)
        # Serve only the hog for a while (other absent).
        for _ in range(20):
            scheduler.allocate([hog], 10)
        # When the other UE appears, it should be ranked first.
        grants = scheduler.allocate([hog, other], 10)
        assert grants[0].rnti == 2

    def test_forget_clears_state(self):
        scheduler = ProportionalFairScheduler()
        scheduler.allocate([demand(7, 1_000)], 50)
        scheduler.forget(7)
        assert 7 not in scheduler._avg_rate

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            ProportionalFairScheduler(averaging_window=1.0)


class TestMaxCQI:
    def test_best_channel_first(self):
        scheduler = MaxCQIScheduler()
        demands = [demand(1, 10**7, mcs=5), demand(2, 10**7, mcs=25)]
        grants = scheduler.allocate(demands, 5)
        assert grants[0].rnti == 2


class TestSchedulerInvariants:
    @settings(max_examples=60)
    @given(all_schedulers, demand_lists,
           st.integers(min_value=1, max_value=110))
    def test_property_prb_conservation(self, name, demands, total_prb):
        grants = make_scheduler(name).allocate(demands, total_prb)
        assert sum(g.n_prb for g in grants) <= total_prb

    @settings(max_examples=60)
    @given(all_schedulers, demand_lists,
           st.integers(min_value=1, max_value=110))
    def test_property_at_most_one_grant_per_rnti(self, name, demands,
                                                 total_prb):
        grants = make_scheduler(name).allocate(demands, total_prb)
        rntis = [g.rnti for g in grants]
        assert len(rntis) == len(set(rntis))

    @settings(max_examples=60)
    @given(all_schedulers, demand_lists,
           st.integers(min_value=1, max_value=110))
    def test_property_grants_only_for_demanding_ues(self, name, demands,
                                                    total_prb):
        grants = make_scheduler(name).allocate(demands, total_prb)
        demanding = {d.rnti for d in demands}
        assert all(g.rnti in demanding for g in grants)

    @settings(max_examples=40)
    @given(all_schedulers, demand_lists)
    def test_property_ample_capacity_serves_everyone(self, name, demands):
        # With 110 PRB and few small demands, every UE gets a grant.
        small = [Demand(rnti=d.rnti, direction=d.direction,
                        backlog_bytes=min(d.backlog_bytes, 50), mcs=20)
                 for d in demands[:4]]
        grants = make_scheduler(name).allocate(small, 110)
        assert {g.rnti for g in grants} == {d.rnti for d in small}


class TestCrossTraffic:
    def test_zero_load(self):
        assert CrossTraffic(mean_load=0.0).occupied_prb(
            50, random.Random(0)) == 0

    def test_occupied_within_bounds(self):
        cross = CrossTraffic(mean_load=0.5, burstiness=0.5)
        rng = random.Random(1)
        for _ in range(500):
            occupied = cross.occupied_prb(100, rng)
            assert 0 <= occupied <= 95

    def test_mean_load_tracks_parameter(self):
        cross = CrossTraffic(mean_load=0.4, burstiness=0.2)
        rng = random.Random(2)
        samples = [cross.occupied_prb(100, rng) for _ in range(3_000)]
        assert 35 < sum(samples) / len(samples) < 45

    def test_invalid_load(self):
        with pytest.raises(ValueError):
            CrossTraffic(mean_load=1.0)
        with pytest.raises(ValueError):
            CrossTraffic(mean_load=-0.1)

    def test_invalid_burstiness(self):
        with pytest.raises(ValueError):
            CrossTraffic(mean_load=0.2, burstiness=-1.0)
