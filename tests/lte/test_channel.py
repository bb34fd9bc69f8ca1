"""Tests for the channel model: link adaptation and capture impairments.

The CQI walk runs on the eNodeB's CQI column; ``TestCQIWalk`` drives it
for one connected UE.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lte.channel import CaptureChannel, ChannelProfile
from repro.lte.enb import ENodeB
from repro.lte.epc import EPC
from repro.lte.identifiers import make_imsi
from repro.lte.sim import SimClock
from repro.lte.tbs import cqi_to_mcs
from repro.lte.ue import UE


class TestChannelProfile:
    def test_defaults_valid(self):
        profile = ChannelProfile()
        assert profile.cqi_floor >= 1
        assert profile.cqi_ceiling <= 15

    def test_floor_and_ceiling_clamped(self):
        profile = ChannelProfile(mean_cqi=14, cqi_span=5)
        assert profile.cqi_ceiling == 15
        profile = ChannelProfile(mean_cqi=2, cqi_span=5)
        assert profile.cqi_floor == 1

    def test_invalid_mean_cqi(self):
        with pytest.raises(ValueError):
            ChannelProfile(mean_cqi=0)
        with pytest.raises(ValueError):
            ChannelProfile(mean_cqi=16)

    def test_invalid_loss(self):
        with pytest.raises(ValueError):
            ChannelProfile(capture_loss=1.0)
        with pytest.raises(ValueError):
            ChannelProfile(capture_loss=-0.1)

    def test_invalid_corruption(self):
        with pytest.raises(ValueError):
            ChannelProfile(corruption_prob=1.5)

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError):
            ChannelProfile(cqi_span=-1)


def _cqi_walk(profile, seed):
    """One UE connected to an eNB; ``step()`` advances its CQI walk once.

    Returns the UE's context and ``step``, which runs the eNB's CQI-walk
    pass over its CQI column and returns the new CQI.
    """
    enb = ENodeB("cqi", SimClock(), random.Random(seed),
                 channel_profile=profile)
    ue = UE(make_imsi(random.Random(seed)))
    EPC(random.Random(seed)).attach(ue)
    ue.serving_cell = "cqi"
    enb.connect(ue)
    context = enb.context_for(ue)
    slots = enb._ordered()

    def step():
        enb._walk_cqi(slots, enb._arr_cqi[slots].tolist())
        return context.cqi

    return context, step


class TestCQIWalk:
    def test_initial_cqi_in_bounds(self):
        profile = ChannelProfile(mean_cqi=10, cqi_span=3)
        for seed in range(20):
            context, _ = _cqi_walk(profile, seed)
            assert profile.cqi_floor <= context.cqi <= profile.cqi_ceiling

    def test_walk_stays_in_bounds(self):
        profile = ChannelProfile(mean_cqi=8, cqi_span=2, cqi_step_prob=0.9)
        _, step = _cqi_walk(profile, 7)
        for _ in range(1_000):
            cqi = step()
            assert profile.cqi_floor <= cqi <= profile.cqi_ceiling

    def test_walk_moves_at_most_one_step(self):
        profile = ChannelProfile(mean_cqi=8, cqi_span=4, cqi_step_prob=1.0)
        context, step = _cqi_walk(profile, 9)
        previous = context.cqi
        moved = 0
        for _ in range(200):
            current = step()
            assert abs(current - previous) <= 1
            moved += current != previous
            previous = current
        assert moved > 0

    def test_zero_step_prob_freezes_cqi(self):
        profile = ChannelProfile(mean_cqi=10, cqi_span=3, cqi_step_prob=0.0)
        context, step = _cqi_walk(profile, 3)
        initial = context.cqi
        for _ in range(100):
            assert step() == initial

    def test_mcs_follows_cqi(self):
        profile = ChannelProfile(mean_cqi=8, cqi_span=4, cqi_step_prob=1.0)
        context, step = _cqi_walk(profile, 0)
        for _ in range(50):
            cqi = step()
            assert context.mcs == cqi_to_mcs(cqi)

    @settings(max_examples=30)
    @given(st.integers(min_value=1, max_value=15),
           st.integers(min_value=0, max_value=5))
    def test_property_walk_respects_any_profile(self, mean, span):
        profile = ChannelProfile(mean_cqi=mean, cqi_span=span,
                                 cqi_step_prob=0.8)
        _, step = _cqi_walk(profile, 42)
        for _ in range(100):
            cqi = step()
            assert profile.cqi_floor <= cqi <= profile.cqi_ceiling


class TestCaptureChannel:
    def test_lossless_channel_delivers_everything(self):
        channel = CaptureChannel(ChannelProfile(capture_loss=0.0),
                                 random.Random(0))
        assert all(channel.deliver() for _ in range(100))
        assert channel.lost == 0
        assert channel.captured == 100

    def test_loss_rate_statistics(self):
        channel = CaptureChannel(ChannelProfile(capture_loss=0.3),
                                 random.Random(1))
        for _ in range(10_000):
            channel.deliver()
        assert 0.25 < channel.loss_rate < 0.35

    def test_loss_rate_empty(self):
        channel = CaptureChannel(ChannelProfile(), random.Random(0))
        assert channel.loss_rate == 0.0

    def test_no_corruption_returns_same_object(self):
        channel = CaptureChannel(ChannelProfile(corruption_prob=0.0),
                                 random.Random(2))
        payload = b"\x01\x02\x03"
        assert channel.corrupt(payload) is payload

    def test_corruption_flips_exactly_one_bit(self):
        channel = CaptureChannel(ChannelProfile(corruption_prob=0.999),
                                 random.Random(3))
        payload = b"\x00\x00\x00\x00"
        corrupted = None
        for _ in range(50):
            candidate = channel.corrupt(payload)
            if candidate != payload:
                corrupted = candidate
                break
        assert corrupted is not None
        diff = [a ^ b for a, b in zip(payload, corrupted)]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_corruption_counter(self):
        channel = CaptureChannel(ChannelProfile(corruption_prob=0.999),
                                 random.Random(4))
        for _ in range(20):
            channel.corrupt(b"\xaa\xbb")
        assert channel.corrupted >= 15
