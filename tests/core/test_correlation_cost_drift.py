"""Tests for the correlation attack, cost model, and drift utilities."""

import numpy as np
import pytest

from repro.core import correlation
from repro.core.correlation import (PAIR_FEATURE_NAMES, CorrelationAttack,
                                    optimal_time_window, precision_recall)
from repro.core.costmodel import (AttackScenario, AttackerCostModel,
                                  UnitCosts, deployment_cost_usd)
from repro.core.dataset import collect_pair, collect_trace
from repro.core.drift import (DriftPoint, RetrainingPolicy,
                              days_until_below, decay_summary)
from repro.core.features import volume_series
from repro.lte.dci import Direction
from repro.ml.dtw import similarity_score
from repro.operators import LAB
from repro.sniffer.trace import Trace
from tests.ml.oracles import PAIR_BATCH, PAIR_SCALAR, pinned_pair_lane


@pytest.fixture(scope="module")
def call_pairs():
    positives = [collect_pair("Skype", "call", operator=LAB,
                              duration_s=20.0, seed=100 + i)
                 for i in range(3)]
    negatives = []
    for i in range(3):
        left, _ = collect_pair("Skype", "call", operator=LAB,
                               duration_s=20.0, seed=200 + i)
        right, _ = collect_pair("Skype", "call", operator=LAB,
                                duration_s=20.0, seed=300 + i)
        negatives.append((left, right))
    return positives, negatives


def reference_features(attack, trace_a, trace_b):
    """One pair's feature row the pre-batching way: eight
    ``volume_series`` calls and four scalar ``similarity_score`` calls."""
    def series(trace, direction, value):
        return volume_series(trace, attack.bin_s, direction=direction,
                             value=value)

    def directional(a, b):
        if len(a) == 0 or len(b) == 0:
            return 0.0
        return similarity_score(a, b, window=attack.dtw_window)

    up, down = Direction.UPLINK, Direction.DOWNLINK
    up_a_frames = series(trace_a, up, "frames")
    down_a_frames = series(trace_a, down, "frames")
    up_b_frames = series(trace_b, up, "frames")
    down_b_frames = series(trace_b, down, "frames")
    if (len(up_a_frames) + len(down_a_frames) == 0
            or len(up_b_frames) + len(down_b_frames) == 0):
        return np.zeros(len(PAIR_FEATURE_NAMES))
    sim_total = 0.5 * (directional(up_a_frames, down_b_frames)
                       + directional(down_a_frames, up_b_frames))
    sim_ud = directional(series(trace_a, up, "bytes"),
                         series(trace_b, down, "bytes"))
    sim_du = directional(series(trace_a, down, "bytes"),
                         series(trace_b, up, "bytes"))
    bytes_a, bytes_b = float(trace_a.total_bytes), float(trace_b.total_bytes)
    volume_ratio = (min(bytes_a, bytes_b) / max(bytes_a, bytes_b)
                    if max(bytes_a, bytes_b) > 0 else 0.0)
    dur_a, dur_b = trace_a.duration_s, trace_b.duration_s
    duration_ratio = (min(dur_a, dur_b) / max(dur_a, dur_b)
                      if max(dur_a, dur_b) > 0 else 0.0)
    overlap = min(len(up_a_frames), len(down_b_frames))
    activity = (float(np.mean((up_a_frames[:overlap] > 0)
                              == (down_b_frames[:overlap] > 0)))
                if overlap else 0.0)
    return np.array([sim_total, sim_ud, sim_du, volume_ratio,
                     duration_ratio, activity])


def mixed_pairs(call_pairs, full):
    """``full`` pairs of two-way traces (traces repeat across pairs) plus
    pairs with an empty trace, an uplink-only trace, and a trace whose
    records carry neither link direction (silent both ways)."""
    positives, negatives = call_pairs
    legs = [leg for pair in (*positives, *negatives) for leg in pair]
    pairs = [(legs[k % len(legs)], legs[(5 * k + 1) % len(legs)])
             for k in range(full)]
    uplink_only = legs[0].direction_filtered(Direction.UPLINK)
    no_link = Trace.from_arrays([0.0, 3.0], [7, 7], [2, 2], [500, 900])
    return pairs + [(legs[2], Trace()), (Trace(), legs[3]),
                    (uplink_only, uplink_only), (legs[4], no_link)]


class TestCorrelationAttack:
    def test_bin_validation(self):
        with pytest.raises(ValueError):
            CorrelationAttack(bin_s=0)

    def test_pair_features_shape(self, call_pairs):
        positives, _ = call_pairs
        attack = CorrelationAttack()
        score = attack.score_pair(*positives[0])
        assert score.features.shape == (len(PAIR_FEATURE_NAMES),)
        assert 0.0 <= score.similarity <= 1.0

    def test_empty_traces_score_zero(self):
        attack = CorrelationAttack()
        score = attack.score_pair(Trace(), Trace())
        assert score.similarity == 0.0

    def test_communicating_pairs_score_higher(self, call_pairs):
        positives, negatives = call_pairs
        attack = CorrelationAttack()
        pos_mean = np.mean([attack.similarity(a, b) for a, b in positives])
        neg_mean = np.mean([attack.similarity(a, b) for a, b in negatives])
        assert pos_mean > neg_mean + 0.1

    def test_similarity_symmetricish(self, call_pairs):
        """Swapping pair order preserves the verdict-relevant scale."""
        positives, _ = call_pairs
        a, b = positives[0]
        attack = CorrelationAttack()
        forward = attack.similarity(a, b)
        backward = attack.similarity(b, a)
        assert forward == pytest.approx(backward, abs=0.15)

    def test_fit_and_predict(self, call_pairs):
        positives, negatives = call_pairs
        attack = CorrelationAttack()
        attack.fit(positives[:2], negatives[:2])
        assert attack.is_fitted
        predictions = attack.predict_pairs([positives[2], negatives[2]])
        assert list(predictions) == [1, 0]
        scores = attack.decision_scores([positives[2], negatives[2]])
        assert scores[0] > scores[1]

    def test_fit_requires_both_classes(self, call_pairs):
        positives, negatives = call_pairs
        with pytest.raises(ValueError):
            CorrelationAttack().fit(positives, [])

    def test_predict_requires_fit(self, call_pairs):
        positives, _ = call_pairs
        with pytest.raises(RuntimeError):
            CorrelationAttack().predict_pairs(positives)

    def test_empty_pair_list_verdicts(self, call_pairs):
        positives, negatives = call_pairs
        attack = CorrelationAttack().fit(positives, negatives)
        scores = attack.decision_scores([])
        assert scores.shape == (0,) and scores.dtype == np.float64
        verdicts = attack.predict_pairs([])
        assert verdicts.shape == (0,) and verdicts.dtype == np.int64

    def test_score_pair_equals_reference(self, call_pairs):
        attack = CorrelationAttack()
        for a, b in mixed_pairs(call_pairs, full=6):
            score = attack.score_pair(a, b)
            assert np.array_equal(score.features,
                                  reference_features(attack, a, b))
            assert score.similarity == score.features[0]

    @pytest.mark.parametrize("lane", [None, PAIR_SCALAR, PAIR_BATCH],
                             ids=["shipped", "scalar", "batch"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_batched_rows_equal_per_pair_rows(self, call_pairs, offset,
                                              lane):
        """Around the lane crossover: two-way pairs bring four
        comparisons each, the extra pairs none."""
        attack = CorrelationAttack()
        pairs = mixed_pairs(
            call_pairs, full=correlation.BATCH_MIN_COMPARISONS // 4 + offset)
        expected = np.stack([attack.score_pair(a, b).features
                             for a, b in pairs])
        bound = correlation.BATCH_MIN_COMPARISONS if lane is None else lane
        with pinned_pair_lane(bound):
            rows = attack._pair_features(pairs)
        assert np.array_equal(rows, expected)

    def test_fit_weights_equal_on_both_lanes(self, call_pairs):
        positives, negatives = call_pairs
        weights = []
        for lane in (PAIR_SCALAR, PAIR_BATCH):
            with pinned_pair_lane(lane):
                attack = CorrelationAttack().fit(positives, negatives)
            weights.append(attack._model.weights_)
        assert np.array_equal(weights[0], weights[1])

    def test_optimal_time_window_sweep(self, call_pairs):
        positives, _ = call_pairs
        best, curve = optimal_time_window(*positives[0],
                                          candidates=(0.5, 1.0, 2.0))
        assert best in (0.5, 1.0, 2.0)
        assert len(curve) == 3


class TestPrecisionRecall:
    def test_hand_computed(self):
        y_true = np.array([1, 1, 0, 0, 1])
        y_pred = np.array([1, 0, 1, 0, 1])
        precision, recall = precision_recall(y_true, y_pred)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 3)

    def test_no_positive_predictions(self):
        precision, recall = precision_recall(np.array([1, 0]),
                                             np.array([0, 0]))
        assert precision == 0.0
        assert recall == 0.0

    def test_perfect(self):
        y = np.array([1, 0, 1])
        assert precision_recall(y, y) == (1.0, 1.0)


class TestCostModel:
    def test_training_instances_formula(self):
        scenario = AttackScenario(apps_to_train=9, versions_per_app=2,
                                  instances_per_app=10)
        assert scenario.training_instances == 180

    def test_test_instances_formula(self):
        scenario = AttackScenario(victims=4, apps_per_victim=3)
        assert scenario.test_instances == 12

    def test_eq2_composition(self):
        units = UnitCosts(collect_per_instance=2.0,
                          feature_per_instance=0.5,
                          train_per_instance=0.25,
                          classify_per_instance=0.1)
        scenario = AttackScenario(apps_to_train=2, versions_per_app=1,
                                  instances_per_app=5, victims=1,
                                  apps_per_victim=2)
        model = AttackerCostModel(scenario, units)
        # A_n = 10: collect 20, train 10*(0.5+0.25)=7.5,
        # T_d = 2: identify 2*(2+0.5+0.1)=5.2.
        assert model.collecting_cost() == 20.0
        assert model.training_cost() == 7.5
        assert model.identification_cost() == pytest.approx(5.2)
        assert model.performance_cost() == pytest.approx(32.7)

    def test_eq3_retraining_branch(self):
        model = AttackerCostModel(AttackScenario(drift_period_days=7))
        below = model.total_cost(measured_performance=0.5, horizon_days=14)
        above = model.total_cost(measured_performance=0.9, horizon_days=14)
        assert below == pytest.approx(above + 2 * model.retraining_cost())

    def test_daily_retraining_amortisation(self):
        model = AttackerCostModel(AttackScenario(drift_period_days=10))
        assert model.daily_retraining_cost() == pytest.approx(
            model.retraining_cost() / 10)

    def test_breakdown_keys(self):
        breakdown = AttackerCostModel(AttackScenario()).breakdown()
        assert set(breakdown) == {"collecting", "training",
                                  "identification", "performance_total",
                                  "retraining_once", "retraining_daily"}

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            AttackScenario(apps_to_train=0)
        with pytest.raises(ValueError):
            AttackScenario(performance_threshold=0.0)

    def test_unit_cost_validation(self):
        with pytest.raises(ValueError):
            UnitCosts(collect_per_instance=-1.0)

    def test_negative_horizon_rejected(self):
        model = AttackerCostModel(AttackScenario())
        with pytest.raises(ValueError):
            model.total_cost(0.5, horizon_days=-1)

    def test_deployment_cost(self):
        assert deployment_cost_usd(3, per_sniffer_usd=750.0,
                                   compute_usd=1500.0) == 3750.0
        with pytest.raises(ValueError):
            deployment_cost_usd(0)


class TestDriftUtilities:
    def curve(self, values):
        return [DriftPoint(day=i + 1, f_score=v)
                for i, v in enumerate(values)]

    def test_days_until_below(self):
        points = self.curve([0.9, 0.8, 0.65, 0.5])
        assert days_until_below(points, threshold=0.7) == 3

    def test_days_until_below_never(self):
        assert days_until_below(self.curve([0.9, 0.85]), 0.7) is None

    def test_decay_summary(self):
        initial, final = decay_summary(self.curve([0.9, 0.7, 0.5]))
        assert initial == 0.9
        assert final == 0.5

    def test_decay_summary_empty_rejected(self):
        with pytest.raises(ValueError):
            decay_summary([])

    def test_policy_schedules_retrains(self):
        policy = RetrainingPolicy(threshold=0.7)
        points = self.curve([0.9, 0.8, 0.6, 0.6, 0.6, 0.6])
        schedule = policy.schedule(points)
        assert schedule
        assert all(1 <= day <= 6 for day in schedule)

    def test_policy_no_retrain_above_threshold(self):
        policy = RetrainingPolicy(threshold=0.5)
        assert policy.retrain_count(self.curve([0.9, 0.8, 0.7])) == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetrainingPolicy(threshold=0.0)

    def test_empty_curve_schedule(self):
        assert RetrainingPolicy().schedule([]) == []


class TestTraceSimilarityAcrossApps:
    def test_low_volume_apps_score_lower(self):
        """Paper: 'apps generating lower volumes of traffic usually had
        low similarity scores' — messaging below VoIP."""
        attack = CorrelationAttack()
        voip = [collect_pair("Skype", "call", operator=LAB,
                             duration_s=20.0, seed=500 + i)
                for i in range(3)]
        chat = [collect_pair("WhatsApp", "chat", operator=LAB,
                             duration_s=20.0, seed=600 + i)
                for i in range(3)]
        voip_mean = np.mean([attack.similarity(a, b) for a, b in voip])
        chat_mean = np.mean([attack.similarity(a, b) for a, b in chat])
        assert voip_mean > chat_mean - 0.2   # VoIP at least comparable
