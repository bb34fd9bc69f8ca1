"""Tests for the history attack: segmentation, execution, evaluation."""

import pytest

from repro.core.dataset import collect_traces, windows_from_traces
from repro.core.fingerprint import HierarchicalFingerprinter
from repro.core.history import (HistoryAttack, HistoryFinding, ZoneVisit,
                                evaluate_findings, segment_episodes)
from repro.lte.dci import Direction
from repro.lte.network import LTENetwork
from repro.operators import LAB
from repro.sniffer.trace import Trace


def trace_with_gaps():
    """Two activity episodes separated by 60 s of silence."""
    times = []
    t = 0.0
    for _ in range(30):
        times.append(t)
        t += 0.2
    t += 60.0
    for _ in range(30):
        times.append(t)
        t += 0.2
    return Trace.from_arrays(times, [0x1] * 30 + [0x2] * 30,
                             [Direction.DOWNLINK] * 60, [500] * 60)


class TestZoneVisit:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZoneVisit("a", "YouTube", start_s=-1.0, duration_s=10.0)
        with pytest.raises(ValueError):
            ZoneVisit("a", "YouTube", start_s=0.0, duration_s=0.0)

    def test_end_time(self):
        visit = ZoneVisit("a", "YouTube", start_s=5.0, duration_s=10.0)
        assert visit.end_s == 15.0


class TestSegmentation:
    def test_splits_on_gaps(self):
        episodes = segment_episodes(trace_with_gaps(), min_gap_s=15.0)
        assert len(episodes) == 2
        assert all(len(e) == 30 for e in episodes)

    def test_no_split_for_small_gaps(self):
        episodes = segment_episodes(trace_with_gaps(), min_gap_s=120.0)
        assert len(episodes) == 1

    def test_short_episodes_dropped(self):
        trace = Trace.from_arrays([0.0, 0.5], [0x1] * 2,
                                  [Direction.DOWNLINK] * 2, [100] * 2)
        assert segment_episodes(trace, min_records=10) == []

    def test_thin_episodes_dropped(self):
        trace = Trace.from_arrays([0.0, 5.0], [0x1] * 2,
                                  [Direction.DOWNLINK] * 2, [100] * 2)
        assert segment_episodes(trace, min_records=10) == []

    def test_empty_trace(self):
        assert segment_episodes(Trace()) == []

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            segment_episodes(Trace(), min_gap_s=0)

    def test_episodes_preserve_metadata(self):
        trace = trace_with_gaps()
        trace.cell = "zone-q"
        episodes = segment_episodes(trace)
        assert all(e.cell == "zone-q" for e in episodes)


class TestEvaluation:
    def finding(self, zone="a", start=0.0, end=10.0, app="YouTube"):
        return HistoryFinding(zone=zone, start_s=start, end_s=end,
                              predicted_category="streaming",
                              predicted_app=app, confidence=0.9)

    def test_correct_match(self):
        visits = [ZoneVisit("a", "YouTube", 0.0, 10.0)]
        findings = [self.finding()]
        summary = evaluate_findings(findings, visits)
        assert summary["correct"] == 1
        assert summary["success_rate"] == 1.0
        assert findings[0].correct is True

    def test_wrong_app_detected_but_incorrect(self):
        visits = [ZoneVisit("a", "Netflix", 0.0, 10.0)]
        findings = [self.finding(app="YouTube")]
        summary = evaluate_findings(findings, visits)
        assert summary["detected"] == 1
        assert summary["correct"] == 0
        assert findings[0].correct is False

    def test_zone_mismatch_not_matched(self):
        visits = [ZoneVisit("b", "YouTube", 0.0, 10.0)]
        summary = evaluate_findings([self.finding(zone="a")], visits)
        assert summary["detected"] == 0

    def test_no_time_overlap_not_matched(self):
        visits = [ZoneVisit("a", "YouTube", 100.0, 10.0)]
        summary = evaluate_findings([self.finding(end=50.0)], visits)
        assert summary["detected"] == 0

    def test_best_overlap_wins(self):
        visits = [ZoneVisit("a", "YouTube", 0.0, 10.0)]
        weak = self.finding(start=9.0, end=11.0, app="Netflix")
        strong = self.finding(start=0.0, end=10.0, app="YouTube")
        summary = evaluate_findings([weak, strong], visits)
        assert summary["correct"] == 1

    def test_category_accuracy(self):
        visits = [ZoneVisit("a", "Netflix", 0.0, 10.0)]
        findings = [self.finding(app="YouTube")]   # wrong app, right class
        summary = evaluate_findings(findings, visits)
        assert summary["category_accuracy"] == 1.0


class TestHistoryAttackEndToEnd:
    @pytest.fixture(scope="class")
    def fingerprinter(self):
        train = collect_traces(["YouTube", "Telegram", "Skype"],
                               operator=LAB, traces_per_app=3,
                               duration_s=20.0, seed=41)
        model = HierarchicalFingerprinter(n_trees=12, seed=1)
        return model.fit(windows_from_traces(train))

    def test_requires_fitted_model(self):
        with pytest.raises(ValueError):
            HistoryAttack(HierarchicalFingerprinter())

    def test_requires_visits(self, fingerprinter):
        attack = HistoryAttack(fingerprinter, operator=LAB)
        with pytest.raises(ValueError):
            attack.run([])

    def test_single_zone_scenario(self, fingerprinter):
        attack = HistoryAttack(fingerprinter, operator=LAB,
                               episode_gap_s=20.0)
        visits = [ZoneVisit("Z", "Skype", 2.0, 25.0)]
        findings = attack.run(visits, seed=5)
        summary = evaluate_findings(findings, visits)
        assert summary["detected"] == 1
        assert findings[0].predicted_category == "voip"

    def test_multi_zone_with_handover(self, fingerprinter):
        attack = HistoryAttack(fingerprinter, operator=LAB,
                               episode_gap_s=20.0)
        visits = [ZoneVisit("Z1", "Skype", 2.0, 25.0),
                  ZoneVisit("Z2", "YouTube", 60.0, 25.0)]
        findings = attack.run(visits, seed=6)
        zones = {finding.zone for finding in findings}
        assert zones == {"Z1", "Z2"}
        summary = evaluate_findings(findings, visits)
        assert summary["detected"] == 2

    def test_moves_land_on_the_scheduled_microsecond(self, fingerprinter,
                                                     monkeypatch):
        """A move 2.01 s in lands at 2,010,000 µs (truncation gave
        2,009,999)."""
        moves = []
        move_ue = LTENetwork.move_ue

        def spy(network, ue, target):
            moves.append((network.clock.now_us, target))
            move_ue(network, ue, target)

        monkeypatch.setattr(LTENetwork, "move_ue", spy)
        attack = HistoryAttack(fingerprinter, operator=LAB)
        attack.run([ZoneVisit("Z1", "Skype", 0.0, 1.0),
                    ZoneVisit("Z2", "Skype", 3.01, 1.0)], seed=2)
        assert moves == [(2_010_000, "Z2")]

    def test_without_imsi_catcher_still_runs(self, fingerprinter):
        attack = HistoryAttack(fingerprinter, operator=LAB,
                               use_imsi_catcher=False, episode_gap_s=20.0)
        visits = [ZoneVisit("Z1", "YouTube", 2.0, 20.0),
                  ZoneVisit("Z2", "Skype", 45.0, 20.0)]
        findings = attack.run(visits, seed=7)
        assert findings   # idle reconnects re-leak identity per zone
