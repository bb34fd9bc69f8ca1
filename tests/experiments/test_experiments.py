"""Tests for the experiment harness (tiny scales: shape, not precision)."""

import pytest

from repro import runtime
from repro.apps import app_names
from repro.core.costmodel import AttackScenario, UnitCosts
from repro.core.dataset import collect_trace, collect_traces
from repro.experiments import (SCALES, Scale, ablations, format_table,
                               get_scale)
from repro.experiments import cost_model as cost_experiment
from repro.experiments.table3_lab import run_fingerprinting
from repro.experiments.table5_history import TABLE_V_SCRIPT, build_visits
from repro.experiments.table6_similarity import conversational_apps
from repro.experiments.table8_algorithms import CATEGORY_ORDER
from repro.operators import LAB, TMOBILE

#: A micro scale so experiment plumbing tests stay fast.
MICRO = Scale(name="micro", traces_per_app=2, trace_duration_s=12.0,
              n_trees=8, pairs_per_app=2, history_visit_s=15.0,
              drift_test_days=2)


class TestCommon:
    def test_get_scale_by_name(self):
        assert get_scale("smoke").name == "smoke"
        assert get_scale("fast").name == "fast"
        assert get_scale("full").name == "full"

    def test_get_scale_passthrough(self):
        assert get_scale(MICRO) is MICRO

    def test_get_scale_unknown(self):
        with pytest.raises(ValueError):
            get_scale("enormous")

    def test_scales_registry(self):
        assert set(SCALES) == {"smoke", "fast", "full"}

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            Scale("bad", 0, 10.0, 5, 2, 10.0, 2)

    def test_format_table_alignment(self):
        table = format_table(["name", "value"],
                             [["alpha", 0.5], ["b", 12]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "alpha" in table
        assert "0.500" in table


class TestTable3Plumbing:
    def test_result_structure(self):
        result = run_fingerprinting(LAB, MICRO, seed=5)
        assert set(result.scores) == {"Down+UP", "Down", "UP"}
        assert len(result.apps) == 9
        for view in result.scores.values():
            for f, p, r in view.values():
                assert 0.0 <= f <= 1.0
                assert 0.0 <= p <= 1.0
                assert 0.0 <= r <= 1.0
        table = result.table()
        assert "Netflix" in table
        assert 0.0 <= result.mean_f() <= 1.0


class TestTable5Plumbing:
    def test_script_matches_paper_shape(self):
        assert len(TABLE_V_SCRIPT) == 12
        days = {day for day, _, _ in TABLE_V_SCRIPT}
        assert days == {1, 2, 3}
        zones = {zone for _, zone, _ in TABLE_V_SCRIPT}
        assert zones == {"Zone A'", "Zone B'", "Zone C'"}

    def test_build_visits_ordered_and_disjoint(self):
        visits = build_visits(MICRO, gap_s=20.0)
        assert len(visits) == 12
        for first, second in zip(visits, visits[1:]):
            assert second.start_s >= first.end_s


class TestTable6Plumbing:
    def test_conversational_apps(self):
        apps = conversational_apps()
        assert len(apps) == 6
        kinds = {kind for _, kind in apps}
        assert kinds == {"chat", "call"}


class TestTable8Plumbing:
    def test_category_order_covers_all(self):
        assert set(CATEGORY_ORDER) == {"streaming", "voip", "messaging"}


class TestCostExperiment:
    def test_measured_units_positive(self):
        units = cost_experiment.measure_unit_costs(duration_s=8.0, seed=1,
                                                   n_trees=4)
        assert units.collect_per_instance > 0
        assert units.train_per_instance >= 0

    def test_warm_cache_does_not_price_collection(self, tmp_path):
        # Warm exactly the entries measure_unit_costs would read.
        with runtime.overrides(cache_enabled=True, cache_dir=tmp_path):
            collect_trace("YouTube", operator=TMOBILE, duration_s=8.0,
                          seed=1)
            collect_traces(list(app_names()), operator=TMOBILE,
                           traces_per_app=1, duration_s=8.0, seed=2)
            runtime.reset_stats()
            cost_experiment.measure_unit_costs(duration_s=8.0, seed=1,
                                               n_trees=2)
            stats = runtime.stats()
        assert stats.simulations == (cost_experiment.TIMING_ROUNDS
                                     + len(app_names()))
        assert stats.cache.hits == 0

    def test_unit_costs_print_in_microseconds(self):
        result = cost_experiment.CostResult(
            units=UnitCosts(collect_per_instance=0.25,
                            feature_per_instance=0.007,
                            train_per_instance=4.2e-5,
                            classify_per_instance=1.5e-6),
            scenario=AttackScenario(), breakdown={"collecting": 6.0},
            hardware_usd=3750.0)
        table = result.table()
        assert "train per instance (µs)" in table
        assert "42.000" in table
        assert "1.500" in table
        assert "6.000" in table        # the Eqs. 2-3 breakdown: seconds

    def test_run_produces_breakdown(self):
        result = cost_experiment.run(MICRO, seed=2)
        assert result.breakdown["performance_total"] > 0
        assert "hardware" in result.table()


class TestAblations:
    def test_hierarchy_ablation(self):
        result = ablations.run_hierarchy(MICRO, seed=3)
        assert 0.0 <= result.hierarchical_f <= 1.0
        assert 0.0 <= result.flat_f <= 1.0
        assert "hierarchical" in result.table()

    def test_forest_ablation_curves(self):
        result = ablations.run_forest(MICRO, seed=4, tree_counts=(2, 6))
        assert len(result.tree_curve) == 2
        assert result.tree_curve[1][2] > 0      # timing recorded
        assert set(result.feature_modes) == {"sqrt", "log2", "None"}


class TestExtensionExperiments:
    def test_countermeasures_micro(self):
        from repro.experiments.countermeasures import run
        from repro.lte.obfuscation import NO_OBFUSCATION, ObfuscationConfig

        result = run(MICRO, seed=7, defences=(
            ("none", NO_OBFUSCATION),
            ("padding", ObfuscationConfig(padding_quantum=2_000))))
        assert result.outcome("none").overhead == 0.0
        assert result.outcome("padding").overhead > 0.0
        assert "Defence" in result.table()

    def test_fiveg_micro(self):
        from repro.experiments.fiveg import run

        result = run(MICRO, seed=9)
        assert result.nr_repeated_sucis == 0
        assert 0.0 <= result.nr_f_score <= 1.0
        assert "5G" in result.table()

    def test_handover_lands_at_the_midpoint(self, monkeypatch):
        """The midpoint move of a 4.02 s session lands at 2,010,000 µs
        (truncation gave 2,009,999)."""
        from repro.experiments.handover import _handover_capture
        from repro.lte.network import LTENetwork

        moves = []
        move_ue = LTENetwork.move_ue

        def spy(network, ue, target):
            moves.append((network.clock.now_us, target))
            move_ue(network, ue, target)

        monkeypatch.setattr(LTENetwork, "move_ue", spy)
        _handover_capture("Skype", LAB, 4.02, seed=3)
        assert moves == [(2_010_000, "dst")]

    def test_handover_micro(self):
        from repro.experiments.handover import run

        result = run(MICRO, seed=11)
        assert set(result.accuracy) == {"source fragment",
                                        "target fragment",
                                        "stitched (cross-cell)"}
        assert result.attempts == 9
