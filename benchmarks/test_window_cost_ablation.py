"""Benchmarks: the §VI window-size sweep, the §VII-D cost model, and the
design-choice ablations DESIGN.md calls out.
"""

from repro.experiments.ablations import run_forest, run_hierarchy
from repro.experiments.cost_model import run as run_cost
from repro.experiments.window_sweep import run as run_window


def test_window_sweep(save_table):
    result = run_window("fast", seed=97)
    save_table("window_sweep", result.table())

    assert len(result.sizes_ms) == 6
    # Smaller windows yield more samples.
    assert result.window_counts[0] > result.window_counts[-1]
    # The paper's 100 ms choice is competitive: within a few points of
    # the best setting in the sweep.
    best = max(result.f_scores)
    hundred = result.f_scores[result.sizes_ms.index(100.0)]
    assert hundred > best - 0.1
    assert all(0.0 <= f <= 1.0 for f in result.f_scores)


def test_cost_model(save_table):
    result = run_cost("fast", seed=3)
    save_table("cost_model", result.table())

    breakdown = result.breakdown
    # Eq. 2: the performance cost is the sum of its parts.
    assert breakdown["performance_total"] == (
        breakdown["collecting"] + breakdown["training"]
        + breakdown["identification"])
    # Collection dominates (recording traces dwarfs compute).
    assert breakdown["collecting"] > breakdown["training"]
    assert breakdown["retraining_daily"] == (
        breakdown["retraining_once"] / result.scenario.drift_period_days)
    assert result.hardware_usd >= 1_500


def test_ablation_hierarchy(save_table):
    result = run_hierarchy("fast", seed=113)
    save_table("ablation_hierarchy", result.table())
    # Both pipelines work; the soft hierarchy is not materially worse.
    assert result.hierarchical_f > 0.7
    assert result.flat_f > 0.7
    assert abs(result.hierarchical_f - result.flat_f) < 0.15


def test_ablation_forest(save_table):
    result = run_forest("fast", seed=127, tree_counts=(5, 20, 60))
    save_table("ablation_forest", result.table())

    accuracies = [acc for _, acc, _ in result.tree_curve]
    timings = [secs for _, _, secs in result.tree_curve]
    # More trees never hurt much, and cost more to train.
    assert accuracies[-1] >= accuracies[0] - 0.05
    assert timings[-1] > timings[0]
    # Feature subsampling is competitive with using all features.
    assert result.feature_modes["sqrt"] > 0.7
