"""§VII-D: the attacker cost model, with measured unit costs.

Combines the analytical model (Eqs. 2–3) with unit costs *measured* on
this machine — how long collecting one trace, extracting its features,
training per instance, and classifying actually take — and with the
drift period measured by the Fig. 8 experiment, producing the
"structuring adversary cost" breakdown of Fig. 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from .. import obs, runtime
from ..apps import app_names
from ..core.costmodel import (AttackScenario, AttackerCostModel, UnitCosts,
                              deployment_cost_usd)
from ..core.dataset import collect_trace, collect_traces, windows_from_traces
from ..core.fingerprint import HierarchicalFingerprinter
from ..operators.profiles import TMOBILE, OperatorProfile
from .common import format_table, get_scale


@dataclass
class CostResult:
    """Measured unit costs plus the analytical breakdown."""

    units: UnitCosts
    scenario: AttackScenario
    breakdown: Dict[str, float]
    hardware_usd: float

    def table(self) -> str:
        unit_rows = [
            ["collect one trace (s)", self.units.collect_per_instance],
            ["extract features (s)", self.units.feature_per_instance],
            ["train per instance (s)", self.units.train_per_instance],
            ["classify per instance (s)", self.units.classify_per_instance],
        ]
        units = format_table(["Unit cost", "Seconds"], unit_rows,
                             title="Measured unit costs")
        cost_rows = [[task, seconds]
                     for task, seconds in self.breakdown.items()]
        costs = format_table(["Task (Fig. 7)", "Cost (s)"], cost_rows,
                             title="Analytical breakdown (Eqs. 2-3)")
        return (f"{units}\n\n{costs}\n"
                f"hardware: ${self.hardware_usd:.0f} "
                f"({self.scenario.apps_to_train} apps, "
                f"drift period {self.scenario.drift_period_days} days)")


def measure_unit_costs(operator: OperatorProfile = TMOBILE,
                       duration_s: float = 20.0, seed: int = 3,
                       n_trees: int = 10) -> UnitCosts:
    """Measure real per-instance costs on this machine.

    Collection is timed with the trace cache off: the attacker pays for
    capture, so a warm cache must not price it as a disk read.
    """
    from ..core.features import extract_features

    with runtime.overrides(cache_enabled=False):
        started = time.perf_counter()
        trace = collect_trace("YouTube", operator=operator,
                              duration_s=duration_s, seed=seed)
        collect_s = time.perf_counter() - started

        started = time.perf_counter()
        extract_features(trace)
        feature_s = time.perf_counter() - started

        traces = collect_traces(list(app_names()), operator=operator,
                                traces_per_app=1, duration_s=duration_s,
                                seed=seed + 1)
    windows = windows_from_traces(traces)
    model = HierarchicalFingerprinter(n_trees=n_trees, seed=seed)
    started = time.perf_counter()
    model.fit(windows)
    train_s = (time.perf_counter() - started) / max(1, len(windows.X))

    started = time.perf_counter()
    model.predict_apps(windows.X)
    classify_s = (time.perf_counter() - started) / max(1, len(windows.X))

    return UnitCosts(collect_per_instance=collect_s,
                     feature_per_instance=feature_s,
                     train_per_instance=train_s,
                     classify_per_instance=classify_s)


@obs.timed("experiment.cost")
def run(scale="fast", seed: int = 3,
        drift_period_days: Optional[int] = 7,
        n_cells: int = 3) -> CostResult:
    """Evaluate the attacker cost model with measured unit costs."""
    resolved = get_scale(scale)
    units = measure_unit_costs(duration_s=min(
        20.0, resolved.trace_duration_s), seed=seed,
        n_trees=resolved.n_trees // 2 or 1)
    scenario = AttackScenario(
        apps_to_train=9, versions_per_app=1,
        instances_per_app=resolved.traces_per_app,
        victims=1, apps_per_victim=3,
        drift_period_days=drift_period_days or 7)
    model = AttackerCostModel(scenario, units)
    return CostResult(units=units, scenario=scenario,
                      breakdown=model.breakdown(),
                      hardware_usd=deployment_cost_usd(n_cells))


def main() -> None:  # pragma: no cover - CLI entry
    print(run().table())


if __name__ == "__main__":  # pragma: no cover
    main()
