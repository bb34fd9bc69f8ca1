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
from typing import Callable, Dict, Optional, Tuple, TypeVar

from .. import obs, runtime
from ..apps import app_names
from ..core.costmodel import (AttackScenario, AttackerCostModel, UnitCosts,
                              deployment_cost_usd)
from ..core.dataset import collect_trace, collect_traces, windows_from_traces
from ..core.fingerprint import HierarchicalFingerprinter
from ..operators.profiles import TMOBILE, OperatorProfile
from .common import format_table, get_scale

T = TypeVar("T")

#: Timed rounds per unit cost: the fastest round prices the unit, so one
#: round slowed by the host does not inflate the attacker's cost.
TIMING_ROUNDS = 3


@dataclass
class CostResult:
    """Measured unit costs plus the analytical breakdown."""

    units: UnitCosts
    scenario: AttackScenario
    breakdown: Dict[str, float]
    hardware_usd: float

    def table(self) -> str:
        # Microseconds: per-instance train and classify costs are far
        # below a millisecond and would print as 0.000 in seconds.
        unit_rows = [
            ["collect one trace (µs)", self.units.collect_per_instance],
            ["extract features (µs)", self.units.feature_per_instance],
            ["train per instance (µs)", self.units.train_per_instance],
            ["classify per instance (µs)",
             self.units.classify_per_instance],
        ]
        units = format_table(["Unit cost", "Microseconds"],
                             [[label, seconds * 1e6]
                              for label, seconds in unit_rows],
                             title="Measured unit costs")
        cost_rows = [[task, seconds]
                     for task, seconds in self.breakdown.items()]
        costs = format_table(["Task (Fig. 7)", "Cost (s)"], cost_rows,
                             title="Analytical breakdown (Eqs. 2-3)")
        return (f"{units}\n\n{costs}\n"
                f"hardware: ${self.hardware_usd:.0f} "
                f"({self.scenario.apps_to_train} apps, "
                f"drift period {self.scenario.drift_period_days} days)")


def _best_of(action: Callable[[], T]) -> Tuple[float, T]:
    """Seconds of the fastest of ``TIMING_ROUNDS`` calls, and a result."""
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        started = time.perf_counter()
        result = action()
        best = min(best, time.perf_counter() - started)
    return best, result


def measure_unit_costs(operator: OperatorProfile = TMOBILE,
                       duration_s: float = 20.0, seed: int = 3,
                       n_trees: int = 10) -> UnitCosts:
    """Measure real per-instance costs on this machine.

    Each unit cost is the fastest of ``TIMING_ROUNDS`` timed rounds.
    Collection is timed with the trace cache off: the attacker pays for
    capture, so a warm cache must not price it as a disk read.
    """
    from ..core.features import extract_features

    with runtime.overrides(cache_enabled=False):
        collect_s, trace = _best_of(lambda: collect_trace(
            "YouTube", operator=operator, duration_s=duration_s,
            seed=seed))
        feature_s, _ = _best_of(lambda: extract_features(trace))
        traces = collect_traces(list(app_names()), operator=operator,
                                traces_per_app=1, duration_s=duration_s,
                                seed=seed + 1)
    windows = windows_from_traces(traces)
    instances = max(1, len(windows.X))
    train_s, model = _best_of(lambda: HierarchicalFingerprinter(
        n_trees=n_trees, seed=seed).fit(windows))
    classify_s, _ = _best_of(lambda: model.predict_apps(windows.X))
    return UnitCosts(collect_per_instance=collect_s,
                     feature_per_instance=feature_s,
                     train_per_instance=train_s / instances,
                     classify_per_instance=classify_s / instances)


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
