"""Fig. 8: decrease in classifier performance over time (data drift).

Train on day 1, test on traces from days 1..20 (T-Mobile / YouTube in
the paper's plot, "similar drops" for the other apps).  Expected shape:
monotone-ish decay that crosses the 0.7 effectiveness threshold around
a week out — the drift period D the cost model amortises retraining
over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .. import obs
from ..apps import AppCategory, apps_in_category
from ..core.drift import DriftPoint, days_until_below, fscore_over_days
from ..operators.profiles import TMOBILE, OperatorProfile
from .common import format_table, get_scale


@dataclass
class DriftResult:
    """The Fig. 8 decay curve."""

    points: List[DriftPoint]
    threshold: float
    crossing_day: Optional[int]

    def table(self) -> str:
        rows = [[p.day, p.f_score] for p in self.points]
        table = format_table(["Day", "F-score"], rows,
                             title="Fig. 8 — F-score over days "
                                   "(train day 1)")
        crossing = (f"crosses {self.threshold} on day {self.crossing_day}"
                    if self.crossing_day is not None
                    else f"never falls below {self.threshold}")
        return f"{table}\n{crossing}"

    def series(self) -> List[float]:
        return [p.f_score for p in self.points]


@obs.timed("experiment.fig8")
def run(scale="fast", seed: int = 71,
        operator: OperatorProfile = TMOBILE,
        apps: Optional[Sequence[str]] = None,
        threshold: float = 0.7) -> DriftResult:
    """Reproduce Fig. 8's decay curve.

    Defaults to the streaming category (the paper's plotted subject is
    a streaming app on T-Mobile).
    """
    resolved = get_scale(scale)
    apps = list(apps or apps_in_category(AppCategory.STREAMING))
    test_days = list(range(1, resolved.drift_test_days + 1, 1))
    points = fscore_over_days(
        apps, operator=operator, train_day=1, test_days=test_days,
        traces_per_app=resolved.traces_per_app,
        duration_s=resolved.trace_duration_s, seed=seed,
        n_trees=resolved.n_trees)
    return DriftResult(points=points, threshold=threshold,
                       crossing_day=days_until_below(points, threshold))
