"""Table IV: mobile-app classification in the real-world setting.

Downlink-only captures on the three US carriers, each with its own
trained model ("we build datasets and train our framework for each
mobile network operator").  Expected shape: F-scores 5–30 points below
the lab's, yet "we can still identify the apps with sufficient
confidence" (0.74–0.91 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .. import obs, runtime
from ..apps import app_names
from ..lte.dci import Direction
from ..operators.profiles import CARRIERS
from .common import format_table, get_scale
from .table3_lab import FingerprintResult, run_fingerprinting


@dataclass
class RealWorldResult:
    """Per-carrier fingerprinting results (downlink only)."""

    per_carrier: Dict[str, FingerprintResult]
    apps: List[str]

    def table(self) -> str:
        carriers = list(self.per_carrier)
        headers = ["App"] + [f"{c} {m}" for c in carriers
                             for m in ("F", "P", "R")]
        rows = []
        for app in self.apps:
            row = [app]
            for carrier in carriers:
                f, p, r = self.per_carrier[carrier].scores["Down"][app]
                row.extend([f, p, r])
            rows.append(row)
        return format_table(headers, rows,
                            title="Table IV — real-world setting "
                                  "(downlink only)")

    def f_score(self, carrier: str, app: str) -> float:
        return self.per_carrier[carrier].scores["Down"][app][0]

    def mean_f(self, carrier: str) -> float:
        values = [self.f_score(carrier, app) for app in self.apps]
        return sum(values) / len(values)


@obs.timed("experiment.table4")
def run(scale="fast", seed: int = 23,
        workers: Optional[int] = None) -> RealWorldResult:
    """Reproduce Table IV across Verizon, AT&T, and T-Mobile."""
    resolved = get_scale(scale)
    views = (("Down", Direction.DOWNLINK),)
    per_carrier = {}
    with runtime.overrides(workers=workers):
        for index, carrier in enumerate(CARRIERS):
            per_carrier[carrier.name] = run_fingerprinting(
                carrier, resolved, views=views, seed=seed + 97 * index)
    return RealWorldResult(per_carrier=per_carrier, apps=list(app_names()))
