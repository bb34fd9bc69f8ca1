"""Robustness: fingerprinting accuracy under injected capture faults.

The paper's real-world results (Table IV) already absorb whatever
imperfections the sniffer had that day; this experiment makes the
imperfection an *axis*.  Train on clean captures, then classify test
captures corrupted by a :class:`~repro.faults.FaultPlan` of increasing
severity (burst capture loss by default).  Expected shape, mirroring
Fig. 9's noise curve: macro F-score declines as the loss rate grows but
stays above the random-guess floor of ``1 / n_apps`` until the capture
is mostly gone.

``lte-fingerprint experiment robustness`` runs the default sweep.  The
experiment constructs its own per-level plans and deliberately keeps
the training captures clean, so a process-wide ``--faults`` plan does
not leak into it (every ``collect_traces`` call passes an explicit
plan, which takes precedence over the runtime's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs, runtime
from ..apps import app_names
from ..core.dataset import collect_traces, windows_from_traces
from ..core.fingerprint import HierarchicalFingerprinter
from ..faults import FaultPlan, FaultSpec
from ..ml.metrics import per_class_scores
from ..operators.profiles import TMOBILE, OperatorProfile
from .common import format_table, get_scale

#: Burst-loss rates swept by default: clean through severely degraded.
LOSS_RATES: Tuple[float, ...] = (0.0, 0.05, 0.15, 0.3, 0.5)


@dataclass
class RobustnessResult:
    """Macro F-score per fault severity level."""

    fault: str
    rates: List[float]
    f_scores: List[float]
    test_windows: List[int]
    n_apps: int

    def table(self) -> str:
        rows = [[rate, windows, score]
                for rate, windows, score
                in zip(self.rates, self.test_windows, self.f_scores)]
        return format_table(
            ["Loss rate", "Test windows", "Macro F-score"], rows,
            title=f"Robustness — {self.fault} degradation "
                  f"(floor {1.0 / self.n_apps:.3f})")

    @property
    def floor(self) -> float:
        """The random-guess macro F-score for this label set."""
        return 1.0 / self.n_apps


def _macro_f(y_true: np.ndarray, y_pred: np.ndarray,
             n_classes: int) -> float:
    """Mean F-score over the classes actually present in ``y_true``."""
    scores = per_class_scores(y_true, y_pred, n_classes=n_classes)
    present = np.unique(y_true)
    return float(np.mean([scores[label].f_score for label in present]))


@obs.timed("experiment.robustness")
def run(scale="fast", seed: int = 29, fault: str = "burst_loss",
        rates: Optional[Tuple[float, ...]] = None,
        apps: Optional[Sequence[str]] = None,
        operator: OperatorProfile = TMOBILE,
        workers: Optional[int] = None) -> RobustnessResult:
    """Sweep a capture-loss fault over the test set; train stays clean."""
    resolved = get_scale(scale)
    rates = tuple(rates) if rates is not None else LOSS_RATES
    app_list = list(apps) if apps is not None else list(app_names())
    with runtime.overrides(workers=workers):
        train = collect_traces(app_list, operator=operator,
                               traces_per_app=resolved.traces_per_app,
                               duration_s=resolved.trace_duration_s,
                               seed=seed, fault_plan=FaultPlan.build())
        windows = windows_from_traces(train)
        model = HierarchicalFingerprinter(n_trees=resolved.n_trees,
                                          seed=seed + 1)
        model.fit(windows)
        f_scores: List[float] = []
        test_windows: List[int] = []
        for index, rate in enumerate(rates):
            plan = FaultPlan.build(seed=seed + 13) if rate <= 0 else \
                FaultPlan.build(FaultSpec.make(fault, rate=rate),
                                seed=seed + 13)
            test = collect_traces(
                app_list, operator=operator,
                traces_per_app=max(2, resolved.traces_per_app // 2),
                duration_s=resolved.trace_duration_s,
                seed=seed + 499 * (index + 1), fault_plan=plan)
            batch = windows_from_traces(
                test, app_encoder=windows.app_encoder,
                category_encoder=windows.category_encoder)
            predictions = model.predict_apps(batch.X)
            f_scores.append(_macro_f(batch.app_labels, predictions,
                                     windows.app_encoder.n_classes))
            test_windows.append(len(batch.X))
    return RobustnessResult(fault=fault, rates=list(rates),
                            f_scores=f_scores, test_windows=test_windows,
                            n_apps=len(app_list))
