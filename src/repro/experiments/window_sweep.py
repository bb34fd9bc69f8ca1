"""Window-size ablation: why the paper settles on 100 ms (§VI).

"We set the time window as 100 ms empirically... We tested for
deriving the optimal window size."  Sweep window sizes and measure the
macro F-score of the fingerprinting pipeline at each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import obs, runtime
from ..apps import app_names
from ..core.dataset import collect_traces, windows_from_traces
from ..core.features import WindowConfig
from ..core.fingerprint import HierarchicalFingerprinter
from ..ml.metrics import macro_f_score
from ..operators.profiles import LAB, OperatorProfile
from .common import format_table, get_scale

#: Candidate window sizes (ms); the paper's choice sits in the middle.
WINDOW_SIZES_MS: Tuple[float, ...] = (25.0, 50.0, 100.0, 200.0, 400.0, 800.0)


@dataclass
class WindowSweepResult:
    """Macro F-score and sample count per window size."""

    sizes_ms: List[float]
    f_scores: List[float]
    window_counts: List[int]

    def table(self) -> str:
        rows = [[f"{size:.0f}", score, count]
                for size, score, count in zip(self.sizes_ms, self.f_scores,
                                              self.window_counts)]
        return format_table(["Window (ms)", "Macro F", "Windows"], rows,
                            title="Window-size sweep (§VI)")


@obs.timed("experiment.window")
def run(scale="fast", seed: int = 97,
        operator: OperatorProfile = LAB,
        sizes_ms: Tuple[float, ...] = WINDOW_SIZES_MS,
        workers: Optional[int] = None) -> WindowSweepResult:
    """Sweep the aggregation window and score each setting."""
    resolved = get_scale(scale)
    with runtime.overrides(workers=workers):
        return _run(resolved, seed, operator, sizes_ms)


def _run(resolved, seed: int, operator: OperatorProfile,
         sizes_ms: Tuple[float, ...]) -> WindowSweepResult:
    train = collect_traces(list(app_names()), operator=operator,
                           traces_per_app=resolved.traces_per_app,
                           duration_s=resolved.trace_duration_s, seed=seed)
    test = collect_traces(list(app_names()), operator=operator,
                          traces_per_app=max(1, resolved.traces_per_app // 2),
                          duration_s=resolved.trace_duration_s,
                          seed=seed + 4000)
    f_scores: List[float] = []
    counts: List[int] = []
    for size in sizes_ms:
        config = WindowConfig(window_ms=size)
        w_train = windows_from_traces(train, config)
        w_test = windows_from_traces(
            test, config, app_encoder=w_train.app_encoder,
            category_encoder=w_train.category_encoder)
        model = HierarchicalFingerprinter(window_config=config,
                                          n_trees=resolved.n_trees,
                                          seed=seed + 1)
        model.fit(w_train)
        predictions = model.predict_apps(w_test.X)
        f_scores.append(macro_f_score(
            w_test.app_labels, predictions,
            n_classes=w_train.app_encoder.n_classes))
        counts.append(len(w_test.X))
    return WindowSweepResult(sizes_ms=list(sizes_ms), f_scores=f_scores,
                             window_counts=counts)
