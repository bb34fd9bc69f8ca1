"""Fig. 9: impact of background noise traffic on fingerprinting.

Train on a *clean* single-app trace (YouTube on T-Mobile in the paper),
then test on traces recorded while 5–10 background apps run alongside
the target, at increasing noise-dataset sizes.  Expected shape: F-score
drops a few points per extra 10 K noise instances; past ~30 K the
target becomes effectively unidentifiable (paper's 0.6 floor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import obs, runtime
from ..apps import app_names
from ..core.dataset import collect_traces, windows_from_traces
from ..core.fingerprint import HierarchicalFingerprinter
from ..ml.metrics import per_class_scores
from ..operators.profiles import TMOBILE, OperatorProfile
from .common import format_table, get_scale

#: Background-app counts standing in for the paper's 10–50 K instance
#: datasets; each step adds more concurrent noise apps.
NOISE_LEVELS: Tuple[int, ...] = (0, 2, 4, 6, 8, 10)


@dataclass
class NoiseResult:
    """Target-app F-score per noise level."""

    target_app: str
    levels: List[int]
    f_scores: List[float]
    noise_instances: List[int]

    def table(self) -> str:
        rows = [[level, instances, score]
                for level, instances, score
                in zip(self.levels, self.noise_instances, self.f_scores)]
        return format_table(
            ["Background apps", "Noise instances", "Target F-score"], rows,
            title=f"Fig. 9 — noise impact on {self.target_app}")

    def degradation(self) -> float:
        """Total F-score drop from clean to the noisiest level."""
        return self.f_scores[0] - self.f_scores[-1]


@obs.timed("experiment.fig9")
def run(scale="fast", seed: int = 83, target_app: str = "YouTube",
        operator: OperatorProfile = TMOBILE,
        levels: Optional[Tuple[int, ...]] = None,
        workers: Optional[int] = None) -> NoiseResult:
    """Reproduce Fig. 9's noise-degradation curve."""
    resolved = get_scale(scale)
    levels = levels or NOISE_LEVELS
    with runtime.overrides(workers=workers):
        # Train on clean traces of every app (single running app).
        train = collect_traces(list(app_names()), operator=operator,
                               traces_per_app=resolved.traces_per_app,
                               duration_s=resolved.trace_duration_s,
                               seed=seed)
        windows = windows_from_traces(train)
        model = HierarchicalFingerprinter(n_trees=resolved.n_trees,
                                          seed=seed + 1)
        model.fit(windows)
        target_id = windows.app_encoder.transform([target_app])[0]
        f_scores: List[float] = []
        noise_instances: List[int] = []
        for index, level in enumerate(levels):
            test = collect_traces(
                [target_app], operator=operator,
                traces_per_app=max(2, resolved.traces_per_app),
                duration_s=resolved.trace_duration_s,
                seed=seed + 997 * (index + 1),
                background_count=level)
            test_windows = windows_from_traces(
                test, app_encoder=windows.app_encoder,
                category_encoder=windows.category_encoder)
            predictions = model.predict_apps(test_windows.X)
            scores = per_class_scores(test_windows.app_labels, predictions,
                                      n_classes=windows.app_encoder.n_classes)
            f_scores.append(scores[target_id].f_score)
            noise_instances.append(len(test_windows.X))
    return NoiseResult(target_app=target_app, levels=list(levels),
                       f_scores=f_scores, noise_instances=noise_instances)
