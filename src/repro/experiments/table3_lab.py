"""Table III: mobile-app classification in the laboratory setting.

Nine apps, Random Forest, three link-direction views (Down+Up, Down
only, UP only), per-app F-score / precision / recall.  The paper's lab
numbers are 0.93–0.996; the reproduction target is the *shape*:
streaming and VoIP near-perfect, messaging a few points behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .. import obs, runtime
from ..apps import app_names
from ..core.dataset import collect_traces, windows_from_traces
from ..core.features import WindowConfig
from ..core.fingerprint import HierarchicalFingerprinter
from ..lte.dci import Direction
from ..ml.metrics import per_class_scores
from ..operators.profiles import LAB, OperatorProfile
from .common import Scale, format_table, get_scale

#: The three column groups of Table III.
DIRECTION_VIEWS = (("Down+UP", None),
                   ("Down", Direction.DOWNLINK),
                   ("UP", Direction.UPLINK))


@dataclass
class FingerprintResult:
    """Per-app scores for each direction view.

    The primary (first) view also keeps what a per-victim verdict needs
    — the ``app-fingerprint`` scan detector reads these fields.
    """

    operator: str
    scores: Dict[str, Dict[str, tuple]]   # view -> app -> (f, p, r)
    apps: List[str]
    #: Primary view: predicted app id of every held-out test window ...
    predictions: np.ndarray
    #: ... and the index of the test trace each window came from.
    trace_ids: np.ndarray
    app_classes: List[str]
    category_classes: List[str]
    app_of_category: np.ndarray
    #: Per test trace: user, cell, start_s, end_s, windows.
    test_meta: List[dict]

    def table(self) -> str:
        rows = []
        views = list(self.scores)
        headers = ["App"] + [f"{v} {m}" for v in views
                             for m in ("F", "P", "R")]
        for app in self.apps:
            row = [app]
            for view in views:
                f, p, r = self.scores[view][app]
                row.extend([f, p, r])
            rows.append(row)
        return format_table(headers, rows,
                            title=f"Table III — {self.operator} setting")

    def f_score(self, app: str, view: str = "Down+UP") -> float:
        return self.scores[view][app][0]

    def mean_f(self, view: str = "Down+UP") -> float:
        values = [self.scores[view][app][0] for app in self.apps]
        return sum(values) / len(values)


@obs.timed("experiment.table3.fingerprinting")
def run_fingerprinting(operator: OperatorProfile, scale: Scale,
                       views=DIRECTION_VIEWS, seed: int = 11,
                       day: int = 0) -> FingerprintResult:
    """Train/test the fingerprinting pipeline in one environment.

    Distinct capture campaigns (different seeds) supply train and test
    traces, mirroring the paper's repeated 10-minute captures.
    """
    apps = list(app_names())
    train = collect_traces(apps, operator=operator,
                           traces_per_app=scale.traces_per_app,
                           duration_s=scale.trace_duration_s, seed=seed,
                           day=day)
    test = collect_traces(apps, operator=operator,
                          traces_per_app=max(1, scale.traces_per_app // 2),
                          duration_s=scale.trace_duration_s,
                          seed=seed + 5000, day=day)
    scores: Dict[str, Dict[str, tuple]] = {}
    primary = None
    for view_name, direction in views:
        config = WindowConfig(direction=direction)
        w_train = windows_from_traces(train, config)
        w_test = windows_from_traces(
            test, config, app_encoder=w_train.app_encoder,
            category_encoder=w_train.category_encoder)
        model = HierarchicalFingerprinter(window_config=config,
                                          n_trees=scale.n_trees,
                                          seed=seed + 1)
        model.fit(w_train)
        predictions = model.predict_apps(w_test.X)
        per_class = per_class_scores(
            w_test.app_labels, predictions,
            n_classes=w_train.app_encoder.n_classes)
        scores[view_name] = {
            app: (per_class[i].f_score, per_class[i].precision,
                  per_class[i].recall)
            for i, app in enumerate(w_train.app_encoder.classes_)}
        if primary is None:
            primary = (w_train, w_test, predictions)
    w_train, w_test, predictions = primary
    test_meta = [{"user": trace.user or "victim",
                  "cell": trace.cell or "cell",
                  "start_s": float(trace.start_s) if len(trace) else 0.0,
                  "end_s": float(trace.end_s) if len(trace) else 0.0,
                  "windows": int(np.sum(w_test.trace_ids == index))}
                 for index, trace in enumerate(test)]
    # Order apps as the paper does (registry order).
    return FingerprintResult(
        operator=operator.name, scores=scores, apps=apps,
        predictions=predictions, trace_ids=w_test.trace_ids,
        app_classes=list(w_train.app_encoder.classes_),
        category_classes=list(w_train.category_encoder.classes_),
        app_of_category=w_train.app_of_category, test_meta=test_meta)


@obs.timed("experiment.table3")
def run(scale="fast", seed: int = 11,
        operator: Optional[OperatorProfile] = None,
        workers: Optional[int] = None) -> FingerprintResult:
    """Reproduce Table III (lab setting, all three direction views)."""
    with runtime.overrides(workers=workers):
        return run_fingerprinting(operator or LAB, get_scale(scale),
                                  seed=seed)
