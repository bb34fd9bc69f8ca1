"""Table VIII: benchmark of learning algorithms (LR / kNN / CNN / RF).

The paper compares four classifiers on a mixed real-world dataset
(apps from all three classes), reporting per-category accuracy and the
weighted average; RF wins (0.821), kNN second (0.735), LR third
(0.698), CNN last (0.677).  kNN's k is tuned by cross-validation over
k = 1..10 (the paper lands on k = 4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .. import obs, runtime
from ..apps import app_names
from ..core.dataset import collect_traces, windows_from_traces
from ..ml.crossval import train_test_split, tune_knn_k
from ..ml.forest import RandomForest
from ..ml.knn import KNearestNeighbors
from ..ml.logistic import LogisticRegression
from ..ml.metrics import weighted_accuracy
from ..ml.neural import ConvNet
from ..operators.profiles import TMOBILE, OperatorProfile
from .common import format_table, get_scale

#: Display order for categories, as in Table VIII.
CATEGORY_ORDER = ("streaming", "voip", "messaging")
CATEGORY_DISPLAY = {"streaming": "Streaming", "voip": "Calling",
                    "messaging": "Messenger"}


@dataclass
class AlgorithmResult:
    """Per-category and average accuracy per algorithm, plus timings."""

    per_category: Dict[str, Dict[str, float]]   # algo -> category -> acc
    averages: Dict[str, float]                  # algo -> mean accuracy
    fit_seconds: Dict[str, float]
    tuned_k: int
    k_curve: Dict[int, float]

    def table(self) -> str:
        algorithms = list(self.per_category)
        headers = ["Algorithm"] + [CATEGORY_DISPLAY[c]
                                   for c in CATEGORY_ORDER] + ["Average"]
        rows = []
        for algo in algorithms:
            row = [algo]
            for category in CATEGORY_ORDER:
                row.append(self.per_category[algo].get(category, 0.0))
            row.append(self.averages[algo])
            rows.append(row)
        table = format_table(headers, rows,
                             title="Table VIII — algorithm comparison "
                                   "(per-category accuracy)")
        return f"{table}\ntuned kNN k = {self.tuned_k}"

    def ranking(self) -> List[str]:
        """Algorithms sorted best-first by average accuracy."""
        return sorted(self.averages, key=self.averages.get, reverse=True)


@obs.timed("experiment.table8")
def run(scale="fast", seed: int = 67,
        operator: OperatorProfile = TMOBILE,
        cnn_epochs: int = 25,
        workers: Optional[int] = None) -> AlgorithmResult:
    """Reproduce Table VIII on one carrier's mixed dataset.

    Note: with ``workers`` set, the reported per-model fit times are
    wall-clock of the parallel fit, not CPU time.
    """
    resolved = get_scale(scale)
    with runtime.overrides(workers=workers):
        return _run(resolved, seed, operator, cnn_epochs)


def _run(resolved, seed: int, operator: OperatorProfile,
         cnn_epochs: int) -> AlgorithmResult:
    traces = collect_traces(list(app_names()), operator=operator,
                            traces_per_app=resolved.traces_per_app,
                            duration_s=resolved.trace_duration_s, seed=seed)
    windows = windows_from_traces(traces)
    X_train, X_test, y_train, y_test = train_test_split(
        windows.X, windows.app_labels, test_fraction=0.2, seed=seed)
    class_of = windows.app_of_category

    # kNN hyperparameter tuning, as §VIII-D describes.  Subsample the
    # tuning set so CV stays cheap on large window counts.
    tune_cap = min(len(X_train), 1500)
    rng = np.random.default_rng(seed)
    tune_idx = rng.choice(len(X_train), size=tune_cap, replace=False)
    tuned_k, k_curve = tune_knn_k(X_train[tune_idx], y_train[tune_idx],
                                  folds=3, seed=seed)

    models = {
        "LR": LogisticRegression(C=1.0, seed=seed),
        "kNN": KNearestNeighbors(k=tuned_k),
        "CNN": ConvNet(epochs=cnn_epochs, seed=seed),
        "RF": RandomForest(n_trees=resolved.n_trees, max_depth=14,
                           min_samples_leaf=2, seed=1),
    }
    per_category: Dict[str, Dict[str, float]] = {}
    averages: Dict[str, float] = {}
    fit_seconds: Dict[str, float] = {}
    category_names = windows.category_encoder.classes_
    for name, model in models.items():
        started = time.perf_counter()
        model.fit(X_train, y_train)
        fit_seconds[name] = time.perf_counter() - started
        predictions = model.predict(X_test)
        grouped = weighted_accuracy(y_test, predictions, class_of,
                                    n_groups=len(category_names))
        per_category[name] = {category_names[g]: acc
                              for g, acc in grouped.items()}
        averages[name] = float(np.mean(list(grouped.values())))
    return AlgorithmResult(per_category=per_category, averages=averages,
                           fit_seconds=fit_seconds, tuned_k=tuned_k,
                           k_curve=k_curve)
