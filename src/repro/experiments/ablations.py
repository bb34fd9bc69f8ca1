"""Ablations of the design choices DESIGN.md calls out.

* hierarchical (category → app) vs. flat 9-way classification;
* Random-Forest size (trees) vs. accuracy and training time;
* feature-subsampling strategy (``max_features``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import obs, runtime
from ..apps import app_names
from ..core.dataset import collect_traces, windows_from_traces
from ..core.fingerprint import HierarchicalFingerprinter
from ..ml.crossval import train_test_split
from ..ml.forest import RandomForest
from ..ml.metrics import accuracy, macro_f_score
from ..operators.profiles import LAB, OperatorProfile
from .common import format_table, get_scale


@dataclass
class HierarchyAblation:
    """Hierarchical vs flat classification."""

    hierarchical_f: float
    flat_f: float

    def table(self) -> str:
        rows = [["hierarchical (category->app)", self.hierarchical_f],
                ["flat 9-way", self.flat_f]]
        return format_table(["Pipeline", "Macro F"], rows,
                            title="Ablation — hierarchical vs flat")


@obs.timed("experiment.ablation.hierarchy")
def run_hierarchy(scale="fast", seed: int = 113,
                  operator: OperatorProfile = LAB,
                  workers: Optional[int] = None) -> HierarchyAblation:
    """Compare the paper's hierarchical pipeline against a flat one."""
    resolved = get_scale(scale)
    with runtime.overrides(workers=workers):
        return _run_hierarchy(resolved, seed, operator)


def _run_hierarchy(resolved, seed: int,
                   operator: OperatorProfile) -> HierarchyAblation:
    train = collect_traces(list(app_names()), operator=operator,
                           traces_per_app=resolved.traces_per_app,
                           duration_s=resolved.trace_duration_s, seed=seed)
    test = collect_traces(list(app_names()), operator=operator,
                          traces_per_app=max(1, resolved.traces_per_app // 2),
                          duration_s=resolved.trace_duration_s,
                          seed=seed + 4000)
    w_train = windows_from_traces(train)
    w_test = windows_from_traces(test, app_encoder=w_train.app_encoder,
                                 category_encoder=w_train.category_encoder)
    results = {}
    for hierarchical in (True, False):
        model = HierarchicalFingerprinter(n_trees=resolved.n_trees,
                                          seed=seed + 1,
                                          hierarchical=hierarchical)
        model.fit(w_train)
        predictions = model.predict_apps(w_test.X)
        results[hierarchical] = macro_f_score(
            w_test.app_labels, predictions,
            n_classes=w_train.app_encoder.n_classes)
    return HierarchyAblation(hierarchical_f=results[True],
                             flat_f=results[False])


@dataclass
class ForestAblation:
    """Accuracy / training-time tradeoff of forest size and features."""

    tree_curve: List[Tuple[int, float, float]]   # (trees, acc, seconds)
    feature_modes: Dict[str, float]              # max_features -> accuracy

    def table(self) -> str:
        # Fit seconds stay out of the table, so it renders the same on
        # every host.
        rows = [[trees, acc] for trees, acc, _ in self.tree_curve]
        trees = format_table(["Trees", "Accuracy"], rows,
                             title="Ablation — forest size")
        rows = [[mode, acc] for mode, acc in self.feature_modes.items()]
        feats = format_table(["max_features", "Accuracy"], rows,
                             title="Ablation — feature subsampling")
        return f"{trees}\n\n{feats}"


@obs.timed("experiment.ablation.forest")
def run_forest(scale="fast", seed: int = 127,
               operator: OperatorProfile = LAB,
               tree_counts: Tuple[int, ...] = (5, 10, 20, 40, 80),
               workers: Optional[int] = None) -> ForestAblation:
    """Sweep forest size and max_features on one dataset.

    Note: with ``workers`` set, the tree-curve fit times are wall-clock
    of the parallel fit, not CPU time.
    """
    resolved = get_scale(scale)
    with runtime.overrides(workers=workers):
        return _run_forest(resolved, seed, operator, tree_counts)


def _run_forest(resolved, seed: int, operator: OperatorProfile,
                tree_counts: Tuple[int, ...]) -> ForestAblation:
    traces = collect_traces(list(app_names()), operator=operator,
                            traces_per_app=resolved.traces_per_app,
                            duration_s=resolved.trace_duration_s, seed=seed)
    windows = windows_from_traces(traces)
    X_train, X_test, y_train, y_test = train_test_split(
        windows.X, windows.app_labels, seed=seed)
    tree_curve = []
    for n_trees in tree_counts:
        model = RandomForest(n_trees=n_trees, max_depth=14,
                             min_samples_leaf=2, seed=1)
        started = time.perf_counter()
        model.fit(X_train, y_train)
        seconds = time.perf_counter() - started
        tree_curve.append((n_trees,
                           accuracy(y_test, model.predict(X_test)),
                           seconds))
    feature_modes = {}
    for mode in ("sqrt", "log2", None):
        model = RandomForest(n_trees=resolved.n_trees, max_depth=14,
                             min_samples_leaf=2, max_features=mode, seed=1)
        model.fit(X_train, y_train)
        feature_modes[str(mode)] = accuracy(y_test, model.predict(X_test))
    return ForestAblation(tree_curve=tree_curve,
                          feature_modes=feature_modes)
