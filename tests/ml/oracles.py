"""Reference predictors the inference plane is pinned against.

A fitted tree exists only as a node table; before the tables existed,
trees were pointer graphs and prediction walked them.  This module
rebuilds that pointer graph from a :class:`TreeTable` on the test side
and keeps its walk as the independent differential oracle: the golden
and property suites (and the speedup guard in
``benchmarks/bench_inference.py``) assert that both lanes of
:mod:`repro.ml.tables` are bit-identical to it.
:func:`pinned_lane` forces one lane by moving the module's lane bound,
:func:`pinned_pair_lane` does the same for the correlation attack's
pair scoring, and :func:`catalogue_windows` builds a labelled window
set to fit hierarchical fingerprinters on.
"""

import contextlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps import app_names, category_of
from repro.core import correlation
from repro.core.dataset import LabeledWindows
from repro.ml import tables
from repro.ml.base import LabelEncoder
from repro.ml.forest import RandomForest
from repro.ml.tables import TreeTable
from repro.ml.tree import DecisionTree


@dataclass
class Node:
    """One pointer-graph tree node; leaves carry a class distribution."""

    distribution: np.ndarray               # normalised class frequencies
    feature: int = -1                      # -1 marks a leaf
    threshold: float = 0.0
    left: Optional["Node"] = None
    right: Optional["Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def object_tree(table: TreeTable) -> Node:
    """The pointer graph of one node table; returns the root."""
    nodes = [Node(np.array(table.leaf_proba[slot]),
                  int(table.features[slot]), float(table.thresholds[slot]))
             for slot in range(table.n_nodes)]
    for slot, node in enumerate(nodes):
        if not node.is_leaf:
            node.left = nodes[int(table.left[slot])]
            node.right = nodes[int(table.right[slot])]
    return nodes[0]


def object_forest(forest: RandomForest) -> list:
    """The pointer-graph roots of every tree of a fitted forest."""
    table = forest.table()
    return [object_tree(table.tree(index)) for index in range(table.n_trees)]


def walk_proba(root: Node, X: np.ndarray, n_classes: int) -> np.ndarray:
    """Object-graph descent of one tree.

    Routes index groups down the pointer tree exactly as the pre-table
    implementation did.
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.empty((len(X), n_classes), dtype=np.float64)
    stack = [(root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        if node.is_leaf:
            out[idx] = node.distribution
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def walk_forest_proba(roots, X: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-tree object descent of prebuilt roots, summed in tree order."""
    X = np.asarray(X, dtype=np.float64)
    total = np.zeros((len(X), n_classes), dtype=np.float64)
    for root in roots:
        total += walk_proba(root, X, n_classes)
    return total / len(roots)


def tree_predict_proba(tree, X: np.ndarray) -> np.ndarray:
    """Object-graph descent of a fitted tree or a bare node table."""
    table = tree.table() if isinstance(tree, DecisionTree) else tree
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != table.n_features:
        raise ValueError(
            f"X must have shape (n, {table.n_features}), got {X.shape}")
    return walk_proba(object_tree(table), X, table.n_classes)


def forest_predict_proba(forest: RandomForest, X: np.ndarray) -> np.ndarray:
    """Per-tree object descent of a forest, summed in tree order."""
    return walk_forest_proba(object_forest(forest), X, forest.n_classes_)


#: Lane bounds that pin every batch to the scalar or the vector lane.
SCALAR = 1 << 30
VECTOR = -1


@contextlib.contextmanager
def pinned_lane(bound: int):
    """Run the body with ``repro.ml.tables.SCALAR_LANE_MAX = bound``."""
    shipped = tables.SCALAR_LANE_MAX
    tables.SCALAR_LANE_MAX = bound
    try:
        yield
    finally:
        tables.SCALAR_LANE_MAX = shipped


#: ``pinned_pair_lane`` bounds: every call scalar, every call batched.
PAIR_SCALAR = 1 << 30
PAIR_BATCH = 0


@contextlib.contextmanager
def pinned_pair_lane(bound: int):
    """Run the body with ``correlation.BATCH_MIN_COMPARISONS = bound``."""
    shipped = correlation.BATCH_MIN_COMPARISONS
    correlation.BATCH_MIN_COMPARISONS = bound
    try:
        yield
    finally:
        correlation.BATCH_MIN_COMPARISONS = shipped


def catalogue_windows(n: int, n_features: int, shift: float,
                      seed: int) -> LabeledWindows:
    """Random windows labelled with the real app catalogue.

    Features are standard normal noise plus ``shift`` × the app id, so
    ``shift=0`` gives label noise (trees grow to their depth cap).
    """
    rng = np.random.default_rng(seed)
    app_encoder = LabelEncoder().fit(list(app_names()))
    category_encoder = LabelEncoder().fit(
        [category_of(app).value for app in app_encoder.classes_])
    app_labels = rng.integers(0, app_encoder.n_classes, size=n)
    category_labels = category_encoder.transform(
        [category_of(app_encoder.classes_[app]).value
         for app in app_labels])
    X = rng.normal(size=(n, n_features)) + shift * app_labels[:, None]
    return LabeledWindows(X=X, app_labels=app_labels,
                          category_labels=category_labels,
                          trace_ids=np.arange(n) // 10,
                          app_encoder=app_encoder,
                          category_encoder=category_encoder)
