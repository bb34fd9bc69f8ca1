"""Reference predictors the inference plane is pinned against.

The object ``_Node`` graph is the fit-side form of a tree; before the
flattened node tables existed, prediction walked it.  These walks stay
here as differential oracles: the golden and property suites (and the
speedup guard in ``benchmarks/bench_inference.py``) assert that both
lanes of :mod:`repro.ml.tables` are bit-identical to them.
:func:`pinned_lane` forces one lane by moving the module's lane bound,
:func:`pinned_pair_lane` does the same for the correlation attack's
pair scoring, and :func:`catalogue_windows` builds a labelled window
set to fit hierarchical fingerprinters on.
"""

import contextlib

import numpy as np

from repro.apps import app_names, category_of
from repro.core import correlation
from repro.core.dataset import LabeledWindows
from repro.ml import tables
from repro.ml.base import LabelEncoder
from repro.ml.forest import RandomForest
from repro.ml.tree import DecisionTree


def tree_predict_proba(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Object-graph descent of one fitted tree.

    Routes index groups down the pointer tree exactly as the pre-table
    implementation did.
    """
    if tree._root is None:
        raise RuntimeError("tree is not fitted")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.n_features_:
        raise ValueError(
            f"X must have shape (n, {tree.n_features_}), got {X.shape}")
    out = np.empty((len(X), tree.n_classes_), dtype=np.float64)
    stack = [(tree._root, np.arange(len(X)))]
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


def forest_predict_proba(forest: RandomForest, X: np.ndarray) -> np.ndarray:
    """Per-tree object descent of a forest, summed in tree order.

    A forest loaded from a node table walks object trees rebuilt from
    it; the forest itself is left as it was.
    """
    trees = forest.trees_
    if not trees:
        table = forest.table()
        trees = [DecisionTree.from_table(table.tree(index))
                 for index in range(table.n_trees)]
    X = np.asarray(X, dtype=np.float64)
    total = np.zeros((len(X), forest.n_classes_), dtype=np.float64)
    for tree in trees:
        total += tree_predict_proba(tree, X)
    return total / forest.n_trees


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
