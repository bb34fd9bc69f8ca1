"""Random Forest — the paper's classifier of choice (§VI, Table VIII).

Breiman-style: each tree is trained on a bootstrap resample with
per-node feature subsampling (``max_features="sqrt"``), and prediction
averages the trees' leaf distributions (soft voting).  The paper's
Weka configuration — 100 trees, seed 1 — is the default.

A fitted forest *is* its :class:`repro.ml.tables.ForestTable`: each
tree's fit writes a node table, and the forest stacks them once at the
end of :meth:`RandomForest.fit`.
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs, runtime
from .base import Classifier, check_fit_inputs
from .tables import ForestTable, TreeTable, predict_proba_sums
from .tree import DecisionTree


def _fit_one_tree(task: Tuple[np.ndarray, int], *, X: np.ndarray,
                  y: np.ndarray, n_classes: int, max_depth: Optional[int],
                  min_samples_leaf: int,
                  max_features: Union[str, int, None]) -> TreeTable:
    """ParallelMap work function: fit one tree on pre-derived randomness.

    Returns the tree's node table, so pool workers pickle arrays back.
    """
    indices, tree_seed = task
    tree = DecisionTree(max_depth=max_depth, min_samples_split=2,
                        min_samples_leaf=min_samples_leaf,
                        max_features=max_features, seed=tree_seed)
    return tree.fit(X[indices], y[indices], n_classes=n_classes).table()


class RandomForest(Classifier):
    """An ensemble of decorrelated CART trees.

    Args:
        n_trees: ensemble size (paper: 100).
        max_depth: per-tree depth limit.
        min_samples_leaf: per-tree leaf size floor.
        max_features: per-node feature subsampling (default ``"sqrt"``).
        seed: master seed (paper: 1); trees get derived seeds.
        workers: fan tree fitting out over this many processes
            (``None`` = the runtime default).  Any worker count produces
            the same forest: all bootstrap indices and tree seeds are
            drawn from the master streams *before* the fan-out, in the
            exact order the serial loop would draw them.
    """

    def __init__(self, n_trees: int = 100, max_depth: Optional[int] = None,
                 min_samples_leaf: int = 1,
                 max_features: Union[str, int, None] = "sqrt",
                 seed: int = 1, workers: Optional[int] = None) -> None:
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1: {n_trees}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.workers = workers
        self._table: Optional[ForestTable] = None
        self.n_classes_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray,
            n_classes: Optional[int] = None) -> "RandomForest":
        with obs.span("forest.fit"):
            X, y = check_fit_inputs(X, y)
            self.n_classes_ = n_classes or int(y.max()) + 1
            rng = random.Random(self.seed)
            master = np.random.default_rng(self.seed)
            n = len(X)
            tasks: List[Tuple[np.ndarray, int]] = []
            for _ in range(self.n_trees):
                indices = master.integers(0, n, size=n)
                tasks.append((indices, rng.getrandbits(32)))
            work = functools.partial(
                _fit_one_tree, X=X, y=y, n_classes=self.n_classes_,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features)
            self._table = ForestTable.from_trees(
                runtime.mapper(self.workers).map(work, tasks))
            obs.counter("ml.forest.trees_fit").inc(self.n_trees)
        return self

    # -- the stacked node table -------------------------------------------------------

    def table(self) -> ForestTable:
        """All member trees as one padded node-table stack."""
        if self._table is None:
            raise RuntimeError("forest is not fitted")
        return self._table

    @classmethod
    def from_table(cls, table: ForestTable, seed: int = 1) -> "RandomForest":
        """A prediction-ready forest over an existing node-table stack."""
        forest = cls(n_trees=table.n_trees, seed=seed)
        forest.n_classes_ = table.n_classes
        forest._table = table
        return forest

    # -- inference -------------------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return predict_proba_joint([self], X)[0]

    def feature_importances(self) -> np.ndarray:
        """Crude importance: how often each feature is used for a split.

        A bincount over every tree's split-feature column.
        """
        counts = self.table().split_counts()
        total = counts.sum()
        return counts / total if total else counts


def predict_proba_joint(forests: Sequence[RandomForest],
                        X: np.ndarray) -> List[np.ndarray]:
    """``[forest.predict_proba(X) for forest in forests]``, bit for bit,
    with one scalar-lane pass over all their trees for small batches.
    """
    X = np.asarray(X, dtype=np.float64)
    tables = []
    for forest in forests:
        table = forest.table()
        if X.ndim != 2 or X.shape[1] != table.n_features:
            raise ValueError(
                f"X must have shape (n, {table.n_features}), got {X.shape}")
        tables.append(table)
    return [total / forest.n_trees for forest, total
            in zip(forests, predict_proba_sums(tables, X))]
