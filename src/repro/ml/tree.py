"""CART decision tree (gini impurity), the base learner of the forest.

A vectorised implementation: at each node the candidate feature's
values are sorted once and the gini of every possible split position is
computed with cumulative class counts, so the exact best threshold is
found in O(n log n) per feature without Python-level loops over
samples.  Supports the randomisation hooks Random Forest needs
(``max_features`` subsampling per node).

The fit writes the tree straight into its node table
(:class:`repro.ml.tables.TreeTable`, preorder, root at 0), the only
form a fitted tree has.
"""

from __future__ import annotations

import random
from typing import Optional, Union

import numpy as np

from .base import Classifier, check_fit_inputs
from .tables import LEAF, ForestTable, TreeTable, predict_proba_sums


def _resolve_max_features(max_features: Union[str, int, None],
                          n_features: int) -> int:
    if max_features is None:
        return n_features
    if isinstance(max_features, bool):
        # bool is an int subclass; without this check True would
        # silently mean "one feature per split".
        raise ValueError(f"max_features must not be a bool: {max_features!r}")
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(max_features, int):
        if not 1 <= max_features <= n_features:
            raise ValueError(
                f"max_features out of [1, {n_features}]: {max_features}")
        return max_features
    raise ValueError(f"bad max_features: {max_features!r}")


class DecisionTree(Classifier):
    """A CART classifier.

    Args:
        max_depth: depth limit (``None`` = unlimited).
        min_samples_split: smallest node that may still be split.
        min_samples_leaf: smallest child a split may create.
        max_features: features examined per node (``None`` = all,
            ``"sqrt"``/``"log2"``/int supported) — the Random-Forest
            decorrelation knob.
        seed: RNG seed for feature subsampling.
    """

    def __init__(self, max_depth: Optional[int] = None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features: Union[str, int, None] = None,
                 seed: int = 0) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1: {max_depth}")
        if min_samples_split < 2:
            raise ValueError(
                f"min_samples_split must be >= 2: {min_samples_split}")
        if min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1: {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._table: Optional[TreeTable] = None
        self.n_classes_: int = 0
        self.n_features_: int = 0

    # -- training ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray,
            n_classes: Optional[int] = None) -> "DecisionTree":
        X, y = check_fit_inputs(X, y)
        self.n_classes_ = n_classes or int(y.max()) + 1
        self.n_features_ = X.shape[1]
        self._rng = random.Random(self.seed)
        self._max_features = _resolve_max_features(self.max_features,
                                                   self.n_features_)
        # The whole fit works on one global index array that gets
        # partitioned in place; children are (lo, hi) ranges of it, so
        # no node ever copies its slice of X / y.
        self._X = X
        self._y = y
        self._idx = np.arange(len(y), dtype=np.intp)
        self._scratch = np.empty(len(y), dtype=np.intp)
        # Node rows (feature, threshold, left, right, distribution),
        # appended in preorder by _build.
        self._rows = ([], [], [], [], [])
        self._build(0, len(y), depth=0)
        features, thresholds, left, right, distributions = self._rows
        self._table = TreeTable(
            features=np.array(features, dtype=np.int64),
            thresholds=np.array(thresholds, dtype=np.float64),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            leaf_proba=np.array(distributions, dtype=np.float64),
            n_features=self.n_features_)
        del self._X, self._y, self._idx, self._scratch, self._rows
        return self

    def _build(self, lo: int, hi: int, depth: int) -> int:
        """Append the subtree over ``_idx[lo:hi]``; return its root's row.

        The node's row goes in before its children's (preorder, left
        subtree first) and its child indices are patched once both
        subtrees are in.
        """
        idx = self._idx[lo:hi]
        n = hi - lo
        counts = np.bincount(self._y[idx],
                             minlength=self.n_classes_).astype(np.float64)
        features, thresholds, left, right, distributions = self._rows
        slot = len(features)
        features.append(LEAF)
        thresholds.append(0.0)
        left.append(0)
        right.append(0)
        distributions.append(counts / n)
        if (n < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or counts.max() == n):
            return slot
        split = self._best_split(idx, counts)
        if split is None:
            return slot
        feature, threshold = split
        mask = self._X[idx, feature] <= threshold
        n_left = int(np.count_nonzero(mask))
        # Stable in-place partition through the shared scratch buffer.
        scratch = self._scratch[lo:hi]
        scratch[:n_left] = idx[mask]
        scratch[n_left:] = idx[~mask]
        idx[:] = scratch
        features[slot] = feature
        thresholds[slot] = threshold
        left[slot] = self._build(lo, lo + n_left, depth + 1)
        right[slot] = self._build(lo + n_left, hi, depth + 1)
        return slot

    def _best_split(self, idx: np.ndarray, counts: np.ndarray):
        """Exact gini-optimal (feature, threshold) or ``None``.

        All candidate features are scored in one batch of axis-0 array
        operations.  Instead of per-class prefix-count matrices, each
        prefix's gini uses the sum of squared class counts maintained by
        the exact integer recurrence ``ssq += 2 * seen_c + 1`` when one
        element of class ``c`` crosses the split, which removes the
        ``n_classes`` factor from the inner work entirely:

            n * weighted_gini(i) = n - ssq_left(i) / size_left(i)
                                     - ssq_right(i) / size_right(i)

        so the best split simply maximises ``ssq_l / sl + ssq_r / sr``.
        """
        m = len(idx)
        features = list(range(self.n_features_))
        if self._max_features < self.n_features_:
            features = self._rng.sample(features, self._max_features)
        min_leaf = self.min_samples_leaf
        ssq_full = float(np.sum(counts * counts))
        parent_gini = 1.0 - ssq_full / (float(m) * m)

        # (m, f) value matrix of just the candidate columns, each column
        # sorted with the same stable order the record-at-a-time code used.
        cols = self._X[np.ix_(idx, np.asarray(features, dtype=np.intp))]
        order = np.argsort(cols, axis=0, kind="stable")
        values = np.take_along_axis(cols, order, axis=0)
        labels = self._y[idx][order]

        # Per column: how many earlier elements (in split order) share
        # each element's class.  Group equal labels with a stable sort,
        # rank inside each group, then scatter the ranks back.
        by_label = np.argsort(labels, axis=0, kind="stable")
        labels_sorted = np.take_along_axis(labels, by_label, axis=0)
        rows = np.arange(m, dtype=np.int64)[:, None]
        group_head = np.empty(labels_sorted.shape, dtype=bool)
        group_head[0] = True
        np.not_equal(labels_sorted[1:], labels_sorted[:-1],
                     out=group_head[1:])
        seen_sorted = rows - np.maximum.accumulate(
            np.where(group_head, rows, 0), axis=0)
        seen = np.empty_like(seen_sorted)
        np.put_along_axis(seen, by_label, seen_sorted, axis=0)

        # Exact integer sums of squared class counts for every prefix
        # (all intermediate values are integers, exact in int64).
        ssq_left = np.cumsum(2 * seen + 1, axis=0)
        class_total = counts[labels]
        ssq_right = ssq_full - np.cumsum(2 * (class_total - seen) - 1,
                                         axis=0)

        # Valid split positions: value changes and both children big
        # enough.  Position i means left = order[:i+1].
        sizes_left = np.arange(1.0, m)
        sizes_right = m - sizes_left
        score = (ssq_left[:-1] / sizes_left[:, None]
                 + ssq_right[:-1] / sizes_right[:, None])
        valid = values[:-1] < values[1:]
        valid &= ((sizes_left >= min_leaf)
                  & (sizes_right >= min_leaf))[:, None]
        score[~valid] = -np.inf
        positions = np.argmax(score, axis=0)
        top = score[positions, np.arange(len(features))]

        best_gain = 1e-12
        best: Optional[tuple] = None
        for j, feature in enumerate(features):
            if not np.isfinite(top[j]):
                continue
            gain = parent_gini - (m - top[j]) / m
            if gain > best_gain:
                best_gain = gain
                position = positions[j]
                column = values[:, j]
                threshold = (column[position] + column[position + 1]) / 2.0
                # Guard against float rounding collapsing the midpoint
                # onto the right value, which would empty a child.
                if threshold >= column[position + 1]:
                    threshold = column[position]
                best = (feature, float(threshold))
        return best

    # -- the node table --------------------------------------------------------------

    @classmethod
    def from_table(cls, table: TreeTable) -> "DecisionTree":
        """A fitted tree over an existing (validated) node table."""
        tree = cls()
        tree._table = table.validate()
        tree.n_classes_ = table.n_classes
        tree.n_features_ = table.n_features
        return tree

    def table(self) -> TreeTable:
        """The fitted tree's node table."""
        if self._table is None:
            raise RuntimeError("tree is not fitted")
        return self._table

    # -- inference -------------------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Leaf distribution per row, through a one-tree forest table.

        A one-tree sum is its single term, so this equals the tree's
        own leaf distributions bit for bit on either descent lane.
        """
        table = self.table()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"X must have shape (n, {self.n_features_}), got {X.shape}")
        return predict_proba_sums([ForestTable.from_trees([table])], X)[0]

    def depth(self) -> int:
        """Actual depth of the fitted tree (0 = a lone leaf).

        Walks the table level by level, so unlimited-depth trees cannot
        blow the recursion limit.
        """
        table = self.table()
        frontier = np.zeros(1, dtype=np.int64)
        level = 0
        while True:
            parents = frontier[table.features[frontier] >= 0]
            if not parents.size:
                return level
            frontier = np.concatenate([table.left[parents],
                                       table.right[parents]])
            level += 1

    def node_count(self) -> int:
        """Total number of nodes in the fitted tree."""
        return self.table().n_nodes
