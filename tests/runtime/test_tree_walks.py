"""Iterative tree walks must survive trees deeper than the recursion limit."""

import sys

import numpy as np

from repro.ml.forest import RandomForest
from repro.ml.tables import LEAF, ForestTable, TreeTable
from repro.ml.tree import DecisionTree


def _deep_table(depth: int) -> TreeTable:
    """A node table that is one long left spine, in preorder.

    Spine node ``k`` sits at row ``k``; its left child is the next
    spine row and its right child a leaf at row ``2 * depth - k``.
    """
    count = 2 * depth + 1
    spine = np.arange(depth)
    features = np.full(count, LEAF, dtype=np.int64)
    features[spine] = 0
    left = np.zeros(count, dtype=np.int64)
    right = np.zeros(count, dtype=np.int64)
    left[spine] = spine + 1
    right[spine] = 2 * depth - spine
    return TreeTable(features=features, thresholds=np.zeros(count),
                     left=left, right=right,
                     leaf_proba=np.full((count, 2), 0.5), n_features=1)


def _deep_tree(depth: int) -> DecisionTree:
    """A fitted-looking tree that is one long left spine."""
    return DecisionTree.from_table(_deep_table(depth))


def test_depth_beyond_recursion_limit():
    depth = sys.getrecursionlimit() + 500
    assert _deep_tree(depth).depth() == depth


def test_node_count_beyond_recursion_limit():
    depth = sys.getrecursionlimit() + 500
    # A spine of `depth` internal nodes, each adding one right leaf,
    # plus the terminal left leaf.
    assert _deep_tree(depth).node_count() == 2 * depth + 1


def test_feature_importances_beyond_recursion_limit():
    depth = sys.getrecursionlimit() + 500
    forest = RandomForest.from_table(
        ForestTable.from_trees([_deep_table(depth)]))
    importances = forest.feature_importances()
    assert importances.shape == (1,)
    assert importances[0] == 1.0


def test_walks_agree_with_fitted_tree():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 5))
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
    tree = DecisionTree(max_depth=6, seed=1).fit(X, y)
    assert 1 <= tree.depth() <= 6
    # A binary tree with L leaves has 2L - 1 nodes.
    count = tree.node_count()
    assert count % 2 == 1 and count >= 3
