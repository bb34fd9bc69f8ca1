"""Golden equivalence: flattened node tables vs the object descent.

The fit writes each tree as a ``repro.ml.tables`` node table; these
tests pin the chain from there — ``DecisionTree.table`` / ``from_table``
round-trips, the padded ``ForestTable`` stack, and the gather descent —
**bit-identical** (``np.array_equal``, not ``allclose``) to the
pointer-chasing object walk the test-side oracle rebuilds from each
table (``tests/ml/oracles.py``) across depths, degenerate trees and
input dtypes.
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForest
from repro.ml.tables import ForestTable, TreeTable, predict_proba_sums
from repro.ml.tree import DecisionTree
from tests.ml.oracles import (SCALAR, VECTOR, forest_predict_proba,
                              pinned_lane, tree_predict_proba)


def blobs(n_per_class=50, k=3, d=5, spread=0.9, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(2.5 * klass, spread, (n_per_class, d))
                   for klass in range(k)])
    y = np.repeat(np.arange(k), n_per_class)
    order = rng.permutation(len(X))
    return X[order], y[order]


def noisy(n=400, d=6, k=4, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    return X, y


class TestTreeTableRoundTrip:
    @pytest.mark.parametrize("max_depth", [1, 3, 8, None])
    def test_round_trip_bit_identical(self, max_depth):
        X, y = noisy()
        tree = DecisionTree(max_depth=max_depth).fit(X, y)
        clone = DecisionTree.from_table(tree.table())
        probe = np.random.default_rng(7).normal(size=(200, X.shape[1]))
        assert np.array_equal(tree.predict_proba(probe),
                              clone.predict_proba(probe))

    def test_single_leaf_tree(self):
        X = np.zeros((10, 2))
        y = np.zeros(10, dtype=np.int64)
        tree = DecisionTree().fit(X, y)
        table = tree.table()
        assert table.n_nodes == 1
        assert table.features[0] < 0
        clone = DecisionTree.from_table(table)
        assert np.array_equal(tree.predict_proba(X),
                              clone.predict_proba(X))

    def test_table_matches_object_walk(self):
        X, y = blobs()
        tree = DecisionTree(max_depth=6).fit(X, y)
        probe = np.random.default_rng(1).normal(size=(150, X.shape[1]))
        assert np.array_equal(tree.predict_proba(probe),
                              tree_predict_proba(tree, probe))

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            DecisionTree().table()

    def test_validate_rejects_bad_children(self):
        table = TreeTable(
            features=np.array([0, -1, -1]),
            thresholds=np.zeros(3),
            left=np.array([1, 0, 0]),
            right=np.array([9, 0, 0]),   # out of range
            leaf_proba=np.ones((3, 2)) / 2,
            n_features=1)
        with pytest.raises(ValueError, match="child index"):
            table.validate()

    def test_validate_rejects_bad_feature(self):
        table = TreeTable(
            features=np.array([5, -1, -1]),  # only 1 feature exists
            thresholds=np.zeros(3),
            left=np.array([1, 0, 0]),
            right=np.array([2, 0, 0]),
            leaf_proba=np.ones((3, 2)) / 2,
            n_features=1)
        with pytest.raises(ValueError, match="feature index"):
            table.validate()

    def test_validate_rejects_empty(self):
        table = TreeTable(features=np.empty(0, dtype=np.int64),
                          thresholds=np.empty(0), left=np.empty(0),
                          right=np.empty(0), leaf_proba=np.empty((0, 2)),
                          n_features=1)
        with pytest.raises(ValueError, match="empty"):
            table.validate()


class TestForestTable:
    @pytest.mark.parametrize("max_depth", [1, 4, None])
    def test_descent_bit_identical_to_object_path(self, max_depth):
        X, y = noisy(n=500)
        forest = RandomForest(n_trees=12, max_depth=max_depth,
                              seed=5).fit(X, y)
        probe = np.random.default_rng(9).normal(size=(333, X.shape[1]))
        assert np.array_equal(forest.predict_proba(probe),
                              forest_predict_proba(forest, probe))

    def test_descent_covers_chunk_remainders(self):
        # Probe sizes straddling the DESCEND_CHUNK boundary exercise
        # the partial-chunk path.
        from repro.ml.tables import DESCEND_CHUNK
        X, y = blobs()
        forest = RandomForest(n_trees=5, max_depth=6, seed=2).fit(X, y)
        for rows in (1, DESCEND_CHUNK - 1, DESCEND_CHUNK,
                     DESCEND_CHUNK + 1):
            probe = np.random.default_rng(rows).normal(
                size=(rows, X.shape[1]))
            assert np.array_equal(forest.predict_proba(probe),
                                  forest_predict_proba(forest, probe))

    def test_empty_probe(self):
        X, y = blobs()
        forest = RandomForest(n_trees=3, max_depth=4, seed=2).fit(X, y)
        out = forest.predict_proba(np.empty((0, X.shape[1])))
        assert out.shape == (0, forest.n_classes_)

    def test_non_contiguous_and_float32_probe(self):
        X, y = blobs()
        forest = RandomForest(n_trees=6, max_depth=6, seed=4).fit(X, y)
        rng = np.random.default_rng(13)
        wide = rng.normal(size=(120, 2 * X.shape[1]))
        strided = wide[:, ::2]               # non-contiguous view
        assert not strided.flags["C_CONTIGUOUS"]
        assert np.array_equal(forest.predict_proba(strided),
                              forest_predict_proba(forest, strided))
        f32 = rng.normal(size=(80, X.shape[1])).astype(np.float32)
        assert np.array_equal(forest.predict_proba(f32),
                              forest_predict_proba(forest, f32))

    def test_stack_pads_to_widest_tree(self):
        X, y = blobs()
        deep = DecisionTree(max_depth=8).fit(X, y).table()
        stump = DecisionTree(max_depth=1).fit(X, y).table()
        stack = ForestTable.from_trees([deep, stump])
        assert stack.features.shape[1] == max(deep.n_nodes, stump.n_nodes)
        assert np.array_equal(stack.tree(0).features, deep.features)
        assert np.array_equal(stack.tree(1).features, stump.features)

    def test_all_leaf_forest(self):
        X = np.zeros((8, 3))
        y = np.zeros(8, dtype=np.int64)
        forest = RandomForest(n_trees=4, seed=1).fit(X, y)
        probe = np.random.default_rng(2).normal(size=(17, 3))
        assert np.array_equal(forest.predict_proba(probe),
                              forest_predict_proba(forest, probe))

    def test_sum_matches_sequential_tree_order(self):
        # The reduction must accumulate in tree order: the low bits of
        # the result depend on IEEE addition order.
        X, y = noisy(n=300)
        forest = RandomForest(n_trees=9, max_depth=None, seed=8).fit(X, y)
        probe = np.random.default_rng(4).normal(size=(100, X.shape[1]))
        table = forest.table()
        total = np.zeros((len(probe), table.n_classes))
        for index in range(table.n_trees):
            total += tree_predict_proba(table.tree(index), probe)
        for bound in (SCALAR, VECTOR):
            with pinned_lane(bound):
                assert np.array_equal(
                    predict_proba_sums([table], probe)[0], total)

    def test_split_counts_match_object_trees(self):
        X, y = blobs()
        forest = RandomForest(n_trees=7, max_depth=5, seed=3).fit(X, y)
        table = forest.table()
        by_tree = sum(table.tree(index).split_counts()
                      for index in range(table.n_trees))
        assert np.array_equal(forest.table().split_counts(), by_tree)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="empty forest"):
            ForestTable.from_trees([])

    def test_mismatched_trees_rejected(self):
        X, y = blobs()
        a = DecisionTree(max_depth=2).fit(X, y).table()
        b = DecisionTree(max_depth=2).fit(X[:, :3], y).table()
        with pytest.raises(ValueError, match="n_features"):
            ForestTable.from_trees([a, b])

    def test_validate_rejects_node_count_out_of_range(self):
        X, y = blobs()
        table = RandomForest(n_trees=3, max_depth=3,
                             seed=1).fit(X, y).table()
        bad = ForestTable(features=table.features,
                          thresholds=table.thresholds, left=table.left,
                          right=table.right, leaf_proba=table.leaf_proba,
                          n_nodes=table.n_nodes + 10_000,
                          n_features=table.n_features)
        with pytest.raises(ValueError, match="node count"):
            bad.validate()

    def test_feature_importances_use_table(self):
        X, y = blobs()
        forest = RandomForest(n_trees=5, max_depth=5, seed=6).fit(X, y)
        importances = forest.feature_importances()
        assert importances.shape == (X.shape[1],)
        assert np.isclose(importances.sum(), 1.0)


class TestPickledForest:
    """Derived caches never ride along in pickles (e.g. to pool workers)."""

    def test_predict_leaves_pickled_bytes_unchanged(self):
        import pickle

        X, y = noisy(n=300)
        forest = RandomForest(n_trees=8, seed=1).fit(X, y)
        before = pickle.dumps(forest)
        forest.predict_proba(X[:3])        # scalar lane
        forest.predict_proba(X)            # vector lane
        assert pickle.dumps(forest) == before

    def test_table_forest_keeps_its_table(self):
        import pickle

        X, y = noisy(n=300)
        fitted = RandomForest(n_trees=8, seed=1).fit(X, y)
        forest = RandomForest.from_table(fitted.table())
        before = pickle.dumps(forest)
        expected = forest.predict_proba(X)
        forest.predict_proba(X[:3])
        assert pickle.dumps(forest) == before
        clone = pickle.loads(before)
        assert clone._table is not None
        assert np.array_equal(clone.predict_proba(X), expected)
