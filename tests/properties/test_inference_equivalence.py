"""Property: the vectorized inference plane equals its scalar ancestors.

Hypothesis drives randomized forests and DTW problems through both
implementations of each inference kernel and asserts **bit-identical**
outputs:

* random training sets (clustered and pure-noise label assignments,
  shallow and unlimited depth, single-class degenerations) through the
  flattened ``ForestTable`` gather descent vs the object-graph walk;
* random series pairs (mixed lengths, constant/zero series, series
  objects shared across pairs, any band width) through
  ``dtw_distance_batch`` vs the scalar recurrence, alone and permuted.

``derandomize=True`` pins the example stream to the test id so CI
failures replay locally without sharing a database.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ml.dtw import dtw_distance, dtw_distance_batch
from repro.ml.forest import RandomForest
from repro.ml.tree import DecisionTree
from tests.ml.oracles import forest_predict_proba

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)

_FOREST_CASE = st.tuples(
    st.integers(0, 2 ** 31 - 1),          # data seed
    st.integers(20, 120),                 # training rows
    st.integers(2, 6),                    # features
    st.integers(1, 4),                    # classes
    st.one_of(st.none(), st.integers(1, 10)),  # max_depth
    st.integers(1, 8),                    # trees
)

_DTW_CASE = st.tuples(
    st.integers(0, 2 ** 31 - 1),          # data seed
    st.integers(1, 8),                    # pairs in the batch
    st.one_of(st.none(), st.integers(0, 12)),  # window
    st.booleans(),                        # include degenerate series
)


class TestForestEquivalence:
    @given(case=_FOREST_CASE)
    @SETTINGS
    def test_table_descent_equals_object_walk(self, case):
        seed, rows, features, classes, max_depth, trees = case
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, features))
        y = rng.integers(0, classes, size=rows)
        forest = RandomForest(n_trees=trees, max_depth=max_depth,
                              seed=seed % 1000).fit(
            X, y, n_classes=classes)
        probe = rng.normal(size=(rng.integers(1, 300), features))
        assert np.array_equal(forest.predict_proba(probe),
                              forest_predict_proba(forest, probe))

    @given(case=_FOREST_CASE)
    @SETTINGS
    def test_tree_table_round_trip(self, case):
        seed, rows, features, classes, max_depth, _ = case
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, features))
        y = rng.integers(0, classes, size=rows)
        tree = DecisionTree(max_depth=max_depth).fit(
            X, y, n_classes=classes)
        clone = DecisionTree.from_table(tree.table())
        probe = rng.normal(size=(50, features))
        assert np.array_equal(tree.predict_proba(probe),
                              clone.predict_proba(probe))


class TestDtwEquivalence:
    @given(case=_DTW_CASE)
    @SETTINGS
    def test_batch_equals_scalar(self, case):
        seed, count, window, degenerate = case
        rng = np.random.default_rng(seed)
        pairs = []
        for slot in range(count):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(1, 40))
            a = rng.normal(size=n) * 5
            b = rng.normal(size=m) * 5
            if degenerate and slot % 3 == 0:
                a = np.zeros(n)           # constant / silent series
            if slot % 4 == 3:
                a = pairs[0][1]           # one object in several pairs
            pairs.append((a, b))
        batched = dtw_distance_batch(pairs, window=window)
        order = rng.permutation(count)
        assert np.array_equal(
            dtw_distance_batch([pairs[k] for k in order], window=window),
            batched[order])
        for slot, (a, b) in enumerate(pairs):
            assert batched[slot] == dtw_distance(a, b, window=window)
            assert batched[slot] == dtw_distance_batch([(a, b)],
                                                       window=window)[0]
