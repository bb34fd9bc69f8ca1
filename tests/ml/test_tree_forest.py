"""Tests for the CART tree and Random Forest."""

import numpy as np
import pytest

from repro.ml.base import LabelEncoder, check_fit_inputs
from repro.ml.forest import RandomForest
from repro.ml.metrics import accuracy
from repro.ml.tree import DecisionTree


def blobs(n_per_class=60, k=3, d=4, spread=0.6, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(3.0 * klass, spread, (n_per_class, d))
                   for klass in range(k)])
    y = np.repeat(np.arange(k), n_per_class)
    order = rng.permutation(len(X))
    return X[order], y[order]


class TestCheckFitInputs:
    def test_valid_passes(self):
        X, y = check_fit_inputs(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert X.dtype == np.float64
        assert y.dtype == np.int64

    def test_rejects_1d_x(self):
        with pytest.raises(ValueError):
            check_fit_inputs(np.zeros(3), np.array([0, 1, 0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            check_fit_inputs(np.zeros((3, 2)), np.array([0, 1]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_fit_inputs(np.zeros((0, 2)), np.array([], dtype=int))

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError):
            check_fit_inputs(np.zeros((2, 2)), np.array([0.0, 1.0]))

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            check_fit_inputs(np.zeros((2, 2)), np.array([0, -1]))


class TestLabelEncoder:
    def test_round_trip(self):
        encoder = LabelEncoder()
        labels = ["b", "a", "b", "c"]
        encoded = encoder.fit_transform(labels)
        assert encoder.classes_ == ["a", "b", "c"]
        assert encoder.inverse_transform(encoded) == labels

    def test_unseen_label_rejected(self):
        encoder = LabelEncoder().fit(["a", "b"])
        with pytest.raises(ValueError):
            encoder.transform(["z"])

    def test_n_classes(self):
        assert LabelEncoder().fit(["x", "y", "x"]).n_classes == 2


class TestDecisionTree:
    def test_learns_separable_blobs(self):
        X, y = blobs()
        tree = DecisionTree(max_depth=8).fit(X, y)
        assert accuracy(y, tree.predict(X)) > 0.95

    def test_single_class_becomes_leaf(self):
        X = np.random.default_rng(0).normal(0, 1, (20, 3))
        tree = DecisionTree().fit(X, np.zeros(20, dtype=np.int64))
        assert tree.depth() == 0
        assert tree.node_count() == 1

    def test_max_depth_respected(self):
        X, y = blobs(spread=3.0)     # overlapping: deep tree tempting
        tree = DecisionTree(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_min_samples_leaf_respected(self):
        X, y = blobs(n_per_class=30, spread=3.0)
        tree = DecisionTree(min_samples_leaf=10).fit(X, y)

        table = tree.table()

        def leaf_sizes(node, X_node):
            feature = table.features[node]
            if feature < 0:
                return [len(X_node)]
            mask = X_node[:, feature] <= table.thresholds[node]
            return (leaf_sizes(table.left[node], X_node[mask])
                    + leaf_sizes(table.right[node], X_node[~mask]))

        assert min(leaf_sizes(0, X)) >= 10

    def test_deterministic_given_seed(self):
        X, y = blobs(spread=2.0)
        a = DecisionTree(max_features="sqrt", seed=5).fit(X, y)
        b = DecisionTree(max_features="sqrt", seed=5).fit(X, y)
        assert (a.predict(X) == b.predict(X)).all()

    def test_proba_rows_sum_to_one(self):
        X, y = blobs()
        proba = DecisionTree(max_depth=4).fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            DecisionTree().predict(np.zeros((1, 2)))

    def test_predict_wrong_width_rejected(self):
        X, y = blobs(d=4)
        tree = DecisionTree().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((1, 3)))

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            DecisionTree(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTree(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTree(min_samples_leaf=0)
        with pytest.raises(ValueError):
            DecisionTree(max_features=99).fit(*blobs(d=4))
        with pytest.raises(ValueError):
            DecisionTree(max_features="cube").fit(*blobs(d=4))

    def test_max_features_bool_rejected(self):
        # bool is an int subclass: True must not silently mean 1.
        for flag in (True, False):
            with pytest.raises(ValueError, match="bool"):
                DecisionTree(max_features=flag).fit(*blobs(d=4))

    def test_exact_split_on_crafted_data(self):
        """One feature perfectly splits at 0.5 — the tree must find it."""
        X = np.array([[0.0, 7.0], [0.2, 3.0], [0.9, 5.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTree(max_depth=1).fit(X, y)
        table = tree.table()
        assert table.features[0] == 0
        assert 0.2 < table.thresholds[0] < 0.9
        assert accuracy(y, tree.predict(X)) == 1.0

    def test_constant_features_yield_leaf(self):
        X = np.ones((10, 3))
        y = np.array([0, 1] * 5)
        tree = DecisionTree().fit(X, y)
        assert tree.depth() == 0


class TestRandomForest:
    def test_learns_blobs(self):
        X, y = blobs(spread=1.0)
        forest = RandomForest(n_trees=15, seed=1).fit(X, y)
        assert accuracy(y, forest.predict(X)) > 0.95

    def test_proba_normalised(self):
        X, y = blobs()
        proba = RandomForest(n_trees=5, seed=1).fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_deterministic_given_seed(self):
        X, y = blobs(spread=2.0)
        a = RandomForest(n_trees=10, seed=2).fit(X, y).predict(X)
        b = RandomForest(n_trees=10, seed=2).fit(X, y).predict(X)
        assert (a == b).all()

    def test_seed_changes_model(self):
        X, y = blobs(spread=3.5, seed=3)
        a = RandomForest(n_trees=3, seed=2).fit(X, y).predict_proba(X)
        b = RandomForest(n_trees=3, seed=9).fit(X, y).predict_proba(X)
        assert not np.allclose(a, b)

    def test_forest_beats_stump_on_noisy_data(self):
        X, y = blobs(n_per_class=100, spread=2.5, seed=7)
        X_test, y_test = blobs(n_per_class=50, spread=2.5, seed=8)
        stump = DecisionTree(max_depth=2).fit(X, y)
        forest = RandomForest(n_trees=40, max_depth=8, seed=1).fit(X, y)
        assert (accuracy(y_test, forest.predict(X_test))
                >= accuracy(y_test, stump.predict(X_test)))

    def test_feature_importances_sum_to_one(self):
        X, y = blobs()
        forest = RandomForest(n_trees=10, seed=1).fit(X, y)
        importances = forest.feature_importances()
        assert importances.shape == (X.shape[1],)
        assert importances.sum() == pytest.approx(1.0)

    def test_n_classes_override_widens_proba(self):
        X, y = blobs(k=2)
        forest = RandomForest(n_trees=3, seed=1).fit(X, y, n_classes=5)
        assert forest.predict_proba(X).shape == (len(X), 5)

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            RandomForest().predict(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            RandomForest().feature_importances()

    def test_invalid_tree_count(self):
        with pytest.raises(ValueError):
            RandomForest(n_trees=0)
