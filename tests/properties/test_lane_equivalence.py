"""Property: the scalar and vector forest lanes give the same bits.

``repro.ml.tables`` descends a batch of at most ``SCALAR_LANE_MAX`` rows
on the scalar lane (Python walks over cached preorder lists) and larger
batches on the vector lane (the level-synchronous gather descent).
These suites pin every lane to the other and to the object-walk oracle
(``tests/ml/oracles.py``), **bit for bit** (``tobytes`` equality, so
signed zeros count):

* every batch size from 1 to ``2 * SCALAR_LANE_MAX + 1`` rows;
* single-class forests of lone-leaf trees, where ``np.sum`` would
  switch to pairwise summation and change the low bits;
* float32 and strided probes;
* models round-tripped through JSON;
* ``HierarchicalFingerprinter.predict_apps`` against the
  four-``predict_proba`` soft-routing composition written out below.

Each lane is forced by moving the module's lane bound
(``pinned_lane``), the way the simulator's golden suite pins the
eNodeB lanes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fingerprint import (HierarchicalFingerprinter,
                                    load_fingerprinter, save_fingerprinter)
from repro.ml import tables
from repro.ml.forest import RandomForest
from repro.ml.persistence import forest_from_dict, forest_to_dict
from repro.ml.tables import ForestTable, TreeTable, descend_scalar
from repro.ml.tree import DecisionTree
from tests.ml.oracles import (SCALAR, VECTOR, catalogue_windows,
                              forest_predict_proba, pinned_lane)

SETTINGS = settings(derandomize=True, max_examples=20, deadline=None)

#: The shipped lane bound; batch sizes straddle it on both sides.
K = tables.SCALAR_LANE_MAX
BATCH_SIZES = range(1, 2 * K + 2)

_FOREST_CASE = st.tuples(
    st.integers(0, 2 ** 31 - 1),          # data seed
    st.integers(20, 120),                 # training rows
    st.integers(1, 6),                    # features
    st.integers(1, 4),                    # classes
    st.one_of(st.none(), st.integers(1, 10)),  # max_depth
    st.integers(1, 8),                    # trees
)


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_lanes_match(forest, probe, expected):
    """Both lanes' ``predict_proba`` and leaf ids on ``probe``."""
    with pinned_lane(SCALAR):
        assert_same_bits(forest.predict_proba(probe), expected)
    with pinned_lane(VECTOR):
        assert_same_bits(forest.predict_proba(probe), expected)
    table = forest.table()
    dense = np.asarray(probe, dtype=np.float64)
    assert np.array_equal(descend_scalar([table], dense),
                          table.descend(dense))


def sequential_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def fit_case(case):
    seed, rows, features, classes, max_depth, trees = case
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, features))
    y = rng.integers(0, classes, size=rows)
    forest = RandomForest(n_trees=trees, max_depth=max_depth,
                          seed=seed % 1000).fit(X, y, n_classes=classes)
    return forest, rng


def on_thresholds(table, rng, rows):
    """Probe rows whose even rows sit exactly on split thresholds.

    There ``x <= threshold`` and ``x < threshold`` route differently, so
    a lane that compared the other way would show.
    """
    probe = rng.normal(size=(rows, table.n_features))
    internal = table.features >= 0
    for feature in range(table.n_features):
        used = table.thresholds[internal & (table.features == feature)]
        if used.size:
            probe[::2, feature] = rng.choice(used, size=len(probe[::2]))
    return probe


class TestForestLanes:
    @given(case=_FOREST_CASE)
    @SETTINGS
    def test_every_batch_size_matches_oracle(self, case):
        forest, rng = fit_case(case)
        for rows in BATCH_SIZES:
            probe = on_thresholds(forest.table(), rng, rows)
            assert_lanes_match(forest, probe,
                               forest_predict_proba(forest, probe))

    @given(case=_FOREST_CASE)
    @SETTINGS
    def test_float32_and_strided_probes(self, case):
        forest, rng = fit_case(case)
        n_features = forest.table().n_features
        for rows in (1, K, K + 1, 2 * K + 1):
            strided = rng.normal(size=(rows, 2 * n_features))[:, ::2]
            assert_lanes_match(forest, strided,
                               forest_predict_proba(forest, strided))
            f32 = rng.normal(size=(rows, n_features)).astype(np.float32)
            assert_lanes_match(forest, f32,
                               forest_predict_proba(forest, f32))

    def test_empty_probe(self):
        forest, _ = fit_case((3, 40, 3, 2, None, 4))
        for bound in (SCALAR, VECTOR):
            with pinned_lane(bound):
                out = forest.predict_proba(np.empty((0, 3)))
            assert out.shape == (0, 2)

    @pytest.mark.parametrize("n_trees", [1, 9, 37])
    def test_single_class_lone_leaves_sum_in_tree_order(self, n_trees):
        # One class and lone-leaf trees: at one row every axis but the
        # tree axis has length 1, where np.sum switches to pairwise
        # summation.  The leaf values are drawn so that pairwise and
        # sequential sums differ in the low bits (from 9 trees on;
        # below 8 terms numpy's pairwise sum is sequential).
        for seed in range(100):
            values = np.random.default_rng(seed).uniform(0.05, 0.95,
                                                         n_trees)
            if n_trees < 8 or sequential_sum(values) != np.sum(values):
                break
        else:
            pytest.fail("no leaf values separate the summation orders")
        forest = RandomForest.from_table(ForestTable.from_trees([
            TreeTable(features=np.array([-1]), thresholds=np.zeros(1),
                      left=np.zeros(1, dtype=np.int64),
                      right=np.zeros(1, dtype=np.int64),
                      leaf_proba=np.array([[value]]), n_features=2)
            for value in values]))
        total = sequential_sum(values)
        for rows in BATCH_SIZES:
            probe = np.random.default_rng(rows).normal(size=(rows, 2))
            expected = np.full((rows, 1), total / n_trees)
            assert_same_bits(forest_predict_proba(forest, probe), expected)
            assert_lanes_match(forest, probe, expected)

    def test_negative_zero_leaves_sum_like_the_loop(self):
        # A zero-initialised total turns -0.0 leaves into +0.0; the
        # scalar lane's accumulate must too (tobytes sees the sign).
        forest = RandomForest.from_table(ForestTable.from_trees([
            TreeTable(features=np.array([-1]), thresholds=np.zeros(1),
                      left=np.zeros(1, dtype=np.int64),
                      right=np.zeros(1, dtype=np.int64),
                      leaf_proba=np.array([[-0.0, 1.0]]), n_features=1)
            for _ in range(3)]))
        for rows in (1, K, K + 1):
            probe = np.zeros((rows, 1))
            expected = np.tile([0.0, 1.0], (rows, 1))
            assert_same_bits(forest_predict_proba(forest, probe), expected)
            assert_lanes_match(forest, probe, expected)

    def test_fitted_single_class_forest(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        forest = RandomForest(n_trees=5, seed=2).fit(
            X, np.zeros(30, dtype=np.int64))
        assert forest.n_classes_ == 1
        for rows in BATCH_SIZES:
            probe = rng.normal(size=(rows, 3))
            assert_lanes_match(forest, probe,
                               forest_predict_proba(forest, probe))

    def test_lone_leaves_stacked_with_deep_trees(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 4))
        y = rng.integers(0, 3, size=200)
        deep = DecisionTree().fit(X, y).table()
        stump = DecisionTree(max_depth=1).fit(X, y).table()
        leaf = DecisionTree().fit(X, np.zeros(200, dtype=np.int64),
                                  n_classes=3).table()
        assert leaf.n_nodes == 1
        forest = RandomForest.from_table(
            ForestTable.from_trees([leaf, deep, stump, leaf, deep]))
        for rows in BATCH_SIZES:
            probe = rng.normal(size=(rows, 4))
            assert_lanes_match(forest, probe,
                               forest_predict_proba(forest, probe))


@pytest.fixture(scope="module")
def saved_forest():
    """A fitted forest round-tripped through its JSON text."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(300, 5))
    y = rng.integers(0, 4, size=300)
    forest = RandomForest(n_trees=9, seed=3).fit(X, y)
    return forest_from_dict(json.loads(json.dumps(forest_to_dict(forest))))


class TestLoadedModelLanes:
    @pytest.mark.parametrize("loader", ["json"])
    def test_loaded_forest_lanes_match_oracle(self, saved_forest, loader):
        rng = np.random.default_rng(4)
        for rows in BATCH_SIZES:
            probe = rng.normal(size=(rows, 5))
            # JSON rounds the stored distributions, so a JSON model is
            # pinned to the oracle walk of its own trees.
            assert_lanes_match(saved_forest, probe,
                               forest_predict_proba(saved_forest, probe))


# -- the hierarchical fingerprinter ------------------------------------------------


def soft_routing_composition(model, X):
    """The four-``predict_proba`` soft routing, on the oracle walk."""
    n_apps = model._windows.app_encoder.n_classes
    category_proba = forest_predict_proba(model._category_model, X)
    scores = np.zeros((len(X), n_apps))
    for category_id, app_model in model._app_models.items():
        scores += (category_proba[:, category_id:category_id + 1]
                   * forest_predict_proba(app_model, X))
    return np.argmax(scores, axis=1)


@pytest.fixture(scope="module")
def fingerprinter():
    windows = catalogue_windows(n=600, n_features=8, shift=0.6, seed=0)
    model = HierarchicalFingerprinter(n_trees=6, max_depth=None,
                                      min_samples_leaf=1, seed=3)
    return model.fit(windows), windows


def assert_apps_match(model, probe, expected):
    for bound in (SCALAR, VECTOR):
        with pinned_lane(bound):
            predicted = model.predict_apps(probe)
        assert predicted.dtype == expected.dtype
        assert np.array_equal(predicted, expected)


class TestPredictAppsLanes:
    def test_every_batch_size_matches_composition(self, fingerprinter):
        model, windows = fingerprinter
        rng = np.random.default_rng(2)
        for rows in BATCH_SIZES:
            probe = windows.X[rng.integers(0, len(windows), rows)] \
                + rng.normal(scale=0.3, size=(rows, windows.X.shape[1]))
            assert_apps_match(model, probe,
                              soft_routing_composition(model, probe))

    def test_json_round_trip_matches_composition(self, fingerprinter,
                                                 tmp_path):
        model, windows = fingerprinter
        save_fingerprinter(model, tmp_path / "model.json")
        clone = load_fingerprinter(tmp_path / "model.json")
        for rows in (1, K, K + 1, 2 * K + 1):
            probe = windows.X[:rows]
            assert_apps_match(clone, probe,
                              soft_routing_composition(clone, probe))

    def test_small_batch_is_one_pass_over_every_tree(self, fingerprinter,
                                                     monkeypatch):
        model, windows = fingerprinter
        passes = []
        inner = tables.descend_scalar

        def counted(forest_tables, X):
            passes.append(sum(table.n_trees for table in forest_tables))
            return inner(forest_tables, X)

        monkeypatch.setattr(tables, "descend_scalar", counted)
        model.predict_apps(windows.X[:3])
        assert passes == [model.n_trees * (1 + len(model._app_models))]
