"""Tests for model persistence (forests and the fingerprinter)."""

import json

import numpy as np
import pytest

from repro.core.dataset import collect_traces, windows_from_traces
from repro.core.fingerprint import (HierarchicalFingerprinter,
                                    load_fingerprinter, save_fingerprinter)
from repro.ml.forest import RandomForest
from repro.ml.persistence import (forest_from_dict, forest_to_dict,
                                  tree_from_dict, tree_to_dict)
from repro.ml.tree import DecisionTree
from repro.operators import LAB


def blobs(seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(3 * k, 0.8, (40, 6)) for k in range(3)])
    y = np.repeat(np.arange(3), 40)
    return X, y


class TestTreePersistence:
    def test_round_trip_predictions_identical(self):
        X, y = blobs()
        tree = DecisionTree(max_depth=6).fit(X, y)
        clone = tree_from_dict(tree_to_dict(tree))
        assert np.allclose(tree.predict_proba(X), clone.predict_proba(X))

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            tree_to_dict(DecisionTree())

    def test_leaf_only_tree(self):
        X = np.ones((5, 2))
        y = np.zeros(5, dtype=np.int64)
        tree = DecisionTree().fit(X, y)
        clone = tree_from_dict(tree_to_dict(tree))
        assert clone.predict(X).tolist() == [0] * 5


class TestForestPersistence:
    def test_file_round_trip(self, tmp_path):
        X, y = blobs()
        forest = RandomForest(n_trees=6, seed=1).fit(X, y)
        path = tmp_path / "forest.json"
        path.write_text(json.dumps(forest_to_dict(forest)))
        clone = forest_from_dict(json.loads(path.read_text()))
        assert np.allclose(forest.predict_proba(X), clone.predict_proba(X))
        assert clone.n_classes_ == forest.n_classes_

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            forest_to_dict(RandomForest())

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            forest_from_dict({"kind": "svm"})

    def test_wrong_version_rejected(self):
        X, y = blobs()
        payload = forest_to_dict(RandomForest(n_trees=2, seed=1).fit(X, y))
        payload["format"] = 999
        with pytest.raises(ValueError):
            forest_from_dict(payload)

    @pytest.mark.parametrize("defect", [
        "split_feature_out_of_range", "child_out_of_range",
        "distribution_length", "missing_node_key", "missing_tree_key"])
    def test_malformed_json_rejected_at_load(self, defect):
        X, y = blobs()
        payload = forest_to_dict(
            RandomForest(n_trees=2, max_depth=3, seed=1).fit(X, y))
        tree = payload["trees"][1]
        root = tree["root"]
        assert "f" in root
        if defect == "split_feature_out_of_range":
            root["f"] = tree["n_features"]
        elif defect == "child_out_of_range":
            root["l"] = 99               # an index, not a nested node
        elif defect == "distribution_length":
            root["r"]["d"] = root["r"]["d"][:-1]
        elif defect == "missing_node_key":
            del root["t"]
        else:
            del tree["n_features"]
        with pytest.raises(ValueError):
            forest_from_dict(payload)


class TestFingerprinterPersistence:
    def test_round_trip_verdicts_identical(self, tmp_path):
        train = collect_traces(["YouTube", "Skype", "WhatsApp"],
                               operator=LAB, traces_per_app=2,
                               duration_s=12.0, seed=5)
        windows = windows_from_traces(train)
        model = HierarchicalFingerprinter(n_trees=6, seed=1).fit(windows)
        path = tmp_path / "model.json"
        save_fingerprinter(model, path)
        clone = load_fingerprinter(path)
        predictions = model.predict_apps(windows.X)
        clone_predictions = clone.predict_apps(windows.X)
        assert (predictions == clone_predictions).all()
        verdict = clone.classify_trace(train.traces[0])
        assert verdict is not None

    def test_flat_model_rejected(self, tmp_path):
        train = collect_traces(["YouTube", "Skype"], operator=LAB,
                               traces_per_app=1, duration_s=10.0, seed=6)
        model = HierarchicalFingerprinter(n_trees=3, seed=1,
                                          hierarchical=False)
        model.fit(windows_from_traces(train))
        with pytest.raises(ValueError):
            save_fingerprinter(model, tmp_path / "m.json")

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "other"}')
        with pytest.raises(ValueError):
            load_fingerprinter(path)
