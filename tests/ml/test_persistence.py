"""Tests for model persistence (forests and the fingerprinter)."""

import json

import numpy as np
import pytest

from repro.core.dataset import collect_traces, windows_from_traces
from repro.core.fingerprint import (HierarchicalFingerprinter,
                                    load_fingerprinter, save_fingerprinter)
from repro.ml.forest import RandomForest
from repro.ml.persistence import (forest_from_dict, forest_to_dict,
                                  load_forest, load_forest_npz, save_forest,
                                  save_forest_npz, tree_from_dict,
                                  tree_to_dict)
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
        save_forest(forest, path)
        clone = load_forest(path)
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

    def test_npz_loaded_forest_saves_as_json(self, tmp_path):
        X, y = blobs()
        forest = RandomForest(n_trees=4, max_depth=5, seed=3).fit(X, y)
        path = tmp_path / "forest.npz"
        save_forest_npz(forest, path)
        assert (json.dumps(forest_to_dict(load_forest_npz(path)))
                == json.dumps(forest_to_dict(forest)))

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


class TestForestNpzPersistence:
    def test_round_trip_bit_identical(self, tmp_path):
        X, y = blobs()
        forest = RandomForest(n_trees=6, max_depth=None, seed=2).fit(X, y)
        path = tmp_path / "forest.npz"
        save_forest_npz(forest, path)
        clone = load_forest_npz(path)
        assert np.array_equal(forest.predict_proba(X),
                              clone.predict_proba(X))
        assert clone.n_classes_ == forest.n_classes_
        assert clone.seed == forest.seed

    def test_loaded_tables_are_memory_mapped(self, tmp_path):
        X, y = blobs()
        forest = RandomForest(n_trees=3, max_depth=4, seed=3).fit(X, y)
        path = tmp_path / "forest.npz"
        save_forest_npz(forest, path)
        clone = load_forest_npz(path, mmap_mode="r")
        table = clone.table()
        assert isinstance(table.thresholds, np.memmap)
        assert not table.thresholds.flags.writeable
        # Prediction gathers straight out of the mapped pages.
        assert np.array_equal(clone.predict_proba(X),
                              forest.predict_proba(X))

    def test_copy_load_matches_mmap_load(self, tmp_path):
        X, y = blobs()
        forest = RandomForest(n_trees=4, max_depth=5, seed=4).fit(X, y)
        path = tmp_path / "forest.npz"
        save_forest_npz(forest, path)
        mapped = load_forest_npz(path, mmap_mode="r")
        copied = load_forest_npz(path, mmap_mode=None)
        assert np.array_equal(mapped.predict_proba(X),
                              copied.predict_proba(X))

    def test_materialize_trees_round_trips(self, tmp_path):
        # Every member tree of a loaded forest comes back as the same
        # node table, and predicts the same as a standalone tree.
        X, y = blobs()
        forest = RandomForest(n_trees=3, max_depth=4, seed=5).fit(X, y)
        path = tmp_path / "forest.npz"
        save_forest_npz(forest, path)
        original, loaded = forest.table(), load_forest_npz(path).table()
        assert loaded.n_trees == forest.n_trees
        for index in range(loaded.n_trees):
            tree, clone = original.tree(index), loaded.tree(index)
            for name in ("features", "thresholds", "left", "right",
                         "leaf_proba"):
                assert np.array_equal(getattr(tree, name),
                                      getattr(clone, name))
            assert np.array_equal(
                DecisionTree.from_table(tree).predict_proba(X),
                DecisionTree.from_table(clone).predict_proba(X))

    def test_load_forest_auto_detects_lane(self, tmp_path):
        X, y = blobs()
        forest = RandomForest(n_trees=3, max_depth=4, seed=6).fit(X, y)
        json_path = tmp_path / "forest.json"
        npz_path = tmp_path / "forest.npz"
        save_forest(forest, json_path)
        save_forest_npz(forest, npz_path)
        assert np.array_equal(load_forest(json_path).predict_proba(X),
                              load_forest(npz_path).predict_proba(X))

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_forest_npz(RandomForest(), tmp_path / "f.npz")

    def test_missing_member_rejected(self, tmp_path):
        X, y = blobs()
        forest = RandomForest(n_trees=2, max_depth=3, seed=7).fit(X, y)
        table = forest.table()
        path = tmp_path / "truncated.npz"
        np.savez(path, features=table.features,
                 thresholds=table.thresholds)
        with pytest.raises(ValueError, match="missing"):
            load_forest_npz(path)

    def test_wrong_dtype_rejected(self, tmp_path):
        X, y = blobs()
        forest = RandomForest(n_trees=2, max_depth=3, seed=8).fit(X, y)
        path = tmp_path / "forest.npz"
        save_forest_npz(forest, path)
        table = forest.table()
        bad = tmp_path / "bad.npz"
        np.savez(bad, features=table.features.astype(np.float64),
                 thresholds=table.thresholds, left=table.left,
                 right=table.right, leaf_proba=table.leaf_proba,
                 n_nodes=table.n_nodes,
                 meta=np.array([1, 2, 3, 6, 1], dtype=np.int64))
        with pytest.raises(ValueError, match="dtype"):
            load_forest_npz(bad)

    def test_corrupt_structure_rejected(self, tmp_path):
        X, y = blobs()
        forest = RandomForest(n_trees=2, max_depth=3, seed=9).fit(X, y)
        table = forest.table()
        bad = tmp_path / "bad.npz"
        left = np.array(table.left)
        left[0, 0] = 10_000               # child index out of range
        np.savez(bad, features=table.features,
                 thresholds=table.thresholds, left=left,
                 right=table.right, leaf_proba=table.leaf_proba,
                 n_nodes=table.n_nodes,
                 meta=np.array([1, table.n_trees, table.n_classes,
                                table.n_features, 1], dtype=np.int64))
        with pytest.raises(ValueError, match="bad.npz"):
            load_forest_npz(bad)

    def test_unsupported_version_rejected(self, tmp_path):
        X, y = blobs()
        forest = RandomForest(n_trees=2, max_depth=3, seed=10).fit(X, y)
        table = forest.table()
        bad = tmp_path / "future.npz"
        np.savez(bad, features=table.features,
                 thresholds=table.thresholds, left=table.left,
                 right=table.right, leaf_proba=table.leaf_proba,
                 n_nodes=table.n_nodes,
                 meta=np.array([99, table.n_trees, table.n_classes,
                                table.n_features, 1], dtype=np.int64))
        with pytest.raises(ValueError, match="format"):
            load_forest_npz(bad)


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
