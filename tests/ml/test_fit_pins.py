"""Byte pins of seeded forest fits and of the JSON model artefacts.

Any change to the arrays the CART fit writes, or to the bytes the JSON
writers produce from them, shows here.  Run this file as a script to
print the current digests.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.fingerprint import (HierarchicalFingerprinter,
                                    save_fingerprinter)
from repro.ml.forest import RandomForest
from repro.ml.persistence import forest_to_dict
from tests.ml.oracles import catalogue_windows

#: Seeded forest fits: name -> (RandomForest kwargs, fit n_classes).
FITS = {
    "default": ({}, None),
    "unlimited": ({"max_features": None, "max_depth": None}, None),
    "stumps": ({"max_depth": 1}, None),
    "wide_classes": ({"max_depth": 6}, 7),
}

TABLE_PINS = {
    "default":
        "a6dcff67c941fc67e8fe18c88a171ddb30a0195a8765c32a909241b8a262833b",
    "unlimited":
        "ed5435ff91211e69039f815f640a2bca9a28226831285388a4e8d1463b8569f7",
    "stumps":
        "c558daa01ec8fb763e13a1fbb5b9b4738572ba07431d5280ec5acca5e8ad0454",
    "wide_classes":
        "fc9935d39e5cbdbfb91c97c159283f14484427e6f52d732b69c404f3b49ff698",
}
FOREST_JSON_PIN = (
    "c877721d018f23d043339e21626bebaebe49a4bc276181dbfd65c6c342566108")
FINGERPRINTER_JSON_PIN = (
    "0d077ba559bfaa304ffa115b749f90e4a0d7963c33397f39c5c427d5a24c737a")


def _data():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(240, 6))
    y = (rng.integers(0, 3, size=240) + (X[:, 0] > 0.3)).astype(np.int64)
    return X, y


def _fit(name: str) -> RandomForest:
    kwargs, n_classes = FITS[name]
    X, y = _data()
    return RandomForest(n_trees=12, seed=3, **kwargs).fit(
        X, y, n_classes=n_classes)


def table_digest(forest: RandomForest) -> str:
    table = forest.table()
    digest = hashlib.sha256()
    for array in (table.features, table.thresholds, table.left, table.right,
                  table.leaf_proba, table.n_nodes):
        digest.update(str((array.dtype.str, array.shape)).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(str(table.n_features).encode())
    return digest.hexdigest()


def forest_json_digest(tmp_dir) -> str:
    payload = json.dumps(forest_to_dict(_fit("default")))
    return hashlib.sha256(payload.encode()).hexdigest()


def fingerprinter_json_digest(tmp_dir) -> str:
    windows = catalogue_windows(n=400, n_features=8, shift=0.3, seed=11)
    model = HierarchicalFingerprinter(n_trees=4, seed=2).fit(windows)
    path = tmp_dir / "model.json"
    save_fingerprinter(model, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(FITS))
def test_fitted_table_arrays_are_pinned(name):
    assert table_digest(_fit(name)) == TABLE_PINS[name]


def test_save_forest_json_bytes_are_pinned(tmp_path):
    assert forest_json_digest(tmp_path) == FOREST_JSON_PIN


def test_save_fingerprinter_json_bytes_are_pinned(tmp_path):
    assert fingerprinter_json_digest(tmp_path) == FINGERPRINTER_JSON_PIN


if __name__ == "__main__":
    import pathlib
    import tempfile

    for name in sorted(FITS):
        print(f"{name}: {table_digest(_fit(name))}")
    with tempfile.TemporaryDirectory() as tmp:
        print(f"forest json: {forest_json_digest(pathlib.Path(tmp))}")
        print(f"fingerprinter json: "
              f"{fingerprinter_json_digest(pathlib.Path(tmp))}")
