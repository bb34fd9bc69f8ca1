"""Model persistence: JSON for interchange, mmap-able NPZ for serving.

The paper's artefact release includes "the trained model"; this module
provides the equivalent capability in two lanes:

* **JSON** — forests (and the fingerprinting pipeline built on them,
  see :func:`repro.core.fingerprint.save_fingerprinter`) serialise to
  plain JSON so a model trained on one machine classifies on another
  with no pickle-security caveats.  Each tree is a nested
  ``d/f/t/l/r`` dict written from, and parsed back into, its node
  table; loading validates the structure.
* **NPZ** — the node tables (:mod:`repro.ml.tables`) write as an
  *uncompressed* NPZ archive whose members load back as read-only
  ``np.memmap`` views, mirroring the trace plane's zero-copy lane: a
  long-running attack service pages model bytes in on demand and
  shares them across ParallelMap workers instead of copying them per
  process.

Both lanes read and write the one form of a fitted forest, its
:class:`repro.ml.tables.ForestTable`, so a model loaded from either
saves to either.  :func:`load_forest` auto-detects the lane from the
file bytes.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from ..sniffer.trace import mmap_npz_arrays
from .forest import RandomForest
from .tables import LEAF, ForestTable, TreeTable
from .tree import DecisionTree

FORMAT_VERSION = 1

#: Version of the NPZ node-table layout.
NPZ_FORMAT_VERSION = 1

#: Array members of a forest NPZ artefact, in canonical order.
NPZ_MEMBERS = ("features", "thresholds", "left", "right", "leaf_proba",
               "n_nodes", "meta")

#: Expected dtype per member (``meta`` packs the scalar header fields).
_NPZ_DTYPES = {
    "features": np.int64, "thresholds": np.float64, "left": np.int64,
    "right": np.int64, "leaf_proba": np.float64, "n_nodes": np.int64,
    "meta": np.int64,
}


def _table_to_dict(table: TreeTable) -> Dict:
    """One tree's nested ``d/f/t/l/r`` node dicts, built from its table.

    Every node's dict exists before any is linked to its children, so
    no recursion is needed, whatever the tree's depth.
    """
    thresholds = table.thresholds.tolist()
    left = table.left.tolist()
    right = table.right.tolist()
    nodes = [{"d": [round(value, 9) for value in row]}
             for row in table.leaf_proba.tolist()]
    for slot, feature in enumerate(table.features.tolist()):
        if feature != LEAF:
            nodes[slot].update(f=feature, t=thresholds[slot],
                               l=nodes[left[slot]], r=nodes[right[slot]])
    return {"n_classes": table.n_classes, "n_features": table.n_features,
            "root": nodes[0]}


def _table_from_dict(payload: Dict) -> TreeTable:
    """Parse and validate one tree written by :func:`_table_to_dict`.

    The nested dicts are numbered in preorder, left subtree first (the
    layout the fit writes), with an explicit stack: a left child is
    the next row, a right child's row is patched in when it is
    reached.  Malformed payloads raise ``ValueError``.
    """
    try:
        n_classes = int(payload["n_classes"])
        features, thresholds, left, right, rows = [], [], [], [], []
        stack = [(payload["root"], None)]
        while stack:
            node, right_of = stack.pop()
            slot = len(features)
            if right_of is not None:
                right[right_of] = slot
            if len(node["d"]) != n_classes:
                raise ValueError(
                    f"tree node {slot} has {len(node['d'])} class "
                    f"frequencies, expected {n_classes}")
            rows.append(node["d"])
            right.append(0)
            if "f" in node:
                features.append(int(node["f"]))
                thresholds.append(float(node["t"]))
                left.append(slot + 1)
                stack.append((node["r"], slot))
                stack.append((node["l"], None))
            else:
                features.append(LEAF)
                thresholds.append(0.0)
                left.append(0)
        table = TreeTable(
            features=np.array(features, dtype=np.int64),
            thresholds=np.array(thresholds, dtype=np.float64),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            leaf_proba=np.array(rows, dtype=np.float64).reshape(
                len(rows), n_classes),
            n_features=int(payload["n_features"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tree payload: {exc!r}") from None
    return table.validate()


def tree_to_dict(tree: DecisionTree) -> Dict:
    """Serialise a fitted decision tree."""
    if tree._table is None:
        raise ValueError("cannot serialise an unfitted tree")
    return _table_to_dict(tree._table)


def tree_from_dict(payload: Dict) -> DecisionTree:
    """Rebuild a decision tree serialised by :func:`tree_to_dict`."""
    return DecisionTree.from_table(_table_from_dict(payload))


def forest_to_dict(forest: RandomForest) -> Dict:
    """Serialise a fitted Random Forest (fit here or loaded)."""
    if forest._table is None:
        raise ValueError("cannot serialise an unfitted forest")
    table = forest._table
    return {
        "format": FORMAT_VERSION,
        "kind": "random-forest",
        "n_trees": forest.n_trees,
        "n_classes": forest.n_classes_,
        "seed": forest.seed,
        "trees": [_table_to_dict(table.tree(index))
                  for index in range(table.n_trees)],
    }


def forest_from_dict(payload: Dict) -> RandomForest:
    """Rebuild a Random Forest serialised by :func:`forest_to_dict`.

    Every tree is parsed into a validated node table and the stack is
    checked against the header, so a malformed model fails here with
    ``ValueError`` rather than at its first prediction.
    """
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind != "random-forest":
        raise ValueError(f"not a serialised forest: {kind!r}")
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported format {payload.get('format')!r}")
    try:
        trees = payload["trees"]
        n_trees = int(payload["n_trees"])
        n_classes = int(payload["n_classes"])
        seed = int(payload.get("seed", 1))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed forest payload: {exc!r}") from None
    table = ForestTable.from_trees([_table_from_dict(tree) for tree in trees])
    if table.n_trees != n_trees or table.n_classes != n_classes:
        raise ValueError(f"forest payload holds {table.n_trees} trees × "
                         f"{table.n_classes} classes, declared "
                         f"{n_trees} × {n_classes}")
    return RandomForest.from_table(table, seed=seed)


def save_forest(forest: RandomForest, path: Path) -> None:
    """Write a fitted forest to a JSON file."""
    Path(path).write_text(json.dumps(forest_to_dict(forest)))


# -- the NPZ node-table lane ------------------------------------------------------


def save_forest_npz(forest: RandomForest, path: Path) -> None:
    """Write a fitted forest's flattened node tables as NPZ.

    ``np.savez`` (uncompressed) on purpose: stored members sit
    contiguously in the archive, so :func:`load_forest_npz` can map
    them with ``np.memmap`` instead of copying.
    """
    table = forest.table()
    meta = np.array([NPZ_FORMAT_VERSION, table.n_trees, table.n_classes,
                     table.n_features, forest.seed], dtype=np.int64)
    np.savez(Path(path), features=table.features,
             thresholds=table.thresholds, left=table.left,
             right=table.right, leaf_proba=table.leaf_proba,
             n_nodes=table.n_nodes, meta=meta)


def _checked_forest_arrays(data, path: Path) -> Dict[str, np.ndarray]:
    """Validate an NPZ artefact's members before trusting them."""
    arrays: Dict[str, np.ndarray] = {}
    missing = [name for name in NPZ_MEMBERS if name not in data]
    if missing:
        raise ValueError(f"{path}: forest NPZ is missing arrays "
                         f"{missing} (truncated or foreign file?)")
    for name in NPZ_MEMBERS:
        array = data[name]
        if array.dtype != _NPZ_DTYPES[name]:
            raise ValueError(
                f"{path}: forest NPZ member {name!r} has dtype "
                f"{array.dtype}, expected "
                f"{np.dtype(_NPZ_DTYPES[name])}")
        arrays[name] = array
    if arrays["meta"].shape != (5,):
        raise ValueError(f"{path}: forest NPZ meta header has shape "
                         f"{arrays['meta'].shape}, expected (5,)")
    return arrays


def load_forest_npz(path: Path,
                    mmap_mode: Optional[str] = "r") -> RandomForest:
    """Read a forest written by :func:`save_forest_npz`.

    With ``mmap_mode`` (the default ``"r"``), node-table members are
    memory-mapped read-only — the returned forest predicts straight
    out of the page cache, zero-copy, and the mapping is shared across
    processes.  Compressed or foreign archives fall back to a normal
    copying load; structural defects raise ``ValueError`` naming the
    file.
    """
    path = Path(path)
    arrays = None
    if mmap_mode is not None:
        arrays = mmap_npz_arrays(path, NPZ_MEMBERS, mmap_mode)
    if arrays is None:
        with np.load(path) as data:
            arrays = {name: np.array(data[name]) for name in data.files
                      if name in _NPZ_DTYPES}
    arrays = _checked_forest_arrays(arrays, path)
    version, n_trees, n_classes, n_features, seed = \
        (int(value) for value in arrays["meta"])
    if version != NPZ_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported forest NPZ format "
                         f"{version}")
    table = ForestTable(features=arrays["features"],
                        thresholds=arrays["thresholds"],
                        left=arrays["left"], right=arrays["right"],
                        leaf_proba=arrays["leaf_proba"],
                        n_nodes=arrays["n_nodes"],
                        n_features=n_features)
    try:
        table.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if (table.n_trees != n_trees or table.n_classes != n_classes
            or table.leaf_proba.ndim != 3):
        raise ValueError(f"{path}: forest NPZ arrays disagree with the "
                         f"meta header ({table.n_trees} trees × "
                         f"{table.n_classes} classes vs declared "
                         f"{n_trees} × {n_classes})")
    return RandomForest.from_table(table, seed=seed)


def load_forest(path: Path) -> RandomForest:
    """Read a forest from either persistence lane (auto-detected).

    NPZ artefacts are ZIP archives; anything else is treated as the
    JSON interchange format.
    """
    path = Path(path)
    if zipfile.is_zipfile(path):
        return load_forest_npz(path)
    return forest_from_dict(json.loads(path.read_text()))
