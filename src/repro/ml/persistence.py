"""Model persistence: forests as plain JSON.

The paper's artefact release includes "the trained model"; this module
provides the equivalent capability.  Forests (and the fingerprinting
pipeline built on them, see
:func:`repro.core.fingerprint.save_fingerprinter`) serialise to plain
JSON so a model trained on one machine classifies on another with no
pickle-security caveats.  Each tree is a nested ``d/f/t/l/r`` dict
written from, and parsed back into, its node table
(:mod:`repro.ml.tables`); loading validates the structure.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .forest import RandomForest
from .tables import LEAF, ForestTable, TreeTable
from .tree import DecisionTree

FORMAT_VERSION = 1


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
