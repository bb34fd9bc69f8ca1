"""Flattened decision-tree node tables — the one form of a fitted tree.

The CART fit (:mod:`repro.ml.tree`) writes each tree as a
struct-of-arrays node table (feature / threshold / child indices /
per-node class distribution, preorder, root at 0), and a forest stacks
its tables into one padded 2-D layout.  Classifying every window the
sniffer emits is a pure gather workload over these arrays.  Prediction
then becomes a *level-synchronous descent*: one integer "current node"
matrix of shape (trees, rows) is advanced with `np.where` gathers until
every lane sits on a leaf — no per-tree Python loop, no per-node index
stacks.

Batches of at most :data:`SCALAR_LANE_MAX` rows, where that descent's
fixed cost per level dominates, take a scalar lane instead: one Python
walk over the cached preorder lists of every tree of several forests
(:func:`descend_scalar`).  Both lanes make the exact comparisons
(``x <= threshold``) on the same float64 values and sum the exact leaf
distributions in tree order, so predictions are bit-identical to the
test-side object walk (``tests/ml/oracles.py``, pinned by the golden
and Hypothesis suites).

The arrays are also the persistence format: ``repro.ml.persistence``
writes each tree's JSON from its table and parses it back into one.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: Sentinel in the ``features`` array marking a leaf node.
LEAF = -1

#: Rows per forest-descent chunk.  The descent's per-level temporaries
#: are (n_trees * chunk)-lane arrays; 256 rows keeps them cache-resident
#: for a paper-sized 100-tree forest while amortising the per-level
#: dispatch cost, which measures fastest across shallow and
#: unlimited-depth forests.  Chunking cannot change results: every lane
#: descends independently.
DESCEND_CHUNK = 256

#: Largest batch, in rows, that descends on the scalar lane; the lane
#: sweep in ``benchmarks/bench_inference.py`` (``BENCH_inference.json``,
#: ``lane_sweep``) is the evidence for the value.
SCALAR_LANE_MAX = 16

#: Dtype of the descent's node/lane index arrays.  Node tables are far
#: smaller than 2**31 entries, so 32-bit indices are exact; they halve
#: the index bandwidth of the gather loop, which is what the descent is
#: bound by.  ``_flat_layout`` falls back to pointer width for tables
#: that could overflow, and indices never leave the kernel — leaf ids
#: are returned as int64-safe ``np.intp``.
INDEX_DTYPE = np.int32

#: The cached gather-descent form of a ForestTable (see
#: ``ForestTable._flat_layout``).
_FlatLayout = namedtuple("_FlatLayout", [
    "levels",         # int — iterations needed to reach the deepest leaf
    "leafy_levels",   # per level: True if the level contains any leaf
    "is_leaf",        # (n_nodes_flat,) bool — leaf marker per flat id
    "roots",          # (n_trees,) index — level-order id of each root
    "feature_safe",   # (n_nodes_flat,) index — split feature, 0 at leaves
    "thresholds",     # (n_nodes_flat,) float64 — level-ordered thresholds
    "children",       # (2 * n_nodes_flat,) index — interleaved, self-looped
    "local",          # (n_nodes_flat,) intp — flat id -> per-tree node index
])

#: Retire finished descent lanes only once at least 1/RETIRE_DIVISOR of
#: the live lanes sit on leaves: below that, the boolean compaction
#: costs more than the parked lanes' idle rides (leaves self-loop, so
#: parking is harmless).
RETIRE_DIVISOR = 8

#: Probe for retirable lanes every this-many levels (once leaves can
#: exist).  Probing is itself a gather + popcount over every live lane,
#: so doing it each level taxes shallow forests that would finish
#: before compaction ever pays; parked lanes ride their self-loop for
#: free between probes.
RETIRE_CHECK_EVERY = 4


@dataclass
class TreeTable:
    """One fitted tree as parallel node arrays (preorder, root = 0).

    ``leaf_proba`` carries the class distribution of *every* node (the
    JSON format stores one per node too, so internal distributions
    survive round-trips), but only leaf rows are ever gathered during
    prediction.
    """

    features: np.ndarray        # (n_nodes,) int64; LEAF marks a leaf
    thresholds: np.ndarray      # (n_nodes,) float64
    left: np.ndarray            # (n_nodes,) int64 child node index
    right: np.ndarray           # (n_nodes,) int64 child node index
    leaf_proba: np.ndarray      # (n_nodes, n_classes) float64
    n_features: int

    @property
    def n_nodes(self) -> int:
        return len(self.features)

    @property
    def n_classes(self) -> int:
        return self.leaf_proba.shape[1]

    def validate(self) -> "TreeTable":
        """Structural sanity: shapes line up, children stay in range."""
        n = self.n_nodes
        if n == 0:
            raise ValueError("node table is empty")
        for name in ("thresholds", "left", "right"):
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"node table column {name!r} has "
                    f"{len(getattr(self, name))} rows, expected {n}")
        if self.leaf_proba.shape[0] != n:
            raise ValueError(
                f"leaf_proba has {self.leaf_proba.shape[0]} rows, "
                f"expected {n}")
        internal = self.features >= 0
        children = np.concatenate([self.left[internal],
                                   self.right[internal]])
        if len(children) and (children.min() < 0
                              or children.max() >= n):
            raise ValueError("child index out of range in node table")
        if internal.any() and self.features[internal].max() >= \
                self.n_features:
            raise ValueError("split feature index out of range")
        return self

    def split_counts(self) -> np.ndarray:
        """Number of internal nodes splitting on each feature."""
        used = self.features[self.features >= 0]
        return np.bincount(used, minlength=self.n_features) \
            .astype(np.float64)


@dataclass
class ForestTable:
    """All of a forest's node tables stacked into one padded 2-D layout.

    Trees are padded to the widest tree's node count with leaf
    sentinels (``features == LEAF``, zero distributions); padding nodes
    are unreachable, so they never influence a prediction.
    """

    features: np.ndarray        # (n_trees, max_nodes) int64
    thresholds: np.ndarray      # (n_trees, max_nodes) float64
    left: np.ndarray            # (n_trees, max_nodes) int64
    right: np.ndarray           # (n_trees, max_nodes) int64
    leaf_proba: np.ndarray      # (n_trees, max_nodes, n_classes) float64
    n_nodes: np.ndarray         # (n_trees,) int64 — real nodes per tree
    n_features: int

    @property
    def n_trees(self) -> int:
        return self.features.shape[0]

    @property
    def n_classes(self) -> int:
        return self.leaf_proba.shape[2]

    @property
    def nbytes(self) -> int:
        """Total column bytes — what a loaded model pins per forest."""
        return (self.features.nbytes + self.thresholds.nbytes
                + self.left.nbytes + self.right.nbytes
                + self.leaf_proba.nbytes + self.n_nodes.nbytes)

    @classmethod
    def from_trees(cls, tables: Sequence[TreeTable]) -> "ForestTable":
        """Stack per-tree node tables, padding to the widest tree."""
        if not tables:
            raise ValueError("cannot stack an empty forest")
        n_features = tables[0].n_features
        n_classes = tables[0].n_classes
        for table in tables:
            if table.n_features != n_features:
                raise ValueError("trees disagree on n_features")
            if table.n_classes != n_classes:
                raise ValueError("trees disagree on n_classes")
        n_trees = len(tables)
        width = max(table.n_nodes for table in tables)
        features = np.full((n_trees, width), LEAF, dtype=np.int64)
        thresholds = np.zeros((n_trees, width), dtype=np.float64)
        left = np.zeros((n_trees, width), dtype=np.int64)
        right = np.zeros((n_trees, width), dtype=np.int64)
        leaf_proba = np.zeros((n_trees, width, n_classes),
                              dtype=np.float64)
        n_nodes = np.zeros(n_trees, dtype=np.int64)
        for index, table in enumerate(tables):
            count = table.n_nodes
            features[index, :count] = table.features
            thresholds[index, :count] = table.thresholds
            left[index, :count] = table.left
            right[index, :count] = table.right
            leaf_proba[index, :count] = table.leaf_proba
            n_nodes[index] = count
        return cls(features=features, thresholds=thresholds, left=left,
                   right=right, leaf_proba=leaf_proba, n_nodes=n_nodes,
                   n_features=n_features)

    def tree(self, index: int) -> TreeTable:
        """The unpadded node table of one member tree (copies)."""
        count = int(self.n_nodes[index])
        return TreeTable(
            features=np.array(self.features[index, :count]),
            thresholds=np.array(self.thresholds[index, :count]),
            left=np.array(self.left[index, :count]),
            right=np.array(self.right[index, :count]),
            leaf_proba=np.array(self.leaf_proba[index, :count]),
            n_features=self.n_features)

    def validate(self) -> "ForestTable":
        """Cross-array shape/range checks (used on untrusted NPZ loads)."""
        trees, width = self.features.shape
        for name in ("thresholds", "left", "right"):
            if getattr(self, name).shape != (trees, width):
                raise ValueError(
                    f"forest table column {name!r} has shape "
                    f"{getattr(self, name).shape}, expected "
                    f"{(trees, width)}")
        if self.leaf_proba.shape[:2] != (trees, width):
            raise ValueError(
                f"leaf_proba has shape {self.leaf_proba.shape}, "
                f"expected ({trees}, {width}, n_classes)")
        if self.n_nodes.shape != (trees,):
            raise ValueError(
                f"n_nodes has shape {self.n_nodes.shape}, "
                f"expected ({trees},)")
        if trees == 0 or width == 0:
            raise ValueError("forest table is empty")
        if self.n_nodes.min() < 1 or self.n_nodes.max() > width:
            raise ValueError("per-tree node count out of range")
        internal = self.features >= 0
        if internal.any():
            if self.features[internal].max() >= self.n_features:
                raise ValueError("split feature index out of range")
            children = np.concatenate([self.left[internal],
                                       self.right[internal]])
            if children.min() < 0 or children.max() >= width:
                raise ValueError("child index out of range in node table")
        return self

    def _flat_layout(self) -> "_FlatLayout":
        """The gather-descent form of the table (cached).

        Flattens the padded 2-D arrays into 1-D lane space and rewrites
        the structure so the descent loop needs no masking:

        * nodes are relabelled into *level order* (all of the forest's
          depth-d nodes contiguous, each level's internal nodes before
          its leaves), so each descent iteration's gathers land in one
          compact window per level instead of scattering across the
          preorder tables;
        * child pointers interleave into one ``children`` array indexed
          by ``2 * node + go_left`` — one gather per step instead of
          two gathers plus a select — and a leaf's children point *at
          the leaf itself*, so a lane can never step off a leaf;
        * leaf rows get feature 0 in ``feature_safe`` so the ``X``
          gather stays in range (the value read is never used: leaf
          lanes retire before the next step).

        Relabelling and index width cannot change results — the same
        comparisons run against the same float64 thresholds, and
        ``local`` maps every flat id back to its preorder node index.
        """
        if getattr(self, "_flat_cache", None) is None:
            width = self.features.shape[1]
            base = np.arange(self.n_trees, dtype=np.int64) * width
            features = np.ascontiguousarray(self.features).reshape(-1)
            count = features.size
            node_ids = np.arange(count, dtype=np.int64)
            is_leaf = features < 0
            left = np.where(is_leaf, node_ids,
                            (self.left + base[:, None]).reshape(-1))
            right = np.where(is_leaf, node_ids,
                             (self.right + base[:, None]).reshape(-1))
            # Level-order relabelling, internal nodes first within each
            # level: order[new_id] = preorder flat id.
            order = np.empty(count, dtype=np.int64)
            leafy_levels = []
            position = 0
            frontier = base
            while frontier.size:
                internal = features[frontier] >= 0
                parents = frontier[internal]
                order[position:position + frontier.size] = \
                    np.concatenate([parents, frontier[~internal]])
                leafy_levels.append(parents.size < frontier.size)
                position += frontier.size
                if parents.size == 0:
                    break
                frontier = np.concatenate([left[parents], right[parents]])
            # Unreachable padding rows take the remaining ids.
            reached = np.zeros(count, dtype=bool)
            reached[order[:position]] = True
            order[position:] = np.flatnonzero(~reached)
            inverse = np.empty(count, dtype=np.int64)
            inverse[order] = node_ids
            index_dtype = (INDEX_DTYPE if 2 * count
                           < np.iinfo(INDEX_DTYPE).max else np.intp)
            children = np.empty(2 * count, dtype=index_dtype)
            children[0::2] = inverse[right[order]]
            children[1::2] = inverse[left[order]]
            feature_safe = np.where(is_leaf, 0, features)[order] \
                .astype(index_dtype)
            self._flat_cache = _FlatLayout(
                levels=len(leafy_levels),
                leafy_levels=leafy_levels,
                is_leaf=is_leaf[order],
                roots=inverse[base].astype(index_dtype),
                feature_safe=feature_safe,
                thresholds=np.ascontiguousarray(
                    self.thresholds).reshape(-1)[order],
                children=children,
                local=(order - order // width * width).astype(np.intp))
        return self._flat_cache

    def descend(self, X: np.ndarray) -> np.ndarray:
        """Leaf index per (tree, row) — one gather descent for all trees.

        All trees advance in lock-step over the flat layout of
        :meth:`_flat_layout`: one gather fetches the frontier's split
        features and thresholds, one comparison routes every lane, and
        one gather through the interleaved child array steps them all.
        Finished lanes first park on their self-looping leaf (free);
        once at least ``1/RETIRE_DIVISOR`` of the live lanes are
        parked, they retire in bulk, so a few stragglers descending a
        deep subtree don't drag every other lane through their extra
        iterations.  Rows stream through in :data:`DESCEND_CHUNK`
        blocks to keep the temporaries cache-resident; reused ``out=``
        buffers avoid re-allocating them per level.
        """
        n_rows = len(X)
        layout = self._flat_layout()
        X = np.ascontiguousarray(X)
        index_dtype = layout.children.dtype
        out = np.empty((self.n_trees, n_rows), dtype=np.intp)
        for start in range(0, n_rows, DESCEND_CHUNK):
            stop = min(start + DESCEND_CHUNK, n_rows)
            lanes = self.n_trees * (stop - start)
            # Chunk-local X view: row offsets stay tiny, so they can
            # never overflow the narrow index dtype.
            flat_X = X[start:stop].reshape(-1)
            row_base = np.tile(
                np.arange(stop - start, dtype=index_dtype)
                * self.n_features, self.n_trees)
            node = np.repeat(layout.roots, stop - start)
            lane = np.arange(lanes, dtype=np.intp)
            out_chunk = np.empty(lanes, dtype=np.intp)
            feature = np.empty(lanes, dtype=index_dtype)
            index = np.empty(lanes, dtype=index_dtype)
            value = np.empty(lanes, dtype=np.float64)
            threshold = np.empty(lanes, dtype=np.float64)
            go_left = np.empty(lanes, dtype=bool)
            parked = np.empty(lanes, dtype=bool)
            since_leaves = -1
            for level in range(layout.levels):
                active = node.size
                if since_leaves >= 0 or layout.leafy_levels[level]:
                    since_leaves += 1
                if since_leaves and since_leaves % RETIRE_CHECK_EVERY == 0:
                    layout.is_leaf.take(node, out=parked[:active])
                    done = int(np.count_nonzero(parked[:active]))
                    if done == active:
                        break
                    if done * RETIRE_DIVISOR >= active:
                        mask = parked[:active]
                        out_chunk[lane[mask]] = \
                            layout.local.take(node[mask])
                        keep = ~mask
                        node = node[keep]
                        row_base = row_base[keep]
                        lane = lane[keep]
                        active = node.size
                layout.feature_safe.take(node, out=feature[:active])
                np.add(row_base, feature[:active], out=index[:active])
                flat_X.take(index[:active], out=value[:active])
                layout.thresholds.take(node, out=threshold[:active])
                np.less_equal(value[:active], threshold[:active],
                              out=go_left[:active])
                np.add(node, node, out=index[:active])
                np.add(index[:active], go_left[:active],
                       out=index[:active])
                layout.children.take(index[:active], out=node)
            if node.size:
                out_chunk[lane] = layout.local.take(node)
            out[:, start:stop] = out_chunk.reshape(self.n_trees,
                                                   stop - start)
        return out

    def _lane_lists(self) -> list:
        """Per tree, ``(features, thresholds, left, right)`` as lists.

        The scalar lane's form of the table (cached); Python floats
        hold the float64 thresholds exactly.
        """
        if getattr(self, "_lane_cache", None) is None:
            self._lane_cache = [
                (self.features[index, :count].tolist(),
                 self.thresholds[index, :count].tolist(),
                 self.left[index, :count].tolist(),
                 self.right[index, :count].tolist())
                for index, count in enumerate(self.n_nodes.tolist())]
        return self._lane_cache

    def __getstate__(self) -> dict:
        """Pickle the columns only; both lanes' caches rebuild on demand."""
        state = self.__dict__.copy()
        state.pop("_flat_cache", None)
        state.pop("_lane_cache", None)
        return state

    def leaf_sum(self, leaves: np.ndarray) -> np.ndarray:
        """Per row, the sum of the trees' distributions at ``leaves``.

        ``leaves`` is the (tree, row) leaf id array of either lane.
        Sums run in tree order, as the legacy ``total +=
        tree.predict_proba(X)`` did: IEEE addition order shows in the
        low bits, and ``np.sum`` turns pairwise when the other axes
        have length 1.  Small batches use one sequential
        ``np.add.accumulate`` instead of a numpy call per tree; adding
        0.0 maps a -0.0 total to +0.0 like the zero-started loop.
        """
        if leaves.shape[1] <= SCALAR_LANE_MAX:
            trees = np.arange(self.n_trees)[:, None]
            gathered = self.leaf_proba[trees, leaves]
            return np.add.accumulate(gathered, axis=0)[-1] + 0.0
        total = np.zeros((leaves.shape[1], self.n_classes),
                         dtype=np.float64)
        for tree in range(self.n_trees):  # repro: noqa[PAR005] — sequential tree-order accumulation keeps IEEE addition order identical to the legacy per-tree loop
            total += self.leaf_proba[tree, leaves[tree]]
        return total

    def split_counts(self) -> np.ndarray:
        """Split counts per feature over the whole forest.

        Padding nodes carry the leaf sentinel, so they never count.
        """
        used = self.features[self.features >= 0]
        return np.bincount(used, minlength=self.n_features) \
            .astype(np.float64)


def descend_scalar(tables: Sequence[ForestTable],
                   X: np.ndarray) -> np.ndarray:
    """The scalar lane: leaf id per (tree, row) of all tables' trees.

    Rows of the result follow ``tables``, then tree order; each table's
    block equals its :meth:`ForestTable.descend`.
    """
    rows = X.tolist()
    leaves = []
    for table in tables:
        for features, thresholds, left, right in table._lane_lists():
            for row in rows:  # repro: noqa[PAR005] — the scalar small-batch lane: below SCALAR_LANE_MAX rows a Python walk beats the vector descent's fixed per-level cost
                node = 0
                feature = features[0]
                while feature >= 0:
                    node = (left[node] if row[feature] <= thresholds[node]
                            else right[node])
                    feature = features[node]
                leaves.append(node)
    n_trees = sum(table.n_trees for table in tables)
    return np.array(leaves, dtype=np.intp).reshape(n_trees, len(rows))


def predict_proba_sums(tables: Sequence[ForestTable],
                       X: np.ndarray) -> List[np.ndarray]:
    """Each table's :meth:`ForestTable.leaf_sum` over ``X``.

    Up to :data:`SCALAR_LANE_MAX` rows, one :func:`descend_scalar` pass
    serves every table; larger batches descend table by table.
    """
    if len(X) > SCALAR_LANE_MAX:
        return [table.leaf_sum(table.descend(X)) for table in tables]
    leaves = descend_scalar(tables, X)
    sums = []
    for table in tables:
        sums.append(table.leaf_sum(leaves[:table.n_trees]))
        leaves = leaves[table.n_trees:]
    return sums
