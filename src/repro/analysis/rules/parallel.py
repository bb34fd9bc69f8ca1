"""Parallel/cache-safety rules (``PAR0xx``).

The runtime's contract (``repro.runtime``): fan-out goes through
``ParallelMap`` (ordered results, nesting guard, serial fallback), and
every trace-cache key includes the simulator code fingerprint so a
source edit can never resurrect stale traces.  These rules keep new
call sites inside that contract.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..engine import (ModuleContext, Rule, call_name, is_mapper_receiver,
                      names_in, register)

#: Modules whose TTI hot path is vectorised (``repro.lte.engine`` and
#: friends): per-UE work there belongs in array operations over the
#: parallel UE columns, not Python loops.  New array-backed modules
#: register themselves here; the shipped lint baseline stays empty, so
#: a loop that must stay scalar carries an inline
#: ``# repro: noqa[PAR004]`` with a justifying comment instead of a
#: baseline entry.
VECTORIZED_HOT_PATHS = frozenset({
    "repro.lte.engine",
    "repro.lte.vecsched",
    "repro.lte.tbs",
})

#: Loop-variable names that signal per-UE / per-grant iteration.
_PER_UE_NAMES = frozenset({
    "ue", "ctx", "context", "demand", "grant", "record", "allocation",
})

#: Modules whose *inference* hot path is vectorised (flattened forest
#: descent, batched DTW wavefront, chunked kNN voting): per-tree or
#: per-row work there belongs in array operations over the stacked
#: node tables / pair batches.  Same contract as
#: :data:`VECTORIZED_HOT_PATHS` — the baseline stays empty and a loop
#: that must stay scalar carries ``# repro: noqa[PAR005]`` with a
#: justification.
INFERENCE_HOT_PATHS = frozenset({
    "repro.ml.tables",
    "repro.ml.tree",
    "repro.ml.forest",
    "repro.ml.knn",
    "repro.ml.dtw",
    "repro.core.correlation",
})

#: Loop-variable names that signal per-tree / per-row / per-pair
#: iteration in the inference plane.
_PER_PREDICTION_NAMES = frozenset({
    "tree", "row", "sample", "pair", "cell", "vote", "neighbour",
    "neighbor",
})


@register
class UnpicklableWorkRule(Rule):
    """PAR001: ParallelMap work functions must cross process boundaries.

    A lambda or a function defined inside another function cannot be
    pickled, so the process backend silently degrades to serial — the
    fan-out *works* but stops scaling, which no test catches.  Bind
    parameters with ``functools.partial`` over a module-level function.
    """

    id = "PAR001"
    family = "parallel"
    title = "unpicklable work function passed to ParallelMap.map"
    node_types = (ast.Call,)

    def check(self, node: ast.Call,
              module: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr == "map" and node.args):
            return
        if not is_mapper_receiver(node.func.value, module):
            return
        work = node.args[0]
        if isinstance(work, ast.Lambda):
            yield work, (
                "lambda passed to ParallelMap.map cannot be pickled — "
                "the process backend silently falls back to serial; "
                "use functools.partial over a module-level function")
        elif (isinstance(work, ast.Name)
              and work.id in module.nested_def_names):
            yield work, (
                f"`{work.id}` is defined inside a function and cannot "
                f"be pickled — the process backend silently falls back "
                f"to serial; move it to module level")


@register
class HandRolledCacheKeyRule(Rule):
    """PAR002: trace-cache keys come from ``TraceCache.key(...)``.

    ``TraceCache.key`` folds the simulator code fingerprint into every
    digest; a literal or hand-hashed key bypasses that, so editing the
    simulator would keep serving stale traces forever.
    """

    id = "PAR002"
    family = "parallel"
    title = "cache key bypasses TraceCache.key (no code fingerprint)"
    node_types = (ast.Call,)

    def check(self, node: ast.Call,
              module: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in ("get", "put") and node.args):
            return
        receiver = func.value
        receiver_name = None
        if isinstance(receiver, ast.Name):
            receiver_name = receiver.id
        elif isinstance(receiver, ast.Attribute):
            receiver_name = receiver.attr
        if receiver_name is None or "cache" not in receiver_name.lower():
            return
        key = node.args[0]
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            yield key, (
                "literal cache key skips the code fingerprint; derive "
                "keys with TraceCache.key(**params)")
        elif (isinstance(key, ast.Call)
              and isinstance(key.func, ast.Attribute)
              and key.func.attr in ("hexdigest", "digest")):
            yield key, (
                "hand-hashed cache key skips the code fingerprint; "
                "derive keys with TraceCache.key(**params)")


@register
class RawPoolRule(Rule):
    """PAR003: no raw process/thread pools outside ``repro.runtime``.

    Raw pools lose ParallelMap's guarantees (submission-order results,
    the nested-pool guard, pickling fallback) and fork-bomb when a
    worker spawns its own pool.
    """

    id = "PAR003"
    family = "parallel"
    title = "raw executor/pool outside repro.runtime"
    node_types = (ast.Call,)

    def applies_to(self, module: ModuleContext) -> bool:
        return not module.in_package("runtime")

    def check(self, node: ast.Call,
              module: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        name = call_name(node)
        if name is None:
            return
        parts = name.split(".")
        last = parts[-1]
        if last in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
            yield node, (
                f"`{name}` bypasses runtime.ParallelMap (ordered "
                f"results, nesting guard); use runtime.mapper(workers)")
        elif last == "Pool" and parts[0] in ("multiprocessing", "mp"):
            yield node, (
                f"`{name}` bypasses runtime.ParallelMap (ordered "
                f"results, nesting guard); use runtime.mapper(workers)")


@register
class PerUELoopRule(Rule):
    """PAR004: no per-UE Python loops in vectorized hot-path modules.

    The batched TTI engine exists because per-UE Python loops made the
    simulator O(interpreter) per TTI; a loop over UE contexts, demands
    or grants re-introduces exactly that cost on the hottest path, and
    nothing but a benchmark would catch it.  Loops are recognised by
    their loop-variable names (``ue``, ``ctx``, ``demand``, ``grant``,
    ``allocation``, ...) or by iterating ``<contexts>.values()``.

    Legitimate scalar loops — legacy-parity paths whose draw order is
    observable, or per-event work outside the steady state — carry an
    inline ``# repro: noqa[PAR004]`` with a justification; the baseline
    stays empty.
    """

    id = "PAR004"
    family = "parallel"
    title = "per-UE Python loop in a vectorized hot-path module"
    node_types = (ast.For,)

    def applies_to(self, module: ModuleContext) -> bool:
        return module.dotted in VECTORIZED_HOT_PATHS

    def check(self, node: ast.For,
              module: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        per_ue = sorted(_PER_UE_NAMES & names_in(node.target))
        if per_ue:
            yield node, (
                f"loop over `{per_ue[0]}` iterates per UE in a "
                f"vectorized hot-path module — batch it with array "
                f"operations over the UE columns, or justify the "
                f"scalar path with `# repro: noqa[PAR004]`")
            return
        iterated = node.iter
        if (isinstance(iterated, ast.Call)
                and isinstance(iterated.func, ast.Attribute)
                and iterated.func.attr == "values"
                and not iterated.args):
            receiver = iterated.func.value
            receiver_name = None
            if isinstance(receiver, ast.Name):
                receiver_name = receiver.id
            elif isinstance(receiver, ast.Attribute):
                receiver_name = receiver.attr
            if receiver_name and "context" in receiver_name.lower():
                yield node, (
                    f"loop over `{receiver_name}.values()` walks every "
                    f"UE context in a vectorized hot-path module — "
                    f"batch it with array operations over the UE "
                    f"columns, or justify the scalar path with "
                    f"`# repro: noqa[PAR004]`")


@register
class PerPredictionLoopRule(Rule):
    """PAR005: no per-tree/per-row Python loops in inference modules.

    The inference plane is array programs — flattened node tables
    descend all trees × all rows at once, the DTW wavefront scores a
    whole chunk of pairs per diagonal, kNN votes with one bincount per
    block.  A Python loop over trees, rows, samples, pairs or votes in
    these modules re-introduces interpreter cost on the prediction hot
    path, and only a benchmark regression would catch it.  Loops are
    recognised by their loop-variable names (``tree``, ``row``,
    ``pair``, ``vote``, ...) or by iterating a ``.trees_`` attribute.

    Legitimate scalar loops — IEEE accumulation-order parity with a
    legacy path, a small-batch scalar lane whose crossover a benchmark
    measured — carry an inline ``# repro: noqa[PAR005]`` with a
    justification; the baseline stays empty.
    """

    id = "PAR005"
    family = "parallel"
    title = "per-tree/per-row Python loop in a vectorized inference module"
    node_types = (ast.For,)

    def applies_to(self, module: ModuleContext) -> bool:
        return module.dotted in INFERENCE_HOT_PATHS

    def check(self, node: ast.For,
              module: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        per_prediction = sorted(_PER_PREDICTION_NAMES
                                & names_in(node.target))
        if per_prediction:
            yield node, (
                f"loop over `{per_prediction[0]}` iterates per "
                f"prediction in a vectorized inference module — batch "
                f"it over the stacked node tables / pair arrays, or "
                f"justify the scalar path with `# repro: noqa[PAR005]`")
            return
        iterated = node.iter
        if isinstance(iterated, ast.Attribute) and iterated.attr == "trees_":
            yield node, (
                "loop over `.trees_` walks the forest tree by tree in "
                "a vectorized inference module — descend the stacked "
                "ForestTable instead, or justify the scalar path with "
                "`# repro: noqa[PAR005]`")
