"""Determinism rules (``DET0xx``).

Every table in the paper is regenerated from seeded simulation, and
the trace cache assumes a capture is a pure function of (parameters,
code).  A single wall-clock read or unseeded draw reachable from the
simulation path silently invalidates both, which is why these checks
exist as lint rules rather than reviewer folklore.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..dataflow import GENERATOR_SAMPLERS
from ..engine import ModuleContext, Rule, call_name, register

#: Attribute-chain suffixes that read the wall clock.  ``perf_counter``
#: and ``monotonic`` are deliberately absent: they measure durations,
#: never enter simulated state, and the obs layer depends on them.
_WALL_CLOCK_SUFFIXES = (
    "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "date.today",
)

#: Modules whose sampling functions (the generator sampler names) draw
#: from the *global* process-state RNG.  Seeded generator objects
#: (``np.random.default_rng(seed)``, ``random.Random(seed)``) are the
#: sanctioned pattern.
_RANDOM_MODULE_PREFIXES = ("random.", "np.random.", "numpy.random.")


@register
class WallClockRule(Rule):
    """DET001: no wall-clock reads — simulated time comes from the sim."""

    id = "DET001"
    family = "determinism"
    title = "wall-clock read (time.time / datetime.now)"
    node_types = (ast.Call,)

    def check(self, node: ast.Call,
              module: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        name = call_name(node)
        if name is None:
            return
        for suffix in _WALL_CLOCK_SUFFIXES:
            if name == suffix or name.endswith("." + suffix):
                yield node, (
                    f"wall-clock read `{name}()` breaks seeded "
                    f"replayability; derive times from the simulation "
                    f"clock (manifest provenance may suppress with "
                    f"`# repro: noqa[DET001]`)")
                return


@register
class UnseededRandomRule(Rule):
    """DET002: no draws from the global RNG state."""

    id = "DET002"
    family = "determinism"
    title = "unseeded / global RNG draw"
    node_types = (ast.Call,)

    def check(self, node: ast.Call,
              module: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        name = call_name(node)
        if name is None:
            return
        if name in ("np.random.default_rng", "numpy.random.default_rng"):
            if not node.args and not node.keywords:
                yield node, (
                    "`default_rng()` without a seed draws from OS "
                    "entropy; pass an explicit seed derived from the "
                    "run parameters")
            return
        for prefix in _RANDOM_MODULE_PREFIXES:
            if name.startswith(prefix):
                member = name[len(prefix):]
                if member in GENERATOR_SAMPLERS:
                    yield node, (
                        f"`{name}()` uses the shared global RNG state; "
                        f"use a seeded generator object "
                        f"(np.random.default_rng(seed) / "
                        f"random.Random(seed)) instead")
                return


def _is_set_expr(node: ast.AST) -> bool:
    """Whether ``node`` statically evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("set", "frozenset"):
            return True
        # set.union / intersection / difference method chains
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference"):
            return _is_set_expr(node.func.value)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register
class SetIterationRule(Rule):
    """DET003: no iteration-order-sensitive traversal of sets.

    Set iteration order depends on insertion history and hash
    randomisation; anything it feeds (result lists, dict insertion
    order, round-robin scheduling) becomes run-dependent.  Wrap the
    set in ``sorted(...)`` to fix the order explicitly.
    """

    id = "DET003"
    family = "determinism"
    title = "iteration over an unordered set"
    # SetComp is absent on purpose: a set built from a set leaks no
    # ordering into the result.
    node_types = (ast.For, ast.AsyncFor, ast.GeneratorExp, ast.ListComp,
                  ast.DictComp, ast.Call)

    _MATERIALIZERS = ("list", "tuple", "enumerate", "iter", "next")

    def check(self, node: ast.AST,
              module: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        message = ("iterating a set is order-nondeterministic; wrap it "
                   "in sorted(...) so downstream results are replayable")
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter):
                yield node.iter, message
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp,
                               ast.DictComp)):
            for generator in node.generators:
                if _is_set_expr(generator.iter):
                    yield generator.iter, message
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if name in self._MATERIALIZERS and node.args and _is_set_expr(
                    node.args[0]):
                yield node, message
