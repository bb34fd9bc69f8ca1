"""Interprocedural dataflow rules (``SEED0xx``/``FLOW0xx``/``CACHE0xx``).

These are the whole-program checks the per-file families cannot
express: they run over :class:`repro.analysis.dataflow.ProjectAnalysis`
(import/call graph + fixpoint summaries) instead of per-node dispatch.

* **SEED001** — every seeded-RNG construction must trace, through local
  flows and across call edges, to an explicit seed parameter (or
  ``self``) or a registered derivation (SHA-256 schemes, ``rng_for``).
  Inside :mod:`repro.faults`, whose contract is that corrupting a trace
  is a pure function of ``(plan, seed)``, it is stricter: every sampler
  draw (``rng.uniform(...)``) must come from a parameter or from a
  generator the function constructs from a seed.
* **SEED002** — a seed-like parameter (``seed``, ``*_seed``, ``rng``,
  ...) that is accepted but never used locally nor forwarded into any
  *live* parameter of a resolved callee: the seed dies in transit and
  two different seeds produce byte-identical (and wrongly shared)
  results.
* **FLOW001** — ParallelMap work functions must be transitively pure
  of module-global mutation: a worker that mutates module state in a
  subprocess loses the mutation on join, so serial and process
  backends diverge — exactly the bit-identity the runtime contract
  promises.  (PAR001 checks picklability; this checks purity.)
* **FLOW002** — no in-place writes into arrays that can alias a
  read-only memory-mapped view (``from_npz(..., mmap_mode=…)``): at
  best they crash with ``not writeable``, at worst
  (``mmap_mode="r+"``) they corrupt the cache entry every other run
  reads.
* **CACHE001** — parameters that flow into a cached value must also
  flow into its cache key: an omitted knob means two different
  configurations share one cache entry, and the second run silently
  reads the first run's bytes.  Interprocedural upgrade of PAR002 —
  key helpers are resolved across modules via the key-parameter
  fixpoint.
"""

from __future__ import annotations

from typing import Iterator, Set, Tuple

from ..dataflow import RNG_CONSTRUCTORS, ProjectAnalysis, _value_names
from ..engine import ProjectRule, dotted_name, register

#: Parameters that steer *how* a value is computed, never its bytes.
_KEY_EXEMPT = frozenset({
    "self", "cls", "workers", "mapper", "progress", "verbose",
})


def _in_faults(dotted: str) -> bool:
    return dotted == "repro.faults" or dotted.startswith("repro.faults.")


@register
class SeedProvenanceRule(ProjectRule):
    """SEED001: every RNG construction traces to a seed parameter."""

    id = "SEED001"
    family = "dataflow"
    title = "RNG constructed without traceable seed provenance"

    def check_project(self, analysis: ProjectAnalysis
                      ) -> Iterator[Tuple[object, object, str]]:
        for facts in analysis.iter_facts():
            if _in_faults(facts.symbols.dotted):
                yield from self._fault_draws(facts)
            for construct in facts.rng:
                if construct.derived or construct.resolved_params:
                    continue
                where = "a constant" if construct.constant else (
                    "a value with no traceable seed parameter")
                yield facts.symbols, construct.node, (
                    f"`{construct.constructor}(...)` is seeded from "
                    f"{where}; thread an explicit seed parameter to "
                    f"this construction (or derive it with a "
                    f"registered scheme like FaultPlan.rng_for) so "
                    f"replays and cache keys see the same stream")

    @staticmethod
    def _fault_draws(facts) -> Iterator[Tuple[object, object, str]]:
        """Fault-layer draws from a name that is neither a parameter
        nor bound to a seeded construction in the function."""
        for draw in facts.draws:
            base = draw.func.value.id
            if base in facts.all_params:
                continue
            source = facts.assign_calls.get(base)
            if (source is not None
                    and dotted_name(source.func) in RNG_CONSTRUCTORS
                    and (source.args or source.keywords)):
                continue
            yield facts.symbols, draw, (
                f"`{base}.{draw.func.attr}()` draws from an RNG with no "
                f"traceable seed parameter; accept the generator (or "
                f"its seed) as an explicit function parameter")


@register
class DeadSeedRule(ProjectRule):
    """SEED002: a seed parameter accepted but dead in transit."""

    id = "SEED002"
    family = "dataflow"
    title = "seed parameter accepted but never reaches an RNG"

    def check_project(self, analysis: ProjectAnalysis
                      ) -> Iterator[Tuple[object, object, str]]:
        for facts in analysis.iter_facts():
            if facts.trivial or not facts.seed_like:
                continue
            live = analysis.live_params.get(facts.info.qualname, set())
            for param in facts.seed_like:
                if param in live:
                    continue
                yield facts.symbols, facts.info.node, (
                    f"`{facts.info.name}()` accepts `{param}` but "
                    f"never uses it nor forwards it into a live "
                    f"callee parameter — the seed dies in transit, so "
                    f"different seeds produce identical results; wire "
                    f"it through or drop the parameter")


@register
class ImpureWorkerRule(ProjectRule):
    """FLOW001: ParallelMap work functions are transitively pure."""

    id = "FLOW001"
    family = "dataflow"
    title = "ParallelMap work function mutates module state"

    def check_project(self, analysis: ProjectAnalysis
                      ) -> Iterator[Tuple[object, object, str]]:
        for facts in analysis.iter_facts():
            for work in facts.mapper_works:
                if work.work is None:
                    continue
                witness = analysis.mutation_witness.get(
                    work.work.qualname)
                if witness is None:
                    continue
                origin, what = witness
                via = ("" if origin == work.work.qualname
                       else f" (via `{origin}`)")
                yield facts.symbols, work.node, (
                    f"work function `{work.label}` {what}{via}; "
                    f"process workers lose the mutation on join, so "
                    f"serial and process backends diverge — make the "
                    f"worker a pure function of its item")


@register
class MmapWriteRule(ProjectRule):
    """FLOW002: no in-place writes into mmap-backed array views."""

    id = "FLOW002"
    family = "dataflow"
    title = "in-place write into a memory-mapped array view"

    def check_project(self, analysis: ProjectAnalysis
                      ) -> Iterator[Tuple[object, object, str]]:
        for facts in analysis.iter_facts():
            qualname = facts.info.qualname
            tainted = analysis.tainted_locals.get(qualname, set())
            for write in facts.writes:
                if write.base not in tainted:
                    continue
                yield facts.symbols, write.node, (
                    f"{write.what} targets `{write.base}`, which can "
                    f"alias a read-only mmap view (from_npz(..., "
                    f"mmap_mode=…)); copy before mutating — "
                    f"in-place writes crash on read-only maps and "
                    f"corrupt shared cache entries on writable ones")
            for callee, param, name, node in facts.direct_args:
                if name not in tainted:
                    continue
                if param not in analysis.writes_params.get(callee, ()):
                    continue
                yield facts.symbols, node, (
                    f"`{name}` can alias a read-only mmap view and "
                    f"`{callee.rsplit('.', 1)[-1]}()` writes its "
                    f"`{param}` parameter in place; pass a copy or "
                    f"make the callee copy-on-write")


@register
class IncompleteCacheKeyRule(ProjectRule):
    """CACHE001: cache keys cover every parameter the value reads."""

    id = "CACHE001"
    family = "dataflow"
    title = "cache key omits a parameter the cached value depends on"

    def check_project(self, analysis: ProjectAnalysis
                      ) -> Iterator[Tuple[object, object, str]]:
        for facts in analysis.iter_facts():
            own: Set[str] = set(facts.info.params)
            for put in facts.puts:
                covered = analysis.covered_key_params(facts,
                                                      put.key_expr)
                if covered is None:
                    continue  # key built by code we cannot resolve
                relevant = set(
                    facts.resolve(_value_names(put.value_expr))) & own
                candidates = sorted(relevant - set(covered) - _KEY_EXEMPT)
                missing = [p for p in candidates
                           if "cache" not in p.lower()]
                if not missing:
                    continue
                listed = ", ".join(f"`{p}`" for p in missing)
                yield facts.symbols, put.node, (
                    f"cache key omits {listed}, which flow(s) into "
                    f"the stored value — two configurations differing "
                    f"only there would share one cache entry; fold "
                    f"them into the key (TraceCache.key(**params)) or "
                    f"hoist them out of the computation")
