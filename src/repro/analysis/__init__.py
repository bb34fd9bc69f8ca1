"""``repro.analysis`` — the repo's domain-specific static analyser.

A stdlib-``ast`` lint engine (no dependencies beyond the standard
library) enforcing the invariants the reproduction's claims rest on:

* **determinism** — seeded, replayable simulation: no wall-clock
  reads, no global-RNG draws, no set-iteration-order leaks (DET0xx);
* **numeric safety** — bit-exact decoding: validated scatter indices,
  no in-place writes into columnar Trace arrays, no narrowing dtypes
  (NUM0xx);
* **parallel/cache safety** — the runtime contract: picklable
  ParallelMap work functions, fingerprinted cache keys, no raw pools
  (PAR0xx);
* **obs coverage** — complete manifests: ``@obs.timed`` drivers,
  loop-free instrument registration (OBS0xx);
* **whole-program dataflow** — interprocedural seed provenance and
  liveness, transitive worker purity, mmap-aliased writes, cache-key
  completeness (SEED0xx/FLOW0xx/CACHE001), over the import/call graph
  of :mod:`repro.analysis.graph` and the fixpoint summaries of
  :mod:`repro.analysis.dataflow`.

Run it as ``python -m repro.cli lint src`` (or ``make lint``):
:func:`~repro.analysis.engine.lint_paths` lints the tree in one
sequential pass, every run from scratch.  See
:mod:`repro.analysis.engine` for suppression and baseline semantics,
and EXPERIMENTS.md for how to add a rule.
"""

from .engine import (Finding, LintResult, Rule, all_rules, lint_paths,
                     lint_source, register)

__all__ = [
    "Finding", "LintResult", "Rule", "all_rules", "lint_paths",
    "lint_source", "register",
]
