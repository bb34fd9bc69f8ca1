"""``repro.runtime`` — parallel execution + trace caching for the pipeline.

One process-global configuration decides how much hardware the
capture→train→attack pipeline may use and whether simulated captures
are memoised on disk.  Hot paths ask this module for their executor
(:func:`mapper`) and their cache (:func:`trace_cache`) instead of
hard-coding either, so a single CLI flag or environment variable tunes
the whole pipeline:

* ``REPRO_WORKERS`` — default worker count (1 = serial);
* ``REPRO_TRACE_CACHE`` — ``0``/``off`` disables the on-disk cache;
* ``REPRO_TRACE_CACHE_DIR`` — cache location (default: XDG cache home);
* ``REPRO_TRACE_CACHE_MB`` — LRU size bound in megabytes.

The cache holds clean simulations only, one ``TraceSet`` NPZ per
capture or conversation, keyed on the capture parameters and the
whole-source :func:`code_fingerprint`; the process-wide
:func:`fault_plan` is applied to what the cache returns, so faulted
and clean runs share entries.

:func:`configure` sets knobs for the process; :func:`overrides` scopes
them to a ``with`` block (used by experiment drivers' ``workers=``
parameters and by tests).  :func:`stats` exposes the cache counters and
a cross-cutting *simulations* counter, which is how the acceptance
check "a warm-cache rerun performs zero trace simulations" is verified.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from .. import obs
from .cache import (CACHE_DIR_ENV, CACHE_ENV, CACHE_MB_ENV, CacheStats,
                    TraceCache, cache_enabled_from_env, code_fingerprint,
                    default_cache_dir, max_bytes_from_env)
from .parallel import WORKERS_ENV, ParallelMap, in_worker, workers_from_env

__all__ = [
    "CacheStats", "ParallelMap", "RuntimeStats", "TraceCache",
    "code_fingerprint", "configure", "fault_plan", "mapper", "overrides",
    "record_simulations", "reset_stats", "stats", "trace_cache",
    "CACHE_ENV", "CACHE_DIR_ENV", "CACHE_MB_ENV", "WORKERS_ENV",
]

#: Sentinel distinguishing "leave the fault plan alone" (the default)
#: from an explicit ``fault_plan=None`` meaning "clear it".
_KEEP = object()


@dataclass(frozen=True)
class _Config:
    """Process-level runtime knobs; ``None`` defers to the environment."""

    workers: Optional[int] = None
    cache_enabled: Optional[bool] = None
    cache_dir: Optional[Path] = None
    cache_max_bytes: Optional[int] = None
    # The process-wide FaultPlan (repro.faults) applied to every
    # simulated capture; stored untyped to keep runtime import-light.
    fault_plan: Optional[object] = None


_config = _Config()
_cache: Optional[TraceCache] = None
_cache_config: Optional[tuple] = None
_simulations = 0


def configure(workers: Optional[int] = None,
              cache_enabled: Optional[bool] = None,
              cache_dir: Optional[Union[str, Path]] = None,
              cache_max_bytes: Optional[int] = None,
              fault_plan: object = _KEEP) -> None:
    """Set process-wide runtime knobs (``None`` leaves a knob alone).

    ``fault_plan`` uses a sentinel default instead: passing ``None``
    *clears* the plan (fault-free runs), omitting it leaves the current
    plan in place.
    """
    global _config
    updates = {}
    if workers is not None:
        updates["workers"] = max(1, int(workers))
    if cache_enabled is not None:
        updates["cache_enabled"] = bool(cache_enabled)
    if cache_dir is not None:
        updates["cache_dir"] = Path(cache_dir)
    if cache_max_bytes is not None:
        updates["cache_max_bytes"] = int(cache_max_bytes)
    if fault_plan is not _KEEP:
        updates["fault_plan"] = fault_plan
    _config = replace(_config, **updates)


@contextmanager
def overrides(workers: Optional[int] = None,
              cache_enabled: Optional[bool] = None,
              cache_dir: Optional[Union[str, Path]] = None,
              cache_max_bytes: Optional[int] = None,
              fault_plan: object = _KEEP):
    """Scope runtime knobs to a ``with`` block, then restore them."""
    global _config
    saved = _config
    try:
        configure(workers=workers, cache_enabled=cache_enabled,
                  cache_dir=cache_dir, cache_max_bytes=cache_max_bytes,
                  fault_plan=fault_plan)
        yield
    finally:
        _config = saved


def resolve_workers(explicit: Optional[int] = None) -> int:
    """Worker count: explicit arg > configure() > env > 1 (serial)."""
    if explicit is not None:
        return max(1, int(explicit))
    if _config.workers is not None:
        return _config.workers
    return workers_from_env(default=1)


def mapper(workers: Optional[int] = None) -> ParallelMap:
    """The executor the hot paths fan out through."""
    return ParallelMap(workers=resolve_workers(workers))


def fault_plan() -> Optional[object]:
    """The process-wide FaultPlan, or ``None`` for fault-free runs.

    ``repro.faults.apply_plan`` treats ``None`` and noop plans alike,
    so this returns the configured plan as is.
    """
    return _config.fault_plan


def trace_cache() -> Optional[TraceCache]:
    """The process trace cache, or ``None`` when caching is off.

    The instance is rebuilt whenever the effective (dir, bound) pair
    changes — e.g. inside an :func:`overrides` block pointing at a
    test's tmp directory — so stats counters always belong to the
    directory they describe.
    """
    global _cache, _cache_config
    enabled = (_config.cache_enabled
               if _config.cache_enabled is not None
               else cache_enabled_from_env(default=True))
    if not enabled:
        return None
    directory = _config.cache_dir or default_cache_dir()
    max_bytes = (_config.cache_max_bytes
                 if _config.cache_max_bytes is not None
                 else max_bytes_from_env())
    current = (str(directory), max_bytes)
    if _cache is None or _cache_config != current:
        _cache = TraceCache(directory, max_bytes=max_bytes)
        _cache_config = current
    return _cache


# -- counters -------------------------------------------------------------------


@dataclass(frozen=True)
class RuntimeStats:
    """Snapshot of the runtime's work counters.

    ``simulations`` counts actual simulator invocations (cache misses
    and cache-off runs both increment it); on a fully warm cache it
    stays at zero — the acceptance criterion for table regenerations.
    """

    simulations: int
    cache: CacheStats

    def as_dict(self) -> dict:
        out = {"simulations": self.simulations}
        out.update(self.cache.as_dict())
        return out


def record_simulations(count: int = 1) -> None:
    """Count trace simulations actually executed (not cache hits)."""
    global _simulations
    _simulations += count
    obs.counter("runtime.simulations").inc(count)


def stats() -> RuntimeStats:
    cache = trace_cache()
    cache_stats = cache.stats if cache is not None else CacheStats()
    return RuntimeStats(simulations=_simulations,
                        cache=replace(cache_stats))


def reset_stats() -> None:
    """Zero the counters (tests and benchmark setup)."""
    global _simulations
    _simulations = 0
    cache = trace_cache()
    if cache is not None:
        cache.stats = CacheStats()
