"""``repro.obs`` — process-wide observability: metrics, spans, manifests.

The paper's attacker cost model (§VIII) and the robustness studies
(Figs. 8–9) quantify the pipeline — decode/reject rates, RNTI-tracking
churn, training time, cache behaviour — so every layer needs one
consistent way to count and time itself.  This package provides it:

* a **metrics registry** of named counters, gauges, and fixed-bucket
  histograms (:func:`counter`, :func:`gauge`, :func:`histogram`);
* **span timing** (``with obs.span("forest.fit"): ...``) aggregated
  per span name (count / total / min / max wall seconds);
* **run manifests** (:mod:`repro.obs.manifest`): one JSON line per
  experiment run capturing parameters, the code fingerprint, span wall
  times, and the final metric snapshot.

Instrumentation is disabled by default (``REPRO_OBS=0`` is the
default); ``REPRO_OBS=1`` or the CLI's ``--obs-out`` enables it.  When
disabled, :func:`counter` and friends hand out shared *null* objects
whose methods are no-ops, and :func:`span` returns a reusable null
context manager — the instrumented hot paths pay one attribute load
and one no-op call, nothing else, which is how the <5 % overhead
target on ``make bench-columnar`` is met.

Components whose counters back **public attributes** (e.g.
``DCIDecoder.decoded``) use :func:`attr_counter` instead: the returned
:class:`Counter` always counts (so the attribute keeps working with
observability off) but publishes into the registry only while enabled.

Counters are process-local.  ParallelMap *process* workers accumulate
into their own registries, which die with the pool — manifests written
from the parent therefore reflect the parent's serial work plus
everything that ran in-process.  Run heavy commands with ``--workers
1`` (the default) when complete metric capture matters.
"""

from __future__ import annotations

import bisect
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

__all__ = [
    "OBS_ENV", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "SpanStats", "attr_counter", "counter", "enable", "enabled",
    "gauge", "histogram", "override", "registry", "reset", "snapshot",
    "span", "timed",
]

#: Environment knob: "1"/"on" enables collection ("0"/off is the default).
OBS_ENV = "REPRO_OBS"

_TRUE_VALUES = ("1", "on", "true", "yes")


def _enabled_from_env() -> bool:
    return os.environ.get(OBS_ENV, "").strip().lower() in _TRUE_VALUES


#: None defers to the environment; enable()/override() set it explicitly.
_forced: Optional[bool] = None


def enabled() -> bool:
    """Whether instrumentation is being collected right now."""
    if _forced is not None:
        return _forced
    return _enabled_from_env()


def enable(on: bool = True) -> None:
    """Force collection on (or off), overriding ``REPRO_OBS``.

    Only affects instruments handed out *after* the call: components
    fetch their counters at construction time, so enable observability
    before building the pipeline (the CLI does).
    """
    global _forced
    _forced = bool(on)


@contextmanager
def override(on: bool) -> Iterator[None]:
    """Scope :func:`enable` to a ``with`` block (tests)."""
    global _forced
    saved = _forced
    enable(on)
    try:
        yield
    finally:
        _forced = saved


# -- instruments ----------------------------------------------------------------


class _Cell:
    """Shared per-name accumulator counters publish into."""

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0


class Counter:
    """A monotonically increasing count.

    ``inc`` adds to the instance value and, when the counter was
    created while observability was enabled, to the registry's shared
    per-name cell — so registry totals aggregate over every instance
    (each simulated capture builds its own decoder/tracker/mapper) and
    survive instance death.
    """

    __slots__ = ("name", "_value", "_cell")

    def __init__(self, name: str, cell: Optional[_Cell] = None) -> None:
        self.name = name
        self._value = 0
        self._cell = cell

    def inc(self, n: int = 1) -> None:
        self._value += n
        cell = self._cell
        if cell is not None:
            cell.total += n

    @property
    def value(self) -> int:
        return self._value


class _NullCounter:
    """Shared no-op counter handed out while collection is disabled."""

    __slots__ = ()
    name = "<null>"
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry

    def set(self, value: float) -> None:
        self._registry._gauges[self.name] = value


class _NullGauge:
    __slots__ = ()
    name = "<null>"

    def set(self, value: float) -> None:
        pass


class Histogram:
    """Fixed-bucket histogram (upper bounds + overflow bucket)."""

    __slots__ = ("name", "bounds", "counts", "sum", "n")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        self.name = name
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.n = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.n += 1

    def as_dict(self) -> dict:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "sum": self.sum, "n": self.n}


class _NullHistogram:
    __slots__ = ()
    name = "<null>"

    def observe(self, value: float) -> None:
        pass


class SpanStats:
    """Aggregated wall-clock timings for one span name."""

    __slots__ = ("name", "count", "total_s", "min_s", "max_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def observe(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    def as_dict(self) -> dict:
        return {"count": self.count, "total_s": self.total_s,
                "min_s": self.min_s if self.count else 0.0,
                "max_s": self.max_s}


class _SpanTimer:
    """Context manager recording one timed section into the registry."""

    __slots__ = ("_stats", "_t0")

    def __init__(self, stats: SpanStats) -> None:
        self._stats = stats
        self._t0 = 0.0

    def __enter__(self) -> "_SpanTimer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stats.observe(time.perf_counter() - self._t0)


class _NullSpan:
    """Reusable no-op context manager (no perf_counter calls)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_SPAN = _NullSpan()


# -- registry -------------------------------------------------------------------


class MetricsRegistry:
    """Process-wide store of counter cells, gauges, histograms, spans.

    Not thread-safe by design: the pipeline parallelises with
    *processes* (ParallelMap), and single-increment races within one
    process do not occur in CPython's evaluation of these methods'
    simple attribute updates under the GIL.
    """

    def __init__(self) -> None:
        self._cells: Dict[str, _Cell] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: Dict[str, SpanStats] = {}

    # -- instrument factories ---------------------------------------------------

    def counter_cell(self, name: str) -> _Cell:
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = _Cell()
        return cell

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, bounds)
        return hist

    def span_stats(self, name: str) -> SpanStats:
        stats = self._spans.get(name)
        if stats is None:
            stats = self._spans[name] = SpanStats(name)
        return stats

    # -- export -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict snapshot of everything collected so far."""
        return {
            "counters": {name: cell.total
                         for name, cell in sorted(self._cells.items())},
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {name: hist.as_dict()
                           for name, hist in sorted(
                               self._histograms.items())},
            "spans": {name: stats.as_dict()
                      for name, stats in sorted(self._spans.items())},
        }

    def reset(self) -> None:
        """Zero every metric (manifest scopes and tests)."""
        self._cells.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._spans.clear()


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry."""
    return _registry


def snapshot() -> dict:
    """Shorthand for ``registry().snapshot()``."""
    return _registry.snapshot()


def reset() -> None:
    """Shorthand for ``registry().reset()``."""
    _registry.reset()


# -- public instrument constructors ---------------------------------------------


def counter(name: str) -> Counter:
    """A registry counter, or a shared no-op when collection is off.

    Use for *pure* metrics with no public-attribute contract (TTI
    counts, fan-out item counts).  For counters that back an existing
    public attribute, use :func:`attr_counter`.
    """
    if not enabled():
        return _NULL_COUNTER            # type: ignore[return-value]
    return Counter(name, _registry.counter_cell(name))


def attr_counter(name: str) -> Counter:
    """A counter that always counts locally, publishing only if enabled.

    The returned object's ``value`` is correct with observability off,
    so public attributes migrated onto the registry keep their exact
    pre-migration behaviour for every caller.
    """
    if not enabled():
        return Counter(name)
    return Counter(name, _registry.counter_cell(name))


def gauge(name: str) -> Gauge:
    """A registry gauge, or a shared no-op when collection is off."""
    if not enabled():
        return _NULL_GAUGE              # type: ignore[return-value]
    return Gauge(name, _registry)


def histogram(name: str, bounds: Sequence[float]) -> Histogram:
    """A registry histogram, or a shared no-op when collection is off."""
    if not enabled():
        return _NULL_HISTOGRAM          # type: ignore[return-value]
    return _registry.histogram(name, bounds)


def span(name: str):
    """Context manager timing a named section (no-op when disabled).

    Cheap enough for per-stage use (collect / fit / predict / cache
    get/put), not for per-record loops — count those instead.
    """
    if not enabled():
        return _NULL_SPAN
    return _SpanTimer(_registry.span_stats(name))


def timed(name: str) -> Callable:
    """Decorator form of :func:`span` (used by the experiment drivers).

    Enablement is checked per call, so a driver imported before
    ``obs.enable()`` still records once collection is on.
    """
    def decorate(fn: Callable) -> Callable:
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)
        return wrapper
    return decorate
