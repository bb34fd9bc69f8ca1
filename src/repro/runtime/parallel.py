"""Deterministic fan-out: the ``ParallelMap`` executor abstraction.

The attacker cost model (§VII-D) prices the attack by how much capture
an adversary can process per unit compute, so every embarrassingly
parallel stage of the pipeline — trace simulation, per-tree forest
fitting, cross-validation folds, pairwise DTW scoring — funnels through
this one abstraction.  Two backends exist:

* ``serial`` — a plain in-process loop (the default, and the fallback
  whenever the work function cannot cross a process boundary);
* ``process`` — a ``ProcessPoolExecutor`` fan-out.

Determinism is non-negotiable: callers pre-derive any per-item seeds
*before* the fan-out, the work function must be a pure function of its
item, and results are reassembled in submission order.  Under those
rules a run with 8 workers is bit-identical to a run with 1.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from .. import obs

T = TypeVar("T")
R = TypeVar("R")

#: Environment knob: default worker count for every ParallelMap.
WORKERS_ENV = "REPRO_WORKERS"

#: Set in pool workers so nested fan-outs degrade to serial instead of
#: spawning pools-of-pools (oversubscription and fork-bomb guard).
_IN_WORKER = False


def _mark_worker() -> None:
    """Pool initializer: flag this process as a worker."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    """True when running inside a ParallelMap pool worker."""
    return _IN_WORKER


def workers_from_env(default: int = 1) -> int:
    """Resolve the worker count from ``REPRO_WORKERS`` (>= 1)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV} must be an integer: {raw!r}") from None


class _TaskError(Exception):
    """Carries an exception raised by ``fn`` itself out of a worker.

    Tagging it keeps ``fn``'s own ``TypeError``/``AttributeError`` apart
    from the pickling failures that send a batch to the serial backend.
    """


def _call(fn: Callable, item):
    """Run ``fn`` on one item in a worker, tagging its exceptions."""
    try:
        return fn(item)
    except Exception as error:
        raise _TaskError(error) from error


def _run_batch(fn: Callable, batch: Sequence) -> List:
    """Apply ``fn`` item-wise to one batch (module-level: picklable)."""
    return [fn(item) for item in batch]


def _pool_context():
    """Prefer fork (cheap, inherits sys.path) where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class ParallelMap:
    """Ordered, deterministic map over items with a pluggable backend.

    Args:
        workers: pool size; ``None`` reads ``REPRO_WORKERS``, and
            anything <= 1 selects the serial backend.
        backend: force ``"serial"`` or ``"process"``; ``None`` picks
            from ``workers``.
    """

    def __init__(self, workers: Optional[int] = None,
                 backend: Optional[str] = None) -> None:
        if workers is None:
            workers = workers_from_env()
        self.workers = max(1, int(workers))
        if _IN_WORKER:               # never nest process pools
            self.workers = 1
        if backend is None:
            backend = "process" if self.workers > 1 else "serial"
        if backend not in ("serial", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "process" and self.workers <= 1:
            backend = "serial"
        self.backend = backend

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ParallelMap(workers={self.workers}, backend={self.backend!r})"

    # -- execution ----------------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item; results in submission order.

        The process backend silently degrades to serial when ``fn``, the
        items or the results cannot be pickled (lambdas, closures over
        sockets...), so callers never need to special-case the backend.
        An exception raised by ``fn`` itself propagates once, chained to
        the worker's traceback; the batch is not rerun.
        """
        items = list(items)
        with obs.span("parallel.map"):
            obs.counter("runtime.parallel.batches").inc()
            obs.counter("runtime.parallel.items").inc(len(items))
            if self.backend == "serial" or len(items) <= 1:
                return [fn(item) for item in items]
            if not self._picklable(fn):
                obs.counter("runtime.parallel.serial_fallbacks").inc()
                return [fn(item) for item in items]
            try:
                return self._process_map(fn, items)
            except _TaskError as failure:
                raise failure.args[0] from failure.__cause__
            except (pickle.PicklingError, BrokenProcessPool, TypeError,
                    AttributeError):
                # Unpicklable items/results or a torn-down pool (fn's
                # own exceptions arrive as _TaskError): redo the whole
                # batch serially — fn is pure, so this is safe.
                obs.counter("runtime.parallel.serial_fallbacks").inc()
                return [fn(item) for item in items]

    def map_batched(self, fn: Callable[[T], R], items: Iterable[T],
                    batch_size: Optional[int] = None) -> List[R]:
        """Like :meth:`map`, but ships contiguous *batches* to workers.

        One pool task per batch instead of one per item, so small work
        units (per-shard simulation epochs, per-trace feature jobs)
        amortise pickling and IPC instead of paying it per item.
        Results are flattened back in submission order, so the output
        is element-for-element identical to ``map(fn, items)`` on any
        backend and any ``batch_size``.

        ``batch_size`` defaults to ``ceil(len(items) / (workers * 4))``
        — four batches per worker, the same oversubscription ratio the
        chunked process backend uses.
        """
        items = list(items)
        if not items:
            return []
        if batch_size is None:
            batch_size = max(1, math.ceil(len(items) / (self.workers * 4)))
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        batches = [items[start:start + batch_size]
                   for start in range(0, len(items), batch_size)]
        nested = self.map(functools.partial(_run_batch, fn), batches)
        return [result for batch in nested for result in batch]

    def _process_map(self, fn: Callable[[T], R],
                     items: Sequence[T]) -> List[R]:
        n_workers = min(self.workers, len(items))
        # Chunk so shared state bound into fn (e.g. a training matrix in
        # a functools.partial) is pickled ~once per chunk, not per item.
        chunksize = max(1, math.ceil(len(items) / (n_workers * 4)))
        with ProcessPoolExecutor(max_workers=n_workers,
                                 mp_context=_pool_context(),
                                 initializer=_mark_worker) as pool:
            return list(pool.map(functools.partial(_call, fn), items,
                                 chunksize=chunksize))

    @staticmethod
    def _picklable(obj) -> bool:
        try:
            pickle.dumps(obj)
            return True
        except Exception:
            return False
