"""Span tracing from the benchmark's side of the program boundary.

The benchmark times each layer of the attack pipeline without touching
the program: :func:`install` replaces each layer's public entry points
(listed in :data:`WRAPS`) with thin wrappers that open a span on a
:class:`Tracer`, and :func:`uninstall` puts the originals back.  A
function is patched under its name in every loaded ``repro`` module that
holds it, so callers that imported it by name see the wrapper too;
methods are patched on their class.

A span records its name, start, end and the span that caused it (the
span open when it began).  Spans are kept in memory in flat arrays and
written out once, at the end.  A layer's *self time* is the duration of
its spans minus the part of each span's interval its child spans cover
(:func:`self_times`); the time no layer span claims is reported as
unattributed.

A wrap target that no longer exists is skipped and reported by name in
``missing``; its time then falls to the parent span, and finally to the
unattributed share, instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Marker attribute set on every wrapper (and checked by the self-tests).
WRAPPER_FLAG = "__perfbench_wrapper__"

#: Name of the root span that brackets one timed pass or verdict round.
ROOT_SPANS = ("pass", "verdicts")


class Tracer:
    """In-memory span recorder with a stack of open spans.

    Span ``i`` lives at index ``i`` of four parallel arrays (name id,
    start, end, parent index; ``-1`` for a root).  ``counts`` and
    ``maxima`` collect per-layer work counts the wrappers observe.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: List[int] = [-1]
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)

    def __len__(self) -> int:
        return len(self.starts)

    def begin(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        span_id = len(self.starts)
        self.name_ids.append(index)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(span_id)
        self.starts.append(time.perf_counter())
        return span_id

    def end(self, span_id: int) -> None:
        self.ends[span_id] = time.perf_counter()
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def high_water(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def span_name(self, span_id: int) -> str:
        return self.names[self.name_ids[span_id]]

    def records(self) -> List[Tuple[str, float, float, int]]:
        """Every span as ``(name, start, end, parent)``."""
        return [(self.names[n], s, e, p) for n, s, e, p in
                zip(self.name_ids, self.starts, self.ends, self.parents)]

    def save(self, path) -> None:
        """Write the spans as one NPZ file (names + four columns)."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names, dtype=object).astype(str),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int64))


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Self time of every span: its duration minus what children cover.

    Child intervals are clipped to the parent and merged before their
    length is subtracted, so overlapping or out-of-bounds children never
    drive a self time below zero or count twice.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out: List[float] = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        kids = children.get(index)
        if kids:
            intervals = sorted((max(starts[k], start), min(ends[k], end))
                               for k in kids)
            run_lo, run_hi = intervals[0]
            for lo, hi in intervals[1:]:
                if lo > run_hi:
                    covered += max(0.0, run_hi - run_lo)
                    run_lo, run_hi = lo, hi
                elif hi > run_hi:
                    run_hi = hi
            covered += max(0.0, run_hi - run_lo)
        out.append(max(0.0, (end - start) - covered))
    return out


def _under_roots(tracer: Tracer) -> List[bool]:
    """Whether each span descends from (or is) a :data:`ROOT_SPANS` span.

    Spans outside them (e.g. output checks between passes) are ignored.
    A parent always begins before its children, so one forward sweep
    resolves every span's root.
    """
    roots = array("q")
    for index, parent in enumerate(tracer.parents):
        roots.append(index if parent < 0 else roots[parent])
    return [tracer.span_name(root) in ROOT_SPANS for root in roots]


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    """Sum of self time per span name, over the timed root spans."""
    totals: Dict[str, float] = defaultdict(float)
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    for name_id, value, keep in zip(tracer.name_ids, own,
                                    _under_roots(tracer)):
        if keep:
            totals[tracer.names[name_id]] += value
    return dict(totals)


def root_wall(tracer: Tracer) -> float:
    """Total duration of the timed root spans."""
    return sum(end - start for name_id, start, end, parent in
               zip(tracer.name_ids, tracer.starts, tracer.ends,
                   tracer.parents)
               if parent < 0 and tracer.names[name_id] in ROOT_SPANS)


# -- wrap targets --------------------------------------------------------------


@dataclass(frozen=True)
class Wrap:
    """One public function or method whose calls become ``layer`` spans.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``.
    ``observe(tracer, args, result)`` records counts after each call.
    """

    target: str
    layer: str
    observe: Optional[Callable] = None


def _count_rows(key: str, arg: int) -> Callable:
    def observe(tracer: Tracer, args, result) -> None:
        tracer.count(key, len(args[arg]))
    return observe


def _count_result(key: str) -> Callable:
    def observe(tracer: Tracer, args, result) -> None:
        tracer.count(key, len(result))
    return observe


def _count_call(key: str) -> Callable:
    def observe(tracer: Tracer, args, result) -> None:
        tracer.count(key)
    return observe


def _windowizer_ingest(tracer: Tracer, args, result) -> None:
    windowizer = args[0]
    tracer.count("stream.records", len(args[1]))
    tracer.count("stream.windows_closed", len(result))
    tracer.high_water("stream.ring_high_water", windowizer.ring_high_water)
    tracer.high_water("stream.backlog_max", windowizer.backlog)


def _service_run(tracer: Tracer, args, result) -> None:
    tracer.high_water("stream.close_lag_p99_s", result.lag_p99_s)


#: Layer entry points.  Span names are the per-layer metric stems.
WRAPS: Tuple[Wrap, ...] = (
    Wrap("repro.lte.network:LTENetwork.run_for", "lte"),
    Wrap("repro.sniffer.dci_decoder:DCIDecoder.on_pdcch", "sniffer.decode"),
    Wrap("repro.sniffer.dci_decoder:DCIDecoder.on_pdcch_batch",
         "sniffer.decode"),
    Wrap("repro.sniffer.capture:CellSniffer.on_control", "sniffer.identity"),
    Wrap("repro.sniffer.capture:CellSniffer.trace_for_tmsi", "sniffer.group"),
    Wrap("repro.sniffer.owl:OWLTracker.on_dci", "sniffer.track"),
    Wrap("repro.sniffer.owl:OWLTracker.on_dci_batch", "sniffer.track"),
    Wrap("repro.runtime.parallel:ParallelMap.map_batched", "runtime"),
    Wrap("repro.core.dataset:collect_traces", "core.dataset"),
    Wrap("repro.core.dataset:collect_pairs", "core.dataset"),
    Wrap("repro.core.dataset:windows_from_traces", "core.dataset"),
    Wrap("repro.core.features:extract_features", "core.features",
         _count_result("core.windows")),
    Wrap("repro.core.features:volume_series", "core.volume"),
    Wrap("repro.core.history:HistoryAttack.run", "core.history"),
    Wrap("repro.core.history:segment_episodes", "core.history"),
    Wrap("repro.core.history:evaluate_findings", "core.history"),
    Wrap("repro.core.correlation:CorrelationAttack.fit", "core.correlation"),
    Wrap("repro.core.correlation:CorrelationAttack.score_pair",
         "core.correlation"),
    Wrap("repro.core.correlation:CorrelationAttack.decision_scores",
         "core.correlation"),
    Wrap("repro.core.correlation:similarity_matrix", "core.correlation"),
    Wrap("repro.core.fingerprint:HierarchicalFingerprinter.fit", "ml.fit"),
    Wrap("repro.ml.forest:RandomForest.fit", "ml.fit"),
    Wrap("repro.ml.tree:DecisionTree.fit", "ml.fit"),
    Wrap("repro.core.fingerprint:HierarchicalFingerprinter.predict_apps",
         "ml.predict", _count_rows("ml.rows_predicted", 1)),
    Wrap("repro.core.fingerprint:HierarchicalFingerprinter.classify_trace",
         "ml.predict"),
    Wrap("repro.core.fingerprint:HierarchicalFingerprinter.classify_traces",
         "ml.predict"),
    Wrap("repro.ml.forest:RandomForest.predict_proba", "ml.predict"),
    Wrap("repro.ml.dtw:similarity_score", "ml.dtw_scalar",
         _count_call("ml.dtw_pairs")),
    Wrap("repro.ml.dtw:similarity_score_batch", "ml.dtw_batch",
         _count_rows("ml.dtw_cells", 0)),
    Wrap("repro.ml.logistic:BinaryLogisticRegression.fit", "ml.logistic"),
    Wrap("repro.ml.logistic:BinaryLogisticRegression.decision_scores",
         "ml.logistic"),
    Wrap("repro.stream.windowizer:StreamingWindowizer.ingest",
         "stream.windowizer", _windowizer_ingest),
    Wrap("repro.stream.windowizer:StreamingWindowizer.finish",
         "stream.windowizer", _count_result("stream.windows_closed")),
    Wrap("repro.stream.online:OnlineClassifier.ingest", "stream.online"),
    Wrap("repro.stream.online:OnlineClassifier.finish", "stream.online"),
    Wrap("repro.stream.service:StreamService.run", "stream.service",
         _service_run),
    Wrap("repro.stream.fusion:VerdictFusion.add", "stream.fusion"),
    Wrap("repro.stream.fusion:VerdictFusion.add_votes", "stream.fusion"),
    Wrap("repro.scan.adapters:finding_from_fused", "scan",
         _count_call("scan.findings")),
    Wrap("repro.scan.adapters:source_spans", "scan"),
    Wrap("repro.scan.adapters:profile_findings", "scan"),
)

#: Work functions fanned out through ParallelMap, by defining module:
#: their self time belongs to that layer, not to the runtime.
TASK_LAYERS: Dict[str, str] = {
    "repro.core.dataset": "core.dataset",
    "repro.core.correlation": "core.correlation",
    "repro.ml.forest": "ml.fit",
}


def _plain_wrapper(tracer: Tracer, layer: str, fn: Callable,
                   observe: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id = tracer.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span_id)
        if observe is not None:
            observe(tracer, args, result)
        return result
    return wrapper


def task_layer(fn: Callable) -> str:
    """The layer a ParallelMap work function's own time belongs to."""
    from repro.runtime import parallel

    while isinstance(fn, functools.partial):
        if fn.func is parallel._run_batch and fn.args:
            fn = fn.args[0]
        else:
            fn = fn.func
    return TASK_LAYERS.get(getattr(fn, "__module__", ""), "runtime.task")


def _map_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``ParallelMap.map``: a runtime span whose items are task spans."""
    @functools.wraps(fn)
    def wrapper(self, work, items, *args, **kwargs):
        layer = task_layer(work)

        def task(item):
            span_id = tracer.begin(layer)
            try:
                return work(item)
            finally:
                tracer.end(span_id)

        span_id = tracer.begin("runtime")
        try:
            return fn(self, task, items, *args, **kwargs)
        finally:
            tracer.end(span_id)
    return wrapper


class _TracedSession:
    """An app session iterator whose every advance is an ``apps`` span."""

    def __init__(self, iterator, tracer: Tracer) -> None:
        self._iterator = iterator
        self._tracer = tracer

    def __iter__(self) -> "_TracedSession":
        return self

    def __next__(self):
        span_id = self._tracer.begin("apps")
        try:
            event = next(self._iterator)
        finally:
            self._tracer.end(span_id)
        self._tracer.count("apps.events")
        return event


class _TracedModel:
    """Forwards to an app model; its sessions are :class:`_TracedSession`."""

    def __init__(self, model, tracer: Tracer) -> None:
        self._model = model
        self._tracer = tracer

    def session(self, rng):
        return _TracedSession(self._model.session(rng), self._tracer)

    def __getattr__(self, name: str):
        return getattr(self._model, name)


def _session_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``LTENetwork.start_app_session``: trace the model's iterator."""
    @functools.wraps(fn)
    def wrapper(self, ue, model, *args, **kwargs):
        return fn(self, ue, _TracedModel(model, tracer), *args, **kwargs)
    return wrapper


#: Targets with a custom wrapper factory ``(tracer, original) -> wrapper``.
SPECIAL: Dict[str, Callable] = {
    "repro.runtime.parallel:ParallelMap.map": _map_wrapper,
    "repro.lte.network:LTENetwork.start_app_session": _session_wrapper,
}


@dataclass
class _Patch:
    owner: object            # module or class
    name: str
    original: object
    wrapper: object
    owned: bool              # attribute lived in owner.__dict__


class Installation:
    """The patches :func:`install` made; :meth:`uninstall` reverts them."""

    def __init__(self) -> None:
        self.patches: List[_Patch] = []
        self.missing: List[str] = []

    def uninstall(self) -> None:
        originals = {id(patch.wrapper): patch.original
                     for patch in self.patches}
        for patch in reversed(self.patches):
            if patch.owned:
                setattr(patch.owner, patch.name, patch.original)
            else:
                delattr(patch.owner, patch.name)
        # A module imported after install may have bound a wrapper by
        # name; point it back at the original too.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                original = originals.get(id(value))
                if original is not None:
                    setattr(module, name, original)
        self.patches.clear()


def _repro_modules() -> List[object]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _resolve(target: str):
    """``(owner, attr, original)`` for a target, or ``None`` if gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


def install(tracer: Tracer,
            wraps: Sequence[Wrap] = WRAPS) -> Installation:
    """Wrap every target on ``tracer``; returns the undo record."""
    installation = Installation()
    targets = [(wrap.target, wrap) for wrap in wraps] + [
        (target, None) for target in SPECIAL]
    for target, wrap in targets:
        resolved = _resolve(target)
        if resolved is None:
            installation.missing.append(target)
            continue
        owner, name, original = resolved
        if getattr(original, WRAPPER_FLAG, False):
            raise RuntimeError(f"{target} is already wrapped")
        if wrap is None:
            wrapper = SPECIAL[target](tracer, original)
        else:
            wrapper = _plain_wrapper(tracer, wrap.layer, original,
                                     wrap.observe)
        setattr(wrapper, WRAPPER_FLAG, True)
        holders = [owner]
        if not isinstance(owner, type):
            # A function: also patch every module that imported it by name.
            holders += [module for module in _repro_modules()
                        if module is not owner
                        and vars(module).get(name) is original]
        for holder in holders:
            owned = name in vars(holder)
            installation.patches.append(_Patch(
                holder, name, vars(holder).get(name, original), wrapper,
                owned))
            setattr(holder, name, wrapper)
    return installation
