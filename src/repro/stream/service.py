"""Long-running attack service: sources in, JSONL verdicts out.

:class:`StreamService` is the deployment shape of the paper's attack:
several per-cell DCI feeds drain through one
:class:`~repro.stream.online.OnlineClassifier` (a bounded-memory
windowizer plus forest descent per source), per-cell
:class:`~repro.sniffer.owl.OWLTracker` /
:class:`~repro.sniffer.identity.IdentityMapper` instances follow RNTI
activity incrementally, and a
:class:`~repro.stream.fusion.VerdictFusion` stage merges the window
verdicts per victim across cells.

Chunks from different sources are interleaved deterministically by
event time (ties break on source order), so a run is a pure function
of its inputs — the service produces byte-identical JSONL for the same
sources regardless of how the feeds were captured.

Instrumentation (PR 3 obs registry, all instruments created up front):

* ``stream.records_ingested`` / ``stream.windows_closed`` /
  ``stream.verdicts`` / ``stream.records_dropped`` counters;
* ``stream.ring_occupancy`` / ``stream.backlog`` /
  ``stream.model_bytes`` gauges (post-chunk maxima across sources);
* ``stream.window_close_lag_s`` histogram — *event-time* lag between a
  window's bound passing and its emission (wall clock is banned in the
  data plane, DET001);
* ``stream.ingest`` span wrapping each chunk.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.features import WindowConfig
from ..core.fingerprint import HierarchicalFingerprinter, TraceVerdict
from ..sniffer.identity import IdentityMapper
from ..sniffer.owl import OWLTracker
from ..sniffer.trace import Trace
from .fusion import FusedVerdict, VerdictFusion
from .online import OnlineClassifier, WindowVerdict

LAG_BUCKETS_S = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

Chunk = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def interleave_chunks(traces: Sequence[Trace],
                      chunk_records: int) -> Iterator[Tuple[int, Chunk]]:
    """Yield ``(source_index, chunk)`` in deterministic event-time order.

    The next chunk emitted is always the one whose first record is
    earliest across all sources; ties break on source index.  Each
    source's own chunks stay in stream order, so per-source consumers
    see exactly the sequence ``Trace.iter_chunks`` produces.
    """
    iterators = [trace.iter_chunks(chunk_records) for trace in traces]
    heads: List[Optional[Chunk]] = [next(it, None) for it in iterators]
    while True:
        best = -1
        best_time = 0.0
        for index, head in enumerate(heads):
            if head is None:
                continue
            head_time = float(head[0][0])
            if best < 0 or head_time < best_time:
                best = index
                best_time = head_time
        if best < 0:
            return
        yield best, heads[best]
        heads[best] = next(iterators[best], None)


def _lags_from_p99(count: int) -> int:
    """How many of ``count`` lags rank at or above their p99.

    The p99 is the lag at ascending rank ``p = max(0, ceil(0.99 count)
    - 1)``, the smallest of the ``count - p`` largest lags: about 1 %
    of them.  Non-decreasing in ``count``.
    """
    return count - max(0, math.ceil(0.99 * count) - 1)


@dataclass
class ServiceReport:
    """Run accounting returned by :meth:`StreamService.run`."""

    records: int = 0
    windows: int = 0
    verdict_count: int = 0
    dropped: int = 0
    ring_high_water: int = 0
    lag_p99_s: float = 0.0
    trace_verdicts: Dict[str, Optional[TraceVerdict]] = field(
        default_factory=dict)
    fused: List[FusedVerdict] = field(default_factory=list)
    tracked_rntis: Dict[str, int] = field(default_factory=dict)
    #: Fused verdicts re-expressed in the scanner's finding schema
    #: (:mod:`repro.scan.adapters`) — the same format a batch scan of
    #: the identical sources produces.
    findings: list = field(default_factory=list)


class StreamService:
    """Drain trace sources through the online attack pipeline."""

    def __init__(self, model: HierarchicalFingerprinter,
                 sources: Sequence[Tuple[str, Trace]],
                 config: Optional[WindowConfig] = None,
                 chunk_records: int = 256,
                 out_path: Optional[Path] = None) -> None:
        if chunk_records <= 0:
            raise ValueError(
                f"chunk_records must be positive: {chunk_records}")
        if not sources:
            raise ValueError("service needs at least one source")
        names = [name for name, _ in sources]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate source names: {names}")
        self._sources = list(sources)
        self._chunk_records = int(chunk_records)
        self._out_path = Path(out_path) if out_path is not None else None
        self._classifier = OnlineClassifier(model, config)
        self._fusion = VerdictFusion(model)
        self._trackers = {name: OWLTracker() for name, _ in sources}
        self._mappers = {name: IdentityMapper(cell=name)
                         for name, _ in sources}
        self._victims = {name: (trace.user or name)
                         for name, trace in sources}
        # Instruments are created once here, never per chunk (OBS002).
        self._records_ingested = obs.counter("stream.records_ingested")
        self._windows_closed = obs.counter("stream.windows_closed")
        self._verdict_counter = obs.counter("stream.verdicts")
        self._records_dropped = obs.counter("stream.records_dropped")
        self._ring_gauge = obs.gauge("stream.ring_occupancy")
        self._backlog_gauge = obs.gauge("stream.backlog")
        self._model_gauge = obs.gauge("stream.model_bytes")
        self._lag_hist = obs.histogram("stream.window_close_lag_s",
                                       LAG_BUCKETS_S)
        # The p99 lag needs only the largest lags: at most
        # _lags_from_p99(bound) of them for any window count up to
        # ``bound``.  A source closes at most the windows of the grid
        # over its time span, ``start + k * stride`` for
        # k <= floor(span / stride) + 1 (core.features._window_grid).
        stride_s = (config or model.window_config).effective_stride_ms \
            / 1000.0
        bound = sum(math.floor((float(trace.times_s.max())
                                - float(trace.times_s.min())) / stride_s)
                    + 2 for _, trace in sources if len(trace))
        self._lag_capacity = _lags_from_p99(bound)
        self._lag_count = 0
        self._lag_top: List[float] = []     # min-heap of the largest lags
        model_bytes = 0
        if model._category_model is not None:
            model_bytes += model._category_model.table().nbytes
            for app_model in model._app_models.values():
                model_bytes += app_model.table().nbytes
        self._model_gauge.set(float(model_bytes))

    # -- run ----------------------------------------------------------------------

    def run(self) -> ServiceReport:
        """Drain every source to exhaustion; returns the run report."""
        report = ServiceReport()
        handle = (self._out_path.open("w")
                  if self._out_path is not None else None)
        try:
            for index, chunk in interleave_chunks(
                    [trace for _, trace in self._sources],
                    self._chunk_records):
                name = self._sources[index][0]
                verdicts = self._ingest_chunk(name, chunk)
                self._write_verdicts(handle, verdicts, report)
            for name, _ in self._sources:
                verdicts = self._finish_source(name)
                self._write_verdicts(handle, verdicts, report)
            self._finalize(handle, report)
        finally:
            if handle is not None:
                handle.close()
        return report

    # -- control plane ------------------------------------------------------------

    def on_control(self, source: str, message) -> None:
        """Feed one cell's control message (paging / RRC / handover).

        A live sniffer feed carries control-plane messages alongside
        DCI; they drive the per-cell identity mapper and RNTI tracker
        exactly as in the batch sniffer, so live bindings accumulate
        while windows stream.
        """
        if source not in self._mappers:
            raise KeyError(f"unknown source: {source!r}")
        self._mappers[source].on_control(message)
        self._trackers[source].on_control(message)

    def mapper(self, source: str) -> IdentityMapper:
        return self._mappers[source]

    def tracker(self, source: str) -> OWLTracker:
        return self._trackers[source]

    # -- stages -------------------------------------------------------------------

    def _ingest_chunk(self, name: str,
                      chunk: Chunk) -> List[WindowVerdict]:
        times_s, rntis, directions, tbs_bytes = chunk
        windowizer = self._classifier.windowizer(name)
        dropped_before = windowizer.records_dropped_direction
        with obs.span("stream.ingest"):
            self._trackers[name].on_dci_batch(float(times_s[-1]), rntis)
            verdicts = self._classifier.ingest(name, times_s, rntis,
                                               directions, tbs_bytes)
        self._records_ingested.inc(len(times_s))
        self._records_dropped.inc(
            windowizer.records_dropped_direction - dropped_before)
        self._observe(name, verdicts)
        return verdicts

    def _finish_source(self, name: str) -> List[WindowVerdict]:
        verdicts = self._classifier.finish(name)
        self._observe(name, verdicts)
        return verdicts

    def _observe(self, name: str,
                 verdicts: List[WindowVerdict]) -> None:
        windowizer = self._classifier.windowizer(name)
        self._windows_closed.inc(len(verdicts))
        self._verdict_counter.inc(len(verdicts))
        self._ring_gauge.set(float(windowizer.ring_occupancy))
        self._backlog_gauge.set(float(windowizer.backlog))
        for verdict in verdicts:
            self._lag_hist.observe(verdict.lag_s)
            self._lag_count += 1
            if len(self._lag_top) < self._lag_capacity:
                heapq.heappush(self._lag_top, verdict.lag_s)
            else:
                heapq.heappushpop(self._lag_top, verdict.lag_s)
        self._fusion.add(self._victims[name], name, verdicts)

    def _write_verdicts(self, handle, verdicts: List[WindowVerdict],
                        report: ServiceReport) -> None:
        report.windows += len(verdicts)
        report.verdict_count += len(verdicts)
        if handle is None:
            return
        for verdict in verdicts:
            handle.write(json.dumps({
                "type": "window", "source": verdict.source,
                "index": verdict.index,
                "win_start_s": verdict.win_start_s,
                "win_end_s": verdict.win_end_s,
                "app": verdict.app, "category": verdict.category,
                "lag_s": verdict.lag_s}) + "\n")

    def _finalize(self, handle, report: ServiceReport) -> None:
        for name, _ in self._sources:
            windowizer = self._classifier.windowizer(name)
            report.records += windowizer.records_seen
            report.dropped += windowizer.records_dropped_direction
            report.ring_high_water = max(report.ring_high_water,
                                         windowizer.ring_high_water)
            report.trace_verdicts[name] = \
                self._classifier.trace_verdict(name)
            report.tracked_rntis[name] = \
                len(self._trackers[name].history())
        report.fused = self._fusion.all_fused()
        # Imported lazily: repro.scan imports repro.stream's fusion
        # stage, so a module-level import here would be circular.
        from ..scan.adapters import finding_from_fused, source_spans

        spans = source_spans(self._sources)
        report.findings = [finding_from_fused(fused, spans=spans)
                           for fused in report.fused]
        if self._lag_count:
            report.lag_p99_s = float(heapq.nlargest(
                _lags_from_p99(self._lag_count), self._lag_top)[-1])
        if handle is None:
            return
        for name, _ in self._sources:
            verdict = report.trace_verdicts[name]
            handle.write(json.dumps({
                "type": "trace", "source": name,
                "app": verdict.app if verdict else None,
                "category": verdict.category if verdict else None,
                "confidence": verdict.confidence if verdict else None,
                "window_count": (verdict.window_count
                                 if verdict else 0)}) + "\n")
        for fused in report.fused:
            handle.write(json.dumps({
                "type": "fused", "victim": fused.victim,
                "app": fused.app, "category": fused.category,
                "confidence": fused.confidence,
                "window_count": fused.window_count,
                "cells": list(fused.cells)}) + "\n")
        for finding in report.findings:
            handle.write(json.dumps({"type": "finding",
                                     **finding.as_dict()},
                         sort_keys=True) + "\n")
