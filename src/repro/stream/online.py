"""Online classification stage: per-window verdicts over closed windows.

:class:`OnlineClassifier` owns one :class:`StreamingWindowizer` per
source (a cell feed, a victim's capture, ...) and pushes every batch of
closed windows through a fitted
:class:`~repro.core.fingerprint.HierarchicalFingerprinter`.  Window
predictions are row-independent (one forest descent per row), so
classifying windows batch-by-batch as they close yields exactly the
app ids the batch path computes over the whole feature matrix — and
the per-source vote accumulator therefore reproduces
``classify_trace``'s majority verdict bitwise, including the
confidence ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.features import WindowConfig
from ..core.fingerprint import HierarchicalFingerprinter, TraceVerdict
from .windowizer import ClosedWindows, StreamingWindowizer


@dataclass(frozen=True)
class WindowVerdict:
    """One closed window's classification."""

    source: str                # feed the window came from
    index: int                 # per-source window ordinal (emission order)
    win_start_s: float
    win_end_s: float
    app: str                   # predicted app name
    category: str              # predicted category name
    app_id: int                # encoder id (what fusion accumulates)
    lag_s: float               # event-time close lag at emission


class OnlineClassifier:
    """Windowize + classify each source's stream incrementally."""

    def __init__(self, model: HierarchicalFingerprinter,
                 config: Optional[WindowConfig] = None) -> None:
        self._meta = model._require_fit()
        self._model = model
        self._config = config or model.window_config
        self._apps = self._meta.app_encoder.classes_
        self._categories = self._meta.category_encoder.classes_
        self._app_of_category = self._meta.app_of_category
        self._n_apps = self._meta.app_encoder.n_classes
        self._windowizers: Dict[str, StreamingWindowizer] = {}
        self._votes: Dict[str, np.ndarray] = {}
        self._emitted: Dict[str, int] = {}
        self._source_order: List[str] = []

    # -- plumbing -----------------------------------------------------------------

    @property
    def sources(self) -> List[str]:
        """Sources seen so far, in first-ingest order."""
        return list(self._source_order)

    def windowizer(self, source: str) -> StreamingWindowizer:
        windowizer = self._windowizers.get(source)
        if windowizer is None:
            windowizer = StreamingWindowizer(self._config)
            self._windowizers[source] = windowizer
            self._votes[source] = np.zeros(self._n_apps, dtype=np.int64)
            self._emitted[source] = 0
            self._source_order.append(source)
        return windowizer

    # -- ingest -------------------------------------------------------------------

    def ingest(self, source: str, times_s, rntis, directions,
               tbs_bytes) -> List[WindowVerdict]:
        """Feed one chunk; returns verdicts for every window that closed."""
        closed = self.windowizer(source).ingest(times_s, rntis,
                                                directions, tbs_bytes)
        return self._classify(source, closed)

    def finish(self, source: str) -> List[WindowVerdict]:
        """Flush a source's stream end; returns the final verdicts."""
        closed = self.windowizer(source).finish()
        return self._classify(source, closed)

    def _classify(self, source: str,
                  closed: ClosedWindows) -> List[WindowVerdict]:
        if not len(closed):
            return []
        app_ids = self._model.predict_apps(closed.rows)
        self._votes[source] += np.bincount(app_ids,
                                           minlength=self._n_apps)
        base = self._emitted[source]
        self._emitted[source] = base + len(closed)
        verdicts = []
        for offset, app_id in enumerate(app_ids):
            app_id = int(app_id)
            category_id = int(self._app_of_category[app_id])
            verdicts.append(WindowVerdict(
                source=source, index=base + offset,
                win_start_s=float(closed.win_start_s[offset]),
                win_end_s=float(closed.win_end_s[offset]),
                app=self._apps[app_id],
                category=self._categories[category_id],
                app_id=app_id,
                lag_s=float(closed.lag_s[offset])))
        return verdicts

    # -- per-source trace verdicts ------------------------------------------------

    def vote_counts(self, source: str) -> np.ndarray:
        """Accumulated per-app vote counts for one source (copy)."""
        return self._votes[source].copy()

    def trace_verdict(self, source: str) -> Optional[TraceVerdict]:
        """Majority verdict over every window emitted so far.

        Identical to ``HierarchicalFingerprinter.classify_trace`` on
        the concatenated stream: the vote counts are the same bincount
        the batch path computes, so app/category/confidence match
        bitwise.
        """
        counts = self._votes.get(source)
        total = self._emitted.get(source, 0)
        if counts is None or total == 0:
            return None
        app_id = int(np.argmax(counts))
        category_id = int(self._app_of_category[app_id])
        return TraceVerdict(
            app=self._apps[app_id],
            category=self._categories[category_id],
            confidence=float(counts[app_id] / total),
            window_count=total)
