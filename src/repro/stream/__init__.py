"""Streaming attack data plane: bounded-memory online windowing.

Turns the batch pipeline (collect → extract_features → classify) into
a long-running service.  The layers, bottom to top:

* :class:`~repro.stream.ring.ColumnRing` — compacting columnar buffer
  with absolute stream indexing;
* :class:`~repro.stream.windowizer.StreamingWindowizer` — ingests DCI
  chunks, closes feature windows as their time bound passes,
  bit-identical to :func:`repro.core.features.extract_features`;
* :class:`~repro.stream.online.OnlineClassifier` — per-window forest
  verdicts over closed windows, per-source vote accumulation;
* :class:`~repro.stream.fusion.VerdictFusion` — multi-cell per-victim
  verdict merging (the history attack's fusion step);
* :class:`~repro.stream.service.StreamService` — sources in, JSONL
  verdicts out, fully instrumented (``repro.cli serve``).
"""

from .fusion import FusedVerdict, VerdictFusion
from .online import OnlineClassifier, WindowVerdict
from .ring import ColumnRing
from .service import ServiceReport, StreamService, interleave_chunks
from .windowizer import ClosedWindows, StreamingWindowizer

__all__ = [
    "ClosedWindows",
    "ColumnRing",
    "FusedVerdict",
    "OnlineClassifier",
    "ServiceReport",
    "StreamService",
    "StreamingWindowizer",
    "VerdictFusion",
    "WindowVerdict",
    "interleave_chunks",
]
