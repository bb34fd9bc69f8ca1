"""Incremental mirror of :func:`repro.core.features.volume_series`.

:class:`StreamingVolume` accumulates per-bin traffic volume chunk by
chunk and, on :meth:`finalize`, returns a series ``np.array_equal`` to
the batch function applied to the concatenated records.  Exactness
rests on two facts:

* bin indices ``floor((t - start) / bin_s)`` depend only on the first
  record's time, which is fixed after the first chunk, so per-chunk
  ``np.bincount`` scatters land in the same bins as one global count;
* frame counts and TBS byte values are integer-valued, and integer
  sums below 2**53 are exact in float64 under *any* association order
  — so chunked accumulation equals the batch fold bitwise.

The gap ledger (``gap_threshold_s``) records inter-record silences as
they cross chunk boundaries and applies the NaN blind-bin mask with
the batch path's exact edge arithmetic at finalize time.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import obs
from ..lte.dci import Direction
from ..sniffer.trace import TIME_DTYPE, check_record_values


class StreamingVolume:
    """Chunk-by-chunk accumulator for the correlation attack's input."""

    def __init__(self, bin_s: float = 1.0,
                 direction: Optional[Direction] = None,
                 value: str = "frames",
                 gap_threshold_s: Optional[float] = None) -> None:
        if bin_s <= 0:
            raise ValueError(f"bin_s must be positive: {bin_s}")
        if value not in ("frames", "bytes"):
            raise ValueError(
                f"value must be 'frames' or 'bytes': {value!r}")
        if gap_threshold_s is not None and gap_threshold_s <= 0:
            raise ValueError(
                f"gap_threshold_s must be positive: {gap_threshold_s}")
        self._bin_s = float(bin_s)
        self._direction = int(direction) if direction is not None else None
        self._value = value
        self._gap_threshold_s = gap_threshold_s
        self._start: Optional[float] = None
        self._last_time: Optional[float] = None      # kept-stream clock
        self._last_raw_time: Optional[float] = None  # raw-stream clock
        self._series = np.zeros(0, dtype=np.float64)
        self._gap_starts: List[float] = []
        self._gap_ends: List[float] = []
        self._invalidated = obs.counter("features.bins_invalidated")

    def ingest(self, times_s: np.ndarray, directions: np.ndarray,
               tbs_bytes: np.ndarray) -> None:
        """Accumulate one chunk of records.

        Same ingest contract as the windowizer: records within a chunk
        may arrive out of time order and are stably re-sorted; a chunk
        with a non-finite time or a negative TBS, or whose earliest
        record precedes the previous chunk's latest, is rejected with
        ``ValueError`` before any state changes.
        """
        t = np.asarray(times_s, dtype=TIME_DTYPE)
        d = np.asarray(directions)
        s = np.asarray(tbs_bytes)
        if not (len(t) == len(d) == len(s)):
            raise ValueError("chunk columns must have equal lengths")
        if not len(t):
            return
        check_record_values(t, s)
        if len(t) > 1 and (t[1:] < t[:-1]).any():
            order = np.argsort(t, kind="stable")
            t, d, s = t[order], d[order], s[order]
        if self._last_raw_time is not None and t[0] < self._last_raw_time:
            raise ValueError(
                f"chunk regresses below the stream clock: first record at "
                f"{t[0]!r} < last seen {self._last_raw_time!r}")
        self._last_raw_time = float(t[-1])
        if self._direction is not None:
            keep = d == self._direction
            t, s = t[keep], s[keep]
        if not len(t):
            return
        if self._start is None:
            self._start = float(t[0])
        elif self._gap_threshold_s is not None \
                and t[0] - self._last_time > self._gap_threshold_s:
            self._gap_starts.append(float(self._last_time))
            self._gap_ends.append(float(t[0]))
        if self._gap_threshold_s is not None:
            gap_index = np.flatnonzero(np.diff(t) > self._gap_threshold_s)
            for position in gap_index:
                self._gap_starts.append(float(t[position]))
                self._gap_ends.append(float(t[position + 1]))
        # Same index arithmetic as the batch path: floor is monotone
        # over the sorted stream, so the last record always lands in
        # the (possibly partial) final bin — never past it.
        indices = ((t - self._start) / self._bin_s).astype(np.int64)
        n_bins = int(indices[-1]) + 1
        if n_bins > len(self._series):
            grown = np.zeros(n_bins, dtype=np.float64)
            grown[:len(self._series)] = self._series
            self._series = grown
        if self._value == "frames":
            weights = None
        else:
            weights = s.astype(np.float64)
        self._series[:n_bins] += np.bincount(indices, weights=weights,
                                             minlength=n_bins)
        self._last_time = float(t[-1])

    @property
    def n_bins(self) -> int:
        return len(self._series)

    def finalize(self) -> np.ndarray:
        """The accumulated series — equal to the batch ``volume_series``."""
        if self._start is None:
            return np.zeros(0, dtype=np.float64)
        series = self._series.copy()
        if self._gap_threshold_s is not None and self._gap_starts:
            gap_starts = np.asarray(self._gap_starts, dtype=np.float64)
            gap_ends = np.asarray(self._gap_ends, dtype=np.float64)
            n_bins = len(series)
            edges = self._start + self._bin_s * np.arange(n_bins + 1)
            blind = (np.searchsorted(gap_starts, edges[1:], side="left")
                     - np.searchsorted(gap_ends, edges[:-1],
                                       side="right")) > 0
            series[blind] = np.nan
            self._invalidated.inc(int(np.count_nonzero(blind)))
        return series
