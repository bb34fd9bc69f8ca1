"""Incremental windowing: the batch feature grid, closed as time passes.

:class:`StreamingWindowizer` ingests a DCI record stream chunk by chunk
and emits, in grid order, exactly the per-window feature rows
``extract_features`` would produce for the whole trace — bit for bit
(``np.array_equal``), for *any* partition of the stream into chunks,
including one record at a time.  Both paths turn grid windows into rows
with the one :func:`repro.core.features.resolve_windows`; the
windowizer only decides *which* windows to resolve and *over which*
records:

* window starts are ``start + k * stride`` computed by multiplication,
  so the streaming side generates the identical float64 grid for any
  ``k`` range;
* a window is only resolved once every record that can influence it
  has arrived — its own span, its ±2.5 s context, its capture-gap
  overlaps — which is when the stream clock (last ingested record
  time) passes ``max(win_end, mid + 2.5)``;
* the records are the :class:`~repro.stream.ring.ColumnRing`'s live
  suffix, whose byte prefix is a strict sequential fold with a carried
  total, bitwise-equal to the batch ``np.cumsum``.

A chunk costs one resolve call however many windows it closes — live
feeds typically close one or two per chunk, so per-call overhead, not
per-record work, sets the cost — and resolved rows stay in the block
the resolve produced them in.

One feature cannot be resolved eagerly: ``burst_bytes`` spans the whole
burst containing the window's last record, and a burst only ends at the
next >0.5 s silence (or the end of the stream).  Windows whose burst is
still open carry a NaN placeholder and wait in an emission reorder
buffer of ``[rows, starts, ends, resolved]`` blocks.  Pending windows
always belong to the single currently-open burst, so the deferred rows
are always a suffix of the buffer: a burst close fills them with one
slice per block, and emission order stays grid order.

Memory is bounded: once the next unresolved window is known, every
record older than ``min(win_start, mid - 2.5)`` of that window can
never be referenced again and is pruned from the ring, as are capture
gaps and bursts that no future window can overlap.

Ingest contract: records *within* a chunk may arrive out of strict time
order and are stably re-sorted.  A chunk is rejected with
``ValueError`` before any state changes when it holds a non-finite time
or a negative TBS, or when its earliest record precedes the previous
chunk's latest — so a mid-stream reconfiguration or one corrupt record
cannot silently corrupt windows already closed or disable later checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.features import (BURST_GAP_S, CTX_HALF_5S, FEATURE_NAMES,
                             N_FEATURES, WindowConfig, resolve_windows)
from ..sniffer.trace import (DIR_DTYPE, RNTI_DTYPE, TBS_DTYPE, TIME_DTYPE,
                             Trace, check_record_values)
from .ring import ColumnRing

_BURST_BYTES_COL = FEATURE_NAMES.index("burst_bytes")


@dataclass(frozen=True)
class ClosedWindows:
    """One batch of closed (resolved and emitted) feature windows."""

    rows: np.ndarray          # (m, N_FEATURES) float64 feature rows
    win_start_s: np.ndarray   # (m,) window starts
    win_end_s: np.ndarray     # (m,) window ends
    lag_s: np.ndarray         # (m,) event-time close lag: stream clock
                              # at emission minus win_end

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def empty(cls) -> "ClosedWindows":
        return cls(rows=np.empty((0, N_FEATURES), dtype=np.float64),
                   win_start_s=np.empty(0, dtype=np.float64),
                   win_end_s=np.empty(0, dtype=np.float64),
                   lag_s=np.empty(0, dtype=np.float64))


class StreamingWindowizer:
    """Chunk-by-chunk windowizer, bit-identical to ``extract_features``."""

    def __init__(self, config: Optional[WindowConfig] = None) -> None:
        self._config = config or WindowConfig()
        self._window_s = self._config.window_ms / 1000.0
        self._stride_s = self._config.effective_stride_ms / 1000.0
        self._direction = (int(self._config.direction)
                           if self._config.direction is not None else None)
        self._ring = ColumnRing()
        self._start: Optional[float] = None   # first kept record time
        self._last_time: Optional[float] = None      # kept-stream clock
        self._last_raw_time: Optional[float] = None  # raw-stream clock
        self._next_k = 0                      # next unresolved grid index
        self._prev_nonempty_end: Optional[float] = None
        # Burst ledger, oldest first: start index, start time and total
        # bytes of every burst still overlapping resolvable windows.  The
        # last burst is the open one until the stream ends; its bytes are
        # NaN until it closes (``_open_prefix`` is its start's prefix).
        self._burst_idx: List[int] = []
        self._burst_time: List[float] = []
        self._burst_bytes: List[float] = []
        self._open_prefix = 0.0
        # Capture-gap ledger (only populated when gap gating is on).
        self._gap_starts: List[float] = []
        self._gap_ends: List[float] = []
        # Emission reorder buffer: ``[rows, starts, ends, resolved]``
        # blocks in grid order; ``rows[resolved:]`` await burst_bytes.
        self._pending: List[list] = []
        self._finished = False
        # Stats (plain ints: the service layer owns obs counters, and
        # window invalidation counts in the shared resolve).
        self.records_seen = 0
        self.records_kept = 0
        self.records_dropped_direction = 0
        self.chunks_reordered = 0
        self.windows_closed = 0

    # -- introspection -----------------------------------------------------------

    @property
    def backlog(self) -> int:
        """Resolved windows parked awaiting burst close."""
        return sum(len(block[0]) for block in self._pending)

    @property
    def ring_occupancy(self) -> int:
        return len(self._ring)

    @property
    def ring_high_water(self) -> int:
        return self._ring.high_water

    @property
    def ring_nbytes(self) -> int:
        return self._ring.nbytes

    # -- ingest -------------------------------------------------------------------

    def ingest_trace(self, chunk: Trace) -> ClosedWindows:
        """Feed one :class:`Trace` slice (convenience wrapper)."""
        return self.ingest(chunk.times_s, chunk.rntis, chunk.directions,
                           chunk.tbs_bytes)

    def ingest(self, times_s, rntis, directions, tbs_bytes) -> ClosedWindows:
        """Feed one chunk of records; returns the windows it closed."""
        if self._finished:
            raise RuntimeError("windowizer is finished")
        t = np.asarray(times_s, dtype=TIME_DTYPE)
        r = np.asarray(rntis, dtype=RNTI_DTYPE)
        d = np.asarray(directions, dtype=DIR_DTYPE)
        s = np.asarray(tbs_bytes, dtype=TBS_DTYPE)
        if not (len(t) == len(r) == len(d) == len(s)):
            raise ValueError("chunk columns must have equal lengths")
        if len(t) == 0:
            return ClosedWindows.empty()
        check_record_values(t, s)
        # Within-chunk disorder is legal at the ring boundary: restore
        # time order with a *stable* sort so ties keep arrival order.
        if len(t) > 1 and (t[1:] < t[:-1]).any():
            order = np.argsort(t, kind="stable")
            t, r, d, s = t[order], r[order], d[order], s[order]
            self.chunks_reordered += 1
        # Cross-chunk regression is rejected before any state changes:
        # windows at or before the old clock may already be closed.
        if self._last_raw_time is not None and t[0] < self._last_raw_time:
            raise ValueError(
                f"chunk regresses below the stream clock: first record at "
                f"{t[0]!r} < last seen {self._last_raw_time!r}")
        self.records_seen += len(t)
        self._last_raw_time = float(t[-1])
        if self._direction is not None:
            keep = d == self._direction
            dropped = int(len(t) - np.count_nonzero(keep))
            if dropped:
                self.records_dropped_direction += dropped
                t, r, d, s = t[keep], r[keep], d[keep], s[keep]
        if len(t) == 0:
            return ClosedWindows.empty()
        self.records_kept += len(t)
        self._append_chunk(t, r, d, s)
        self._resolve(final=False)
        return self._drain()

    def finish(self) -> ClosedWindows:
        """End of stream: close the open burst, resolve the tail."""
        if self._finished:
            raise RuntimeError("windowizer is finished")
        self._finished = True
        if self._start is not None:
            # The open burst runs to the end of the stream, exactly like
            # the batch path's final burst bound at n.
            self._close_burst(self._ring.total_prefix)
            self._resolve(final=True)
        return self._drain()

    # -- ledger maintenance -------------------------------------------------------

    def _append_chunk(self, t, r, d, s) -> None:
        first = self._ring.end
        prev = self._last_time
        self._ring.append(t, r, d, s)
        self._last_time = float(t[-1])
        if prev is None:
            self._start = float(t[0])
            self._open_burst(0, self._start, 0.0)
        # Consecutive-record diffs spanning the chunk boundary: the same
        # values np.diff(times) yields on the assembled trace.
        diffs = np.empty(len(t), dtype=np.float64)
        diffs[0] = t[0] - prev if prev is not None else 0.0
        np.subtract(t[1:], t[:-1], out=diffs[1:])
        boundaries = np.flatnonzero(diffs > BURST_GAP_S)
        if len(boundaries):
            starts = self._ring.prefix_at(first + boundaries)
            for p, prefix in zip(boundaries.tolist(), starts.tolist()):
                self._close_burst(prefix)
                self._open_burst(first + p, float(t[p]), prefix)
        if self._config.gap_threshold_s is not None:
            gaps = np.flatnonzero(diffs > self._config.gap_threshold_s)
            for p in gaps.tolist():
                gap_start = float(t[p - 1]) if p else float(prev)
                self._gap_starts.append(gap_start)
                self._gap_ends.append(float(t[p]))

    def _open_burst(self, start_idx: int, start_time: float,
                    prefix: float) -> None:
        self._burst_idx.append(start_idx)
        self._burst_time.append(start_time)
        self._burst_bytes.append(np.nan)
        self._open_prefix = prefix

    def _close_burst(self, prefix_end: float) -> None:
        fill = prefix_end - self._open_prefix
        self._burst_bytes[-1] = fill
        # Deferred rows all belong to this burst and form the buffer's
        # suffix: one slice per block fills them.
        for block in self._pending:
            rows, _, _, resolved = block
            if resolved < len(rows):
                rows[resolved:, _BURST_BYTES_COL] = fill
                block[3] = len(rows)

    # -- window resolution --------------------------------------------------------

    def _resolve(self, final: bool) -> None:
        if self._start is None:
            return
        start, stride = self._start, self._stride_s
        window_s = self._window_s
        clock = self._last_time
        k0 = self._next_k
        # Over-generate candidate ks, then apply the exact per-window
        # condition — mirrors _window_grid so float rounding can never
        # add or drop a window.  Starts, ends, mids and resolution times
        # are nondecreasing in k, so the windows passing it are a prefix.
        if final:
            guess = math.floor((clock - start) / stride) \
                if clock > start else 0
            ks = np.arange(k0, max(guess + 2, k0), dtype=np.float64)
        else:
            horizon = max(window_s, window_s / 2.0 + CTX_HALF_5S)
            guess = math.floor((clock - horizon - start) / stride)
            if guess + 2 <= k0:
                return
            ks = np.arange(k0, guess + 2, dtype=np.float64)
        ws = start + ks * stride
        we = ws + window_s
        if final:
            m = int(np.count_nonzero(ws <= clock))
        else:
            resolvable = np.maximum(we, (ws + we) / 2.0 + CTX_HALF_5S)
            m = int(np.count_nonzero(resolvable <= clock))
        if not m:
            return
        self._next_k += m
        # All candidates sit at or above the next_k the last prune kept
        # records for, so the ring holds every record they can reach.
        ring = self._ring
        rows, ws, we, self._prev_nonempty_end = resolve_windows(
            ring.times, ring.rntis, ring.directions, ring.tbs_bytes,
            ring.prefix, ws[:m], we[:m], start, self._prev_nonempty_end,
            self._config, np.asarray(self._gap_starts, dtype=np.float64),
            np.asarray(self._gap_ends, dtype=np.float64),
            np.asarray(self._burst_idx) - ring.base,
            np.asarray(self._burst_time), np.asarray(self._burst_bytes))
        if len(rows):
            # Rows in the still-open burst carry its NaN burst_bytes.
            deferred = int(np.count_nonzero(
                np.isnan(rows[:, _BURST_BYTES_COL])))
            self._pending.append([rows, ws, we, len(rows) - deferred])
        self._prune()

    def _prune(self) -> None:
        """Drop ring records / gaps / bursts no future window can touch."""
        ws_next = self._start + float(self._next_k) * self._stride_s
        # The threshold must lower-bound every future searchsorted query
        # *bitwise*, so it is computed with the exact expression
        # resolve_windows uses (mid = (ws + we) / 2.0, query = mid -
        # 2.5), not an algebraic rearrangement: ws + w/2 - 2.5 can round
        # one ulp above (ws + (ws + w)) / 2 - 2.5 and prune a record
        # sitting on a later window's context edge.  IEEE add/divide are
        # monotone, so mid_k is nondecreasing in k and this bounds all
        # future queries.
        we_next = ws_next + self._window_s
        mid_next = (ws_next + we_next) / 2.0
        threshold = min(ws_next, mid_next - CTX_HALF_5S)
        cut = self._ring.base + int(np.searchsorted(
            self._ring.times, threshold, side="left"))
        self._ring.prune_below(cut)
        while self._gap_ends and self._gap_ends[0] <= ws_next:
            self._gap_starts.pop(0)
            self._gap_ends.pop(0)
        # A burst ends where the next one starts.
        while len(self._burst_idx) > 1 \
                and self._burst_idx[1] <= self._ring.base:
            del self._burst_idx[0], self._burst_time[0], self._burst_bytes[0]

    # -- emission ----------------------------------------------------------------

    def _drain(self) -> ClosedWindows:
        pending = self._pending
        if not pending or pending[0][3] == 0:
            return ClosedWindows.empty()
        ready = []
        while pending:
            rows, starts, ends, resolved = pending[0]
            if resolved < len(rows):
                # Part resolved: emit the head, keep the deferred tail.
                if resolved:
                    ready.append((rows[:resolved], starts[:resolved],
                                  ends[:resolved]))
                    pending[0] = [rows[resolved:], starts[resolved:],
                                  ends[resolved:], 0]
                break
            ready.append((rows, starts, ends))
            del pending[0]
        if len(ready) == 1:
            rows, starts, ends = ready[0]
        else:
            rows, starts, ends = (np.concatenate(column)
                                  for column in zip(*ready))
        self.windows_closed += len(rows)
        return ClosedWindows(
            rows=rows, win_start_s=starts, win_end_s=ends,
            lag_s=np.maximum(0.0, self._last_time - ends))
