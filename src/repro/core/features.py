"""Feature extraction: Table II vectors aggregated over sliding windows.

The paper selects four feature groups from decoded DCI traces —
interarrival time, cumulative time, frame (transport-block) size,
direction, and the RNTI (§V, Table II) — then handles *asynchronous
sessions* by splitting each trace into windows of ``window_ms``
(100 ms, chosen empirically in §VI) and aggregating the frames in each
window.  A window, not a frame, is the classifier's sample unit.

Each non-empty window becomes one feature vector; the layout is fixed
and named in :data:`FEATURE_NAMES` so models, importances and tests can
refer to features symbolically.

One function turns windows into rows: :func:`resolve_windows` takes
record columns, their byte prefix, a slice of the window grid and the
capture-gap and burst ledgers, and returns the feature rows of the
slice.  Both paths call it — the batch :func:`extract_features` once
over a whole trace, and :class:`repro.stream.StreamingWindowizer` once
per chunk over the windows that chunk closes, on its ring buffer's live
suffix — so streaming a trace in arbitrary chunk sizes reproduces the
batch output bit for bit (``tests/stream`` holds it to
``np.array_equal``).

The resolve is fully vectorised: the window spans come from one
batched ``searchsorted``, the context edges of the windows that hold
records from a second, and every per-window statistic from
``np.add.reduceat`` / ``np.minimum.reduceat`` / ``np.maximum.reduceat``
over a gathered segment view — no Python-level loop over windows.
Integer-valued sums are exact in float64 under any accumulation order;
fractional sums use ``np.bincount``'s strictly sequential
accumulation, so every value is bit-identical to a record-at-a-time
implementation that accumulates one record after another (the golden
equivalence suite in ``tests/core/test_columnar_golden.py`` holds it
to that, exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import obs
from ..lte.dci import Direction
from ..sniffer.trace import Trace

#: Names of the per-window features, in column order.
FEATURE_NAMES: Tuple[str, ...] = (
    "frame_count",            # frames in the window
    "total_bytes",            # sum of TBS over the window
    "mean_size",              # mean TBS
    "std_size",               # TBS spread
    "min_size",               # smallest TBS
    "max_size",               # largest TBS
    "mean_interarrival",      # mean gap between frames in the window (s)
    "std_interarrival",       # gap spread
    "downlink_frame_frac",    # fraction of frames that are downlink
    "downlink_byte_frac",     # fraction of bytes that are downlink
    "cumulative_time",        # window start relative to trace start (s)
    "gap_since_prev",         # silence before this window (s)
    "rnti_switches",          # distinct RNTIs in window minus one
    # Surrounding context (derived from the same Table II vectors; the
    # trace is analysed offline, so a 100 ms window may see the burst
    # pattern around it — this is what makes 100 ms windows competitive
    # with whole-session features, cf. §VI "synchronization points"):
    "frames_ctx_1s",          # frames within ±0.5 s of the window
    "bytes_ctx_1s",           # bytes in that second
    "frames_ctx_5s",          # frames within ±2.5 s
    "bytes_ctx_5s",           # bytes in those five seconds
    "burst_age",              # time since the current burst started (s)
    "burst_bytes",            # total bytes of the burst containing the
                              # window (the segment-size signature)
)

N_FEATURES = len(FEATURE_NAMES)

#: Inter-record silence that ends a burst.
BURST_GAP_S = 0.5
#: Half-widths of the two context spans around a window's mid.
CTX_HALF_1S = 0.5
CTX_HALF_5S = 2.5
#: Context-edge offsets from a window's mid, in the order
#: ``[lo_1s, hi_1s, lo_5s, hi_5s]`` (``mid + -h`` is ``mid - h`` bitwise).
_CTX_EDGES = np.array([[-CTX_HALF_1S], [CTX_HALF_1S],
                       [-CTX_HALF_5S], [CTX_HALF_5S]])


@dataclass(frozen=True)
class WindowConfig:
    """Windowing parameters for feature extraction.

    Args:
        window_ms: aggregation window (paper default: 100 ms).
        stride_ms: hop between windows; ``None`` = non-overlapping.
        direction: restrict to one link direction (Table III's Down /
            UP columns; Table IV is downlink-only) or ``None`` for both.
        min_frames: completeness threshold — windows holding fewer
            records are invalidated (dropped).  The default of 1 keeps
            every non-empty window, bit-identical to the pre-faults
            behaviour.
        gap_threshold_s: when set, an inter-record silence longer than
            this is treated as a *capture gap* (the sniffer lost the
            channel, not the app going quiet) and every window
            overlapping it is invalidated.  ``None`` disables gap
            detection.
    """

    window_ms: float = 100.0
    stride_ms: Optional[float] = None
    direction: Optional[Direction] = None
    min_frames: int = 1
    gap_threshold_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.window_ms <= 0:
            raise ValueError(f"window_ms must be positive: {self.window_ms}")
        if self.stride_ms is not None and self.stride_ms <= 0:
            raise ValueError(f"stride_ms must be positive: {self.stride_ms}")
        if self.min_frames < 1:
            raise ValueError(f"min_frames must be >= 1: {self.min_frames}")
        if self.gap_threshold_s is not None and self.gap_threshold_s <= 0:
            raise ValueError(
                f"gap_threshold_s must be positive: {self.gap_threshold_s}")

    @property
    def effective_stride_ms(self) -> float:
        return self.stride_ms if self.stride_ms is not None else self.window_ms


def _window_grid(start: float, end: float, stride_s: float
                 ) -> np.ndarray:
    """Window start times ``start + k * stride_s`` for every k with
    a start ``<= end`` — the multiplication (not accumulation) keeps
    window boundaries from drifting over long traces."""
    # Over-generate candidates, then apply the exact loop condition so
    # float rounding in the division can never add or drop a window.
    guess = int(np.floor((end - start) / stride_s)) if end > start else 0
    ks = np.arange(max(guess + 2, 2), dtype=np.float64)
    starts = start + ks * stride_s
    return starts[starts <= end]


def gap_intervals(times: np.ndarray, gap_threshold_s: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Capture-gap intervals: inter-record silences over the threshold."""
    gap_index = np.flatnonzero(np.diff(times) > gap_threshold_s)
    return times[gap_index], times[gap_index + 1]


def resolve_windows(times: np.ndarray, rntis: np.ndarray,
                    directions: np.ndarray, tbs: np.ndarray,
                    prefix: np.ndarray, ws: np.ndarray, we: np.ndarray,
                    start: float, prev_end: Optional[float],
                    config: WindowConfig,
                    gap_starts: np.ndarray, gap_ends: np.ndarray,
                    burst_idx: np.ndarray, burst_time: np.ndarray,
                    burst_bytes: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                               Optional[float]]:
    """Feature rows of the grid windows ``[ws, we)`` over record columns.

    ``times``/``rntis``/``directions``/``tbs`` are time-sorted record
    columns (a whole trace, or a ring buffer's live suffix) holding
    every record each window's span and ±2.5 s context can reach;
    ``prefix[j]`` is the byte total of the records before local index
    ``j`` (plus any carried total: only differences are read).
    ``start`` is the first record's time and ``prev_end`` the end of the
    last non-empty window before ``ws[0]`` (``None`` at a trace start).
    ``gap_starts``/``gap_ends`` are the capture-gap intervals (empty
    when gap detection is off).  The burst ledger gives, per burst, its
    first record's local index, that record's time and the burst's
    total bytes — NaN while the burst is still open, which the rows of
    the windows in it carry as their ``burst_bytes``.

    Returns ``(rows, ws, we, prev_end)``: the rows and bounds of the
    windows that hold records and pass the completeness gate (see
    :class:`WindowConfig`), and the end of the last non-empty window,
    to carry into the next call.
    """
    span = np.searchsorted(times, np.concatenate((ws, we)),
                           side="left").reshape(2, len(ws))
    nonempty = np.flatnonzero(span[1] > span[0])
    if not len(nonempty):
        return np.empty((0, N_FEATURES)), ws[:0], we[:0], prev_end
    ws, we, span = ws[nonempty], we[nonempty], span[:, nonempty]

    # gap_since_prev, "silence before this window": the hop from the
    # previous window that held traffic, clamped at 0 for overlapping
    # strides.  It chains over non-empty windows *before* the gate: an
    # invalidated window held (partially captured) traffic, which is
    # not silence (regression-tested in tests/core/test_features.py).
    gap_prev = np.zeros(len(ws), dtype=np.float64)
    gap_prev[1:] = np.maximum(0.0, ws[1:] - we[:-1])
    if prev_end is not None:
        gap_prev[0] = max(0.0, ws[0] - prev_end)
    prev_end = float(we[-1])

    # Completeness gate: windows too sparse or overlapping a capture gap
    # are invalidated rather than fed to the classifier as if complete.
    # At the defaults every non-empty window passes.
    if config.min_frames > 1 or len(gap_starts):
        valid = span[1] - span[0] >= config.min_frames
        if len(gap_starts):
            valid &= (np.searchsorted(gap_starts, we, side="left")
                      - np.searchsorted(gap_ends, ws, side="right")) <= 0
        invalidated = len(ws) - int(np.count_nonzero(valid))
        if invalidated:
            obs.counter("features.windows_invalidated").inc(invalidated)
            ws, we, gap_prev = ws[valid], we[valid], gap_prev[valid]
            span = span[:, valid]
            if not len(ws):
                return np.empty((0, N_FEATURES)), ws, we, prev_end

    # Gather per-(window, record) segments so overlapping strides work:
    # segment k occupies flat[offsets[k]:offsets[k+1]].
    lo, hi = span
    counts = hi - lo
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    flat = np.repeat(lo - offsets[:-1], counts) + np.arange(offsets[-1])

    # Context: frames and bytes within mid ± 0.5 s and mid ± 2.5 s, one
    # search for the windows that survived.
    mid = (ws + we) / 2.0
    context = np.searchsorted(times, (mid + _CTX_EDGES).ravel(),
                              side="left").reshape(4, len(ws))
    frames = (context[1::2] - context[0::2]).astype(np.float64)
    edge_bytes = prefix[context]
    byte_sums = edge_bytes[1::2] - edge_bytes[0::2]

    # Current burst: the latest burst start at or before the window's
    # last record.
    last = hi - 1
    burst = np.searchsorted(burst_idx, last, side="right") - 1

    rows = segment_feature_rows(
        tbs[flat].astype(np.float64), times[flat],
        (directions[flat] == int(Direction.DOWNLINK)).astype(np.float64),
        rntis[flat], counts, offsets, ws - start, gap_prev,
        frames[0], byte_sums[0], frames[1], byte_sums[1],
        times[last] - burst_time[burst], burst_bytes[burst])
    return rows, ws, we, prev_end


def segment_feature_rows(svals: np.ndarray, tvals: np.ndarray,
                         dvals: np.ndarray, rvals: np.ndarray,
                         counts: np.ndarray, offsets: np.ndarray,
                         cumulative_time: np.ndarray,
                         gap_since_prev: np.ndarray,
                         frames_1s: np.ndarray, bytes_1s: np.ndarray,
                         frames_5s: np.ndarray, bytes_5s: np.ndarray,
                         burst_age: np.ndarray,
                         burst_bytes: np.ndarray) -> np.ndarray:
    """Assemble per-window feature rows from gathered segment columns.

    ``svals``/``tvals``/``dvals`` are the float64 sizes, times and
    downlink flags and ``rvals`` the uint32 RNTIs of every (window,
    record) pair of at least one non-empty window, segment k at
    ``offsets[k]:offsets[k+1]``; the remaining arguments are the
    per-window context columns :func:`resolve_windows` computed.  The
    in-window statistics are a pure function of the gathered segments.
    It makes a fixed number of numpy calls whatever the number of
    windows, because the streaming path resolves one or two windows at
    a time.
    """
    m = len(counts)
    seg_starts = offsets[:-1]
    total_len = int(offsets[-1])
    seg_ids = np.repeat(np.arange(m, dtype=np.int64), counts)
    counts_f = counts.astype(np.float64)

    # The four integer-valued per-window sums in one reduceat: sizes,
    # downlink flags, downlink bytes and distinct-RNTI flags.  Their
    # partial sums are integers float64 holds exactly, so reduceat's
    # unspecified accumulation order cannot change a bit.  Distinct
    # RNTIs: sort (segment << 32 | rnti) keys and flag value changes;
    # the sorted keys stay segment-major, so the flags line up with
    # seg_starts.
    integer_cols = np.empty((4, total_len), dtype=np.float64)
    integer_cols[0] = svals
    integer_cols[1] = dvals
    np.multiply(svals, dvals, out=integer_cols[2])
    keys = np.sort((seg_ids << 32) | rvals)
    integer_cols[3, 0] = 1.0
    np.not_equal(keys[1:], keys[:-1], out=integer_cols[3, 1:])
    total, down_count, down_bytes, distinct = np.add.reduceat(
        integer_cols, seg_starts, axis=1)

    mean = total / counts_f
    dev = svals - mean[seg_ids]
    std = np.sqrt(np.bincount(seg_ids, weights=dev * dev,
                              minlength=m) / counts_f)
    size_min = np.minimum.reduceat(svals, seg_starts)
    size_max = np.maximum.reduceat(svals, seg_starts)

    # Interarrival gaps: a compact array holding each window's count-1
    # in-window diffs (cross-segment diffs dropped; each kept diff
    # belongs to its first record's segment).  Single-record windows
    # have no gaps and report mean 0, std 0.
    keep = np.ones(total_len - 1, dtype=bool)
    keep[offsets[1:-1] - 1] = False        # last position of each segment
    gap_flat = (tvals[1:] - tvals[:-1])[keep]
    gap_ids = seg_ids[:-1][keep]
    gap_denom = np.maximum(counts_f - 1.0, 1.0)
    gap_mean = np.bincount(gap_ids, weights=gap_flat,
                           minlength=m) / gap_denom
    gap_dev = gap_flat - gap_mean[gap_ids]
    gap_std = np.sqrt(np.bincount(gap_ids, weights=gap_dev * gap_dev,
                                  minlength=m) / gap_denom)

    down_frac = down_count / counts_f
    byte_frac = np.divide(down_bytes, total, out=np.zeros(m),
                          where=total > 0)
    rnti_switches = distinct - 1.0

    return np.array((
        counts_f, total, mean, std, size_min, size_max, gap_mean,
        gap_std, down_frac, byte_frac, cumulative_time, gap_since_prev,
        rnti_switches, frames_1s, bytes_1s, frames_5s, bytes_5s,
        burst_age, burst_bytes), dtype=np.float64).T.copy()


def extract_features(trace: Trace,
                     config: Optional[WindowConfig] = None) -> np.ndarray:
    """Per-window feature matrix for one trace, shape (n_windows, N_FEATURES).

    Empty windows are skipped (the sniffer sees nothing there); the
    silence they represent survives as the next window's
    ``gap_since_prev`` feature, so sparse traffic — the messaging
    signature — remains visible to the classifier.
    """
    config = config or WindowConfig()
    if config.direction is not None:
        trace = trace.direction_filtered(config.direction)
    if not len(trace):
        return np.empty((0, N_FEATURES))
    times, tbs = trace.times_s, trace.tbs_bytes
    start = float(times[0])
    ws = _window_grid(start, float(times[-1]),
                      config.effective_stride_ms / 1000.0)
    prefix = np.concatenate([[0.0], np.cumsum(tbs.astype(np.float64))])
    if config.gap_threshold_s is not None:
        gap_starts, gap_ends = gap_intervals(times, config.gap_threshold_s)
    else:
        gap_starts = gap_ends = np.empty(0)
    # A burst starts at the first record and after every silence over
    # BURST_GAP_S, and ends where the next one starts.
    burst_idx = np.concatenate(
        [[0], np.flatnonzero(np.diff(times) > BURST_GAP_S) + 1])
    burst_bytes = (prefix[np.append(burst_idx[1:], len(times))]
                   - prefix[burst_idx])
    rows, _, _, _ = resolve_windows(
        times, trace.rntis, trace.directions, tbs, prefix, ws,
        ws + config.window_ms / 1000.0, start, None, config,
        gap_starts, gap_ends, burst_idx, times[burst_idx], burst_bytes)
    return rows


def volume_series(trace: Trace, bin_s: float = 1.0,
                  direction: Optional[Direction] = None,
                  value: str = "frames",
                  gap_threshold_s: Optional[float] = None) -> np.ndarray:
    """Per-bin traffic volume series — the correlation attack's input.

    The paper generates "graphs with respect to the number of frames"
    per time threshold ``T_w`` (default 1 s); ``value`` selects frame
    counts or byte counts per bin.  Bins span the trace's whole
    duration, *including* empty bins, because silence carries the
    conversational rhythm DTW matches on.

    With ``gap_threshold_s`` set, bins overlapping an inter-record
    silence longer than the threshold become ``NaN`` instead of 0: the
    sniffer was blind there, and a DTW consumer must not mistake lost
    capture for conversational silence.  ``None`` (the default) keeps
    the historical all-zeros behaviour.
    """
    if bin_s <= 0:
        raise ValueError(f"bin_s must be positive: {bin_s}")
    if value not in ("frames", "bytes"):
        raise ValueError(f"value must be 'frames' or 'bytes': {value!r}")
    if gap_threshold_s is not None and gap_threshold_s <= 0:
        raise ValueError(
            f"gap_threshold_s must be positive: {gap_threshold_s}")
    if direction is not None:
        trace = trace.direction_filtered(direction)
    if not len(trace):
        return np.zeros(0, dtype=np.float64)
    times = trace.times_s
    start = times[0]
    # The last record's index is floor((times[-1]-start)/bin_s), which
    # equals n_bins-1 by construction, and floor is monotone over the
    # sorted times — so no index can exceed n_bins-1 and a final record
    # landing exactly on a bin boundary *opens* that bin (it is a
    # partial last bin, never truncated).
    n_bins = int(np.floor((times[-1] - start) / bin_s)) + 1
    indices = ((times - start) / bin_s).astype(np.int64)
    if value == "frames":
        weights = None
    else:
        weights = trace.tbs_bytes.astype(np.float64)
    series = np.bincount(indices, weights=weights,
                         minlength=n_bins).astype(np.float64)
    if gap_threshold_s is not None:
        gap_starts, gap_ends = gap_intervals(times, gap_threshold_s)
        if len(gap_starts):
            edges = start + bin_s * np.arange(n_bins + 1)
            blind = (np.searchsorted(gap_starts, edges[1:], side="left")
                     - np.searchsorted(gap_ends, edges[:-1],
                                       side="right")) > 0
            series[blind] = np.nan
            obs.counter("features.bins_invalidated").inc(
                int(np.count_nonzero(blind)))
    return series
