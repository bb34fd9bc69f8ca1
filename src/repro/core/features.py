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

The implementation is fully vectorised over the trace's columnar
arrays: all window bounds come from one batched ``searchsorted``, and
every per-window statistic is computed with ``np.add.reduceat`` /
``np.minimum.reduceat`` / ``np.maximum.reduceat`` over a gathered
segment view — no Python-level loop over windows.  Integer-valued sums
are exact in float64 under any accumulation order; fractional sums use
``np.bincount``'s strictly sequential accumulation, so every value is
bit-identical to a record-at-a-time implementation that accumulates one
record after another (the golden equivalence suite in
``tests/core/test_columnar_golden.py`` holds it to that, exactly).

The per-window statistics kernel is shared with the streaming data
plane: :func:`segment_feature_rows` consumes gathered segment columns
plus the window-context columns, and :mod:`repro.stream` feeds it the
same values from its ring buffer — which is why streaming a trace in
arbitrary chunk sizes reproduces this module's output bit for bit
(``tests/stream`` holds it to ``np.array_equal``).
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


def gather_segments(lo: np.ndarray, hi: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat gather indices for the ``[lo, hi)`` record segments.

    Returns ``(flat, counts, offsets)``: indexing a column with ``flat``
    yields segment k's records at ``offsets[k]:offsets[k+1]``.  Shared
    by the batch path and the streaming windowizer so both gather in
    the same element order (which the sequential ``bincount`` sums in
    :func:`segment_feature_rows` depend on).
    """
    counts = hi - lo
    m = len(counts)
    offsets = np.empty(m + 1, dtype=np.intp)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    total_len = int(offsets[-1])
    flat = np.repeat(lo - offsets[:-1], counts) + np.arange(total_len)
    return flat, counts, offsets


def gap_intervals(times: np.ndarray, gap_threshold_s: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Capture-gap intervals: inter-record silences over the threshold."""
    gap_index = np.flatnonzero(np.diff(times) > gap_threshold_s)
    return times[gap_index], times[gap_index + 1]


def valid_window_mask(win_start: np.ndarray, win_end: np.ndarray,
                      counts: np.ndarray, config: WindowConfig,
                      gap_starts: np.ndarray, gap_ends: np.ndarray
                      ) -> np.ndarray:
    """Completeness gate over non-empty windows (see WindowConfig).

    ``gap_starts``/``gap_ends`` are the capture-gap intervals from
    :func:`gap_intervals` (empty arrays when gap detection is off).  At
    the defaults every non-empty window is valid.
    """
    valid = np.ones(len(win_start), dtype=bool)
    if config.min_frames > 1:
        valid &= counts >= config.min_frames
    if len(gap_starts):
        overlapping = (
            np.searchsorted(gap_starts, win_end, side="left")
            - np.searchsorted(gap_ends, win_start, side="right"))
        valid &= overlapping <= 0
    return valid


def chain_gap_since_prev(win_start: np.ndarray, win_end: np.ndarray,
                         prev_end_s: Optional[float]) -> np.ndarray:
    """``gap_since_prev`` over consecutive *non-empty* windows.

    The feature is documented as "silence before this window": the hop
    from the previous window that actually held traffic, clamped at 0
    for overlapping strides.  It chains across windows the completeness
    gate invalidates — an invalidated window held (partially captured)
    traffic, which is not silence.  ``prev_end_s`` carries the previous
    non-empty window's end across streaming chunk boundaries (``None``
    for the start of a trace, where the feature is defined as 0).
    """
    m = len(win_start)
    gap = np.zeros(m, dtype=np.float64)
    if m > 1:
        gap[1:] = np.maximum(0.0, win_start[1:] - win_end[:-1])
    if m and prev_end_s is not None:
        gap[0] = max(0.0, win_start[0] - prev_end_s)
    return gap


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
    record) pair of the non-empty windows, gathered with
    :func:`gather_segments`; the remaining arguments are the per-window
    context columns the caller computed (batch: whole-trace prefix sums;
    streaming: ring prefix sums with carried state).  The in-window
    statistics computed here are a pure function of the gathered
    segments, which is what makes the batch and streaming paths
    bit-identical.  It makes a fixed number of numpy calls whatever the
    number of windows, because the streaming path calls it for one or
    two windows at a time.
    """
    m = len(counts)
    if m == 0:
        return np.empty((0, N_FEATURES), dtype=np.float64)
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
    n = len(trace)
    if n == 0:
        return np.empty((0, N_FEATURES), dtype=np.float64)

    times = trace.times_s
    sizes = trace.tbs_bytes.astype(np.float64)
    downs = (trace.directions == int(Direction.DOWNLINK))
    rntis = trace.rntis

    start = times[0]
    end = times[-1]
    window_s = config.window_ms / 1000.0
    stride_s = config.effective_stride_ms / 1000.0

    # All window bounds from two batched searchsorted calls.
    win_start = _window_grid(float(start), float(end), stride_s)
    win_end = win_start + window_s
    lo = np.searchsorted(times, win_start, side="left")
    hi = np.searchsorted(times, win_end, side="left")
    nonempty = hi > lo
    if not nonempty.any():
        return np.empty((0, N_FEATURES), dtype=np.float64)
    win_start, win_end = win_start[nonempty], win_end[nonempty]
    lo, hi = lo[nonempty], hi[nonempty]

    # Completeness gating (capture-loss degradation, see WindowConfig):
    # windows that are too sparse or that straddle a capture gap are
    # invalidated rather than fed to the classifier as if complete.  At
    # the defaults (min_frames=1, gap_threshold_s=None) ``valid`` keeps
    # every non-empty window and the output is bit-identical to the
    # gate's absence.
    if config.gap_threshold_s is not None:
        gap_starts, gap_ends = gap_intervals(times, config.gap_threshold_s)
    else:
        gap_starts = gap_ends = np.empty(0, dtype=np.float64)
    valid = valid_window_mask(win_start, win_end, hi - lo, config,
                              gap_starts, gap_ends)
    invalidated = int(np.count_nonzero(~valid))
    if invalidated:
        obs.counter("features.windows_invalidated").inc(invalidated)

    # gap_since_prev chains over *non-empty* windows before the gate is
    # applied: an invalidated window held traffic, which must not be
    # reported as silence to the window after it (regression-tested in
    # tests/core/test_features.py).
    gap_since_prev = chain_gap_since_prev(win_start, win_end, None)

    if not valid.any():
        return np.empty((0, N_FEATURES), dtype=np.float64)
    win_start, win_end = win_start[valid], win_end[valid]
    lo, hi = lo[valid], hi[valid]
    gap_since_prev = gap_since_prev[valid]

    # Gather per-(window, record) segments so overlapping strides work:
    # segment k occupies rows offsets[k]:offsets[k+1] of the flat view.
    # Sums of integer-valued columns are exact in float64 whatever the
    # accumulation order, so reduceat is safe for them; genuinely
    # fractional sums go through np.bincount's strictly sequential
    # accumulation — see segment_feature_rows and the golden suite.
    flat, counts, offsets = gather_segments(lo, hi)
    svals = sizes[flat]
    tvals = times[flat]
    dvals = downs[flat].astype(np.float64)
    rvals = rntis[flat]

    cumulative_time = win_start - start

    # -- surrounding context (prefix sums + batched searchsorted) ----------------
    size_prefix = np.concatenate([[0.0], np.cumsum(sizes)])
    mid = (win_start + win_end) / 2.0
    lo_1s = np.searchsorted(times, mid - 0.5, side="left")
    hi_1s = np.searchsorted(times, mid + 0.5, side="left")
    lo_5s = np.searchsorted(times, mid - 2.5, side="left")
    hi_5s = np.searchsorted(times, mid + 2.5, side="left")
    frames_1s = (hi_1s - lo_1s).astype(np.float64)
    bytes_1s = size_prefix[hi_1s] - size_prefix[lo_1s]
    frames_5s = (hi_5s - lo_5s).astype(np.float64)
    bytes_5s = size_prefix[hi_5s] - size_prefix[lo_5s]

    # Current burst: the latest burst start at or before the last record
    # in the window; the burst ends where the next one starts.
    gaps_all = np.diff(times)
    burst_starts = np.concatenate([[0], np.flatnonzero(gaps_all > 0.5) + 1])
    burst_bounds = np.append(burst_starts, n)
    burst_pos = np.searchsorted(burst_starts, hi - 1, side="right") - 1
    burst_lo = burst_starts[burst_pos]
    burst_hi = burst_bounds[burst_pos + 1]
    burst_age = times[hi - 1] - times[burst_lo]
    burst_bytes = size_prefix[burst_hi] - size_prefix[burst_lo]

    return segment_feature_rows(svals, tvals, dvals, rvals, counts, offsets,
                                cumulative_time, gap_since_prev,
                                frames_1s, bytes_1s, frames_5s, bytes_5s,
                                burst_age, burst_bytes)


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
    # partial last bin, never truncated).  The incremental accumulator
    # (repro.stream.StreamingVolume) mirrors this arithmetic; the
    # golden suite pins both to the same bin count.
    n_bins = int(np.floor((times[-1] - start) / bin_s)) + 1
    indices = ((times - start) / bin_s).astype(np.int64)
    if value == "frames":
        weights = None
    else:
        weights = trace.tbs_bytes.astype(np.float64)
    series = np.bincount(indices, weights=weights,
                         minlength=n_bins).astype(np.float64)
    if gap_threshold_s is not None:
        gap_index = np.flatnonzero(np.diff(times) > gap_threshold_s)
        if len(gap_index):
            edges = start + bin_s * np.arange(n_bins + 1)
            blind = (np.searchsorted(times[gap_index], edges[1:],
                                     side="left")
                     - np.searchsorted(times[gap_index + 1], edges[:-1],
                                       side="right")) > 0
            series[blind] = np.nan
            obs.counter("features.bins_invalidated").inc(
                int(np.count_nonzero(blind)))
    return series
