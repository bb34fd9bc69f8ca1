"""Dynamic Time Warping — the correlation attack's distance (Eq. 1).

The paper compares two users' traffic-volume time series with DTW
(Berndt & Clifford) using Euclidean point distance:

    D(i, j) = d(i, j) + min(D(i-1, j-1), D(i-1, j), D(i, j-1))

and converts the accumulated distance into a *similarity score* in
[0, 1] (Table VI reports scores 0.61–0.93).  The conversion normalises
the DTW distance by the warping-path length and the series' scale, then
maps through ``1 / (1 + d)`` so identical series score 1.0 and the
score decays smoothly with divergence.

A Sakoe-Chiba band (``window``) is supported both as the usual
performance guard and because the paper tunes a time-window parameter
for the calculation (§VII-C).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


#: Band half-width at which the vectorised anti-diagonal sweep overtakes
#: the scalar banded scan (measured; benchmarks/bench_inference.py times
#: the DTW paths).
_WAVEFRONT_MIN_WINDOW = 48


def dtw_distance(a: np.ndarray, b: np.ndarray,
                 window: Optional[int] = None) -> float:
    """Accumulated DTW distance between two 1-D series (Eq. 1).

    Args:
        a, b: 1-D arrays.
        window: optional Sakoe-Chiba band half-width; ``None`` = full.

    Both internal strategies evaluate the exact recurrence cell by cell
    (IEEE add + exact min), so the result is bit-identical whichever
    path runs: a narrow band uses a scalar scan over the band only, a
    wide band uses a NumPy-vectorised anti-diagonal wavefront (every
    cell on one anti-diagonal depends only on the previous two, so the
    whole diagonal is computed at once with elementwise ops).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if len(a) == 0 or len(b) == 0:
        raise ValueError("DTW requires non-empty series")
    n, m = len(a), len(b)
    if window is not None:
        if window < 0:
            raise ValueError(f"window must be >= 0: {window}")
        window = max(window, abs(n - m))
    effective = max(n, m) if window is None else window
    if effective >= _WAVEFRONT_MIN_WINDOW:
        return _dtw_wavefront(a, b, effective)
    return _dtw_banded_scan(a, b, window)


def _dtw_banded_scan(a: np.ndarray, b: np.ndarray,
                     window: Optional[int]) -> float:
    """Narrow-band path: scalar scan over the band in Python floats.

    The ``current[j-1]`` term makes the in-row recurrence inherently
    sequential; for small bands plain Python floats beat NumPy scalar
    indexing by ~2.5x while computing the identical IEEE operations.
    """
    n, m = len(a), len(b)
    inf = float("inf")
    previous = [inf] * (m + 1)
    previous[0] = 0.0
    a_values = a.tolist()
    for i in range(1, n + 1):
        current = [inf] * (m + 1)
        if window is None:
            lo, hi = 1, m
        else:
            lo, hi = max(1, i - window), min(m, i + window)
        cost = np.abs(b[lo - 1:hi] - a_values[i - 1]).tolist()
        run = inf
        for offset in range(hi - lo + 1):
            j = lo + offset
            best = previous[j - 1]
            up = previous[j]
            if up < best:
                best = up
            if run < best:
                best = run
            run = cost[offset] + best
            current[j] = run
        previous = current
    return float(previous[m])


def _dtw_wavefront(a: np.ndarray, b: np.ndarray, window: int) -> float:
    """Wide-band path: vectorised anti-diagonal sweep.

    Cells are stored per anti-diagonal ``s = i + j`` indexed by ``i``
    in three rotating buffers; cell (i, j) reads (i-1, j-1) from
    diagonal s-2 and (i-1, j) / (i, j-1) from diagonal s-1, all
    computed with elementwise NumPy ops — the same add/min per cell as
    the scalar recurrence, hence bit-identical results.
    """
    n, m = len(a), len(b)
    inf = np.inf
    buffers = [np.full(n + 1, inf) for _ in range(3)]
    buffers[0][0] = 0.0                     # D[0, 0]
    for s in range(2, n + m + 1):
        current = buffers[s % 3]
        prev1 = buffers[(s - 1) % 3]
        prev2 = buffers[(s - 2) % 3]
        lo = max(1, s - m, (s - window + 1) // 2)
        hi = min(n, s - 1, (s + window) // 2)
        # Wipe the reused buffer around the band (bounds move at most
        # one index per diagonal, so a 3-cell margin covers every cell
        # later read as a neighbour).
        current[max(0, lo - 3):min(n, hi + 3) + 1] = inf
        if lo > hi:
            continue
        i_values = np.arange(lo, hi + 1)
        cost = np.abs(b[s - i_values - 1] - a[lo - 1:hi])
        best = np.minimum(
            np.minimum(prev2[lo - 1:hi], prev1[lo - 1:hi]),
            prev1[lo:hi + 1])
        current[lo:hi + 1] = cost + best
    return float(buffers[(n + m) % 3][n])


def _distinct_series(pairs: Sequence[Tuple[np.ndarray, np.ndarray]]
                     ) -> Tuple[List[np.ndarray], np.ndarray]:
    """Each distinct input series once, plus ``(pairs, 2)`` indices into it.

    Inputs are told apart by object identity: the correlation attack
    hands the same binned series to many comparisons, so per-series
    work (conversion, level, padding) runs once per series, not once
    per comparison.  Equal-valued distinct objects are simply converted
    twice.  ``inputs`` holds every object alive while this runs, so no
    id is reused.
    """
    slots: Dict[int, int] = {}
    series: List[np.ndarray] = []
    index = []
    inputs = [values for pair in pairs for values in pair]
    for values in inputs:
        slot = slots.get(id(values))
        if slot is None:
            slot = slots[id(values)] = len(series)
            series.append(np.asarray(values, dtype=np.float64).ravel())
        index.append(slot)
    return series, np.array(index, dtype=np.int64).reshape(-1, 2)


def dtw_distance_batch(pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
                       window: Optional[int] = None) -> np.ndarray:
    """Accumulated DTW distance of many series pairs at once.

    The correlation attack's ``similarity_matrix`` scores every
    candidate user pairing on a cell — thousands of independent DTW
    problems with one band setting.  This kernel runs the existing
    anti-diagonal wavefront across all of them simultaneously: cells
    live in ``(cell, pair)`` buffers with the pair index minor, so one
    elementwise add/min per anti-diagonal advances every pair's
    recurrence over contiguous memory, and a per-pair Sakoe-Chiba mask
    keeps off-band (and out-of-matrix) cells at ``inf``.  Each in-band
    cell evaluates the exact IEEE add + min of Eq. 1, so every returned
    distance is bit-identical to ``dtw_distance(a, b, window=window)``
    on that pair alone — for any mix of lengths, any band width
    (including ``window=0``), and either scalar strategy the
    single-pair path would have picked.
    Each distinct input series is padded once (the ``b`` side
    reversed), so every anti-diagonal reads its costs' operands as
    contiguous row blocks; see :func:`_wavefront_batch`.
    """
    return _wavefront_batch(*_distinct_series(pairs), window)


def _wavefront_batch(series: List[np.ndarray], index: np.ndarray,
                     window: Optional[int]) -> np.ndarray:
    """DTW distance of ``series[index[k, 0]]`` vs ``series[index[k, 1]]``.

    Pair-minor layout: the DP buffers are ``(3, max_n + 1, pairs)`` and
    the operands ``(rows, pairs)``, so row ``i`` of every array holds
    cell ``i`` of all pairs side by side.  A diagonal's band spans only
    a few rows but hundreds of pairs; with the pair index minor, every
    elementwise op runs over ``span`` rows of ``pairs`` contiguous
    doubles rather than ``pairs`` strided rows of a few cells each,
    where numpy's per-row loop overhead dominated the arithmetic.

    Both operands are read as contiguous row blocks: ``A`` row
    ``i - 1`` holds every pair's ``a[i - 1]`` (zero past its end);
    ``R`` holds ``b`` reversed and bottom-aligned in ``max_n + max_m``
    rows.  Row ``i`` of diagonal ``s`` costs ``|a[i - 1] - b[j]|`` with
    ``j = s - i - 1``, and ``b[j]`` sits at row ``max_n + max_m - s +
    i``, so one diagonal's ``b`` values are one row block.  Padding
    cells are masked off-band.
    """
    if window is not None and window < 0:
        raise ValueError(f"window must be >= 0: {window}")
    count = len(index)
    if count == 0:
        return np.zeros(0, dtype=np.float64)
    lengths = np.array([len(values) for values in series], dtype=np.int64)
    if lengths.min() == 0:
        raise ValueError("DTW requires non-empty series")
    n = lengths[index[:, 0]]
    m = lengths[index[:, 1]]
    if window is None:
        effective = np.maximum(n, m)
    else:
        effective = np.maximum(window, np.abs(n - m))
    max_n = int(n.max())
    max_m = int(m.max())
    width = max_n + max_m
    # One padded column per distinct series, then one gather per side
    # straight into the (rows, pairs) layout.
    forward = np.zeros((int(lengths.max()), len(series)), dtype=np.float64)
    reverse = np.zeros((width, len(series)), dtype=np.float64)
    for slot, values in enumerate(series):
        forward[:len(values), slot] = values
        reverse[width - len(values):, slot] = values[::-1]
    A = np.take(forward[:max_n], index[:, 0], axis=1)
    R = np.take(reverse, index[:, 1], axis=1)

    inf = np.inf
    buffers = np.full((3, max_n + 1, count), inf)
    buffers[0, 0] = 0.0                      # D[0, 0] per pair
    results = np.zeros(count, dtype=np.float64)
    # Pairs by the diagonal s = n + m that holds their corner D[n, m].
    finish = n + m
    by_finish = np.argsort(finish, kind="stable")
    finish_bounds = np.searchsorted(finish[by_finish],
                                    np.arange(width + 2))
    i_values = np.arange(1, max_n + 1)[:, None]
    # Per-pair band bounds of every anti-diagonal (also clipped to the
    # pair's own matrix, so padded rows/columns never compute), built
    # in place to keep the (diagonals, pairs) temporaries few.
    diagonals = np.arange(width + 1)[:, None]
    lows = np.maximum(diagonals - m, 1)
    bound = diagonals - effective
    bound += 1
    bound //= 2
    np.maximum(lows, bound, out=lows)
    highs = np.minimum(diagonals - 1, n)
    np.add(diagonals, effective, out=bound)
    bound //= 2
    np.minimum(highs, bound, out=highs)
    del bound
    lefts = lows.min(axis=1)
    rights = np.maximum(highs.max(axis=1), lefts)
    for s, left, right in zip(range(2, width + 1), lefts[2:].tolist(),
                              rights[2:].tolist()):
        current = buffers[s % 3]
        prev1 = buffers[(s - 1) % 3]
        prev2 = buffers[(s - 2) % 3]
        # The span [left, right] moves at most one index per diagonal,
        # so the next two diagonals read this one only inside a 1-cell
        # margin around it; reset a 3-cell margin on either side (as
        # _dtw_wavefront does) and overwrite the span itself in place.
        current[max(0, left - 3):left] = inf
        current[right + 1:min(max_n, right + 3) + 1] = inf
        span = current[left:right + 1]       # buffer rows == i
        i_span = i_values[left - 1:right]
        off_band = (i_span < lows[s]) | (i_span > highs[s])
        np.subtract(R[width - s + left:width - s + right + 1],
                    A[left - 1:right], out=span)
        np.abs(span, out=span)
        best = np.minimum(prev2[left - 1:right], prev1[left - 1:right])
        np.minimum(best, prev1[left:right + 1], out=best)
        span += best
        np.copyto(span, inf, where=off_band)
        done = by_finish[finish_bounds[s]:finish_bounds[s + 1]]
        if len(done):
            results[done] = current[n[done], done]
    return results


def similarity_score_batch(pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
                           window: Optional[int] = None) -> np.ndarray:
    """Batched :func:`similarity_score` — one score per pair.

    Normalisation mirrors the scalar path operation for operation
    (path-length × mean-absolute-level scale, then ``1 / (1 + d)``),
    so each score is bit-identical to ``similarity_score(a, b)``.  Each
    distinct input series' level ``np.mean(np.abs(x))`` is computed
    once per call — the same expression, hence the same bits — however
    many pairs share it.
    """
    series, index = _distinct_series(pairs)
    distances = _wavefront_batch(series, index, window)
    levels = np.array([np.mean(np.abs(values)) for values in series],
                      dtype=np.float64)
    sizes = np.array([len(values) for values in series], dtype=np.int64)
    scales = (levels[index[:, 0]] + levels[index[:, 1]]) / 2.0
    # dtw_path_length, elementwise.
    lengths = np.maximum(sizes[index[:, 0]],
                         sizes[index[:, 1]]).astype(np.float64)
    flat = scales == 0
    denominator = np.where(flat, 1.0, lengths * scales)
    scores = 1.0 / (1.0 + distances / denominator)
    return np.where(flat, np.where(distances == 0.0, 1.0, 0.0), scores)


def dtw_path_length(n: int, m: int) -> int:
    """Lower bound on the warping path length used for normalisation."""
    return max(n, m)


def similarity_score(a: np.ndarray, b: np.ndarray,
                     window: Optional[int] = None) -> float:
    """DTW-based similarity in [0, 1]; 1.0 means identical series.

    The raw distance is normalised by the path length and by the mean
    absolute level of the two series, making the score comparable
    across apps with very different traffic volumes (Table VI compares
    messaging against VoIP on one scale).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    distance = dtw_distance(a, b, window=window)
    scale = (np.mean(np.abs(a)) + np.mean(np.abs(b))) / 2.0
    if scale == 0:
        return 1.0 if distance == 0 else 0.0
    normalised = distance / (dtw_path_length(len(a), len(b)) * scale)
    return float(1.0 / (1.0 + normalised))


def dtw_alignment(a: np.ndarray, b: np.ndarray) -> Tuple[float, list]:
    """Full DTW with path backtracking (for diagnostics and tests).

    Returns ``(distance, path)`` where path is a list of (i, j) index
    pairs from (0, 0) to (n-1, m-1).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if len(a) == 0 or len(b) == 0:
        raise ValueError("DTW requires non-empty series")
    n, m = len(a), len(b)
    D = np.full((n + 1, m + 1), np.inf)
    D[0, 0] = 0.0
    for i in range(1, n + 1):
        cost = np.abs(b - a[i - 1])
        for j in range(1, m + 1):
            D[i, j] = cost[j - 1] + min(D[i - 1, j - 1], D[i - 1, j],
                                        D[i, j - 1])
    path = []
    i, j = n, m
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        step = int(np.argmin((D[i - 1, j - 1], D[i - 1, j], D[i, j - 1])))
        if step == 0:
            i, j = i - 1, j - 1
        elif step == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return float(D[n, m]), path
