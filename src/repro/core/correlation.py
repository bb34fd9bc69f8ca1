"""Attack III: the correlation attack (paper §III-D, §VII-C).

Three steps, as in the paper's Fig. 6: radio scanning and app detection
are inherited from the fingerprinting pipeline; this module implements
the third — *similarity calculation* — plus the logistic-regression
verdict of Table VII:

1. each user's trace becomes a per-second traffic-volume series
   (``T_w = 1 s`` by default, the paper's setting);
2. DTW (Eq. 1) scores the similarity of the two series, including the
   cross-direction comparisons ("the sender sent a specific amount of
   data at a certain time and the receiver received an equal amount");
3. a binary logistic-regression model over the similarity features
   decides whether the pair is actually communicating.

Multi-pair calls (``fit``, ``decision_scores``, ``predict_pairs``)
bin each distinct trace once and, from ``BATCH_MIN_COMPARISONS``
directional comparisons on, score them in one batched DTW wavefront;
a one-pair verdict stays on scalar DTW, which is cheaper at that size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs, runtime
from ..lte.dci import Direction
from ..ml.dtw import similarity_score, similarity_score_batch
from ..ml.logistic import BinaryLogisticRegression
from ..sniffer.trace import Trace
from .features import volume_series

#: Names of the pair features fed to the logistic model.
PAIR_FEATURE_NAMES: Tuple[str, ...] = (
    "sim_total",        # DTW similarity of total frame-count series
    "sim_up_down",      # A's uplink bytes vs B's downlink bytes
    "sim_down_up",      # A's downlink bytes vs B's uplink bytes
    "volume_ratio",     # min/max of total byte volumes
    "duration_ratio",   # min/max of trace durations
    "activity_match",   # fraction of seconds with matching on/off state
)


#: Series order of ``CorrelationAttack._bin``: frames up, frames down,
#: bytes up, bytes down.  Entry k is the slot of series k's opposite
#: link direction: what one user sends, the other receives.
_OPPOSITE = (1, 0, 3, 2)

#: Directional comparisons in one feature-assembly call from which a
#: single ``similarity_score_batch`` beats scalar ``similarity_score``
#: calls.  Measured by the pair-scoring lane sweep of
#: ``benchmarks/bench_inference.py`` (``pair_lane_sweep`` in
#: BENCH_inference.json): scalar calls win up to 3 pairs, the batch
#: from 4 pairs (four comparisons each), so the bound is 16
#: comparisons.
BATCH_MIN_COMPARISONS = 16


@dataclass(frozen=True)
class PairScore:
    """Similarity measurements for one candidate pair of users."""

    similarity: float           # the headline D(T_w, T_a) score (Table VI)
    features: np.ndarray        # full feature vector (PAIR_FEATURE_NAMES)


class CorrelationAttack:
    """DTW similarity + logistic-regression communication verdict."""

    def __init__(self, bin_s: float = 1.0,
                 dtw_window: Optional[int] = 3,
                 threshold: float = 0.5, seed: int = 0) -> None:
        if bin_s <= 0:
            raise ValueError(f"bin_s must be positive: {bin_s}")
        self.bin_s = bin_s
        self.dtw_window = dtw_window
        self._model = BinaryLogisticRegression(threshold=threshold,
                                               seed=seed, epochs=500)
        self.is_fitted = False

    # -- similarity ---------------------------------------------------------------

    def similarity(self, trace_a: Trace, trace_b: Trace) -> float:
        """The paper's headline similarity score D(T_w, T_a)."""
        return self.score_pair(trace_a, trace_b).similarity

    def score_pair(self, trace_a: Trace, trace_b: Trace) -> PairScore:
        """Compute all similarity features for one candidate pair.

        The headline similarity compares *cross-direction* series: what
        user A uplinks should reappear as user B's downlink a relay
        latency later ("the sender sent a specific amount of data at a
        certain time and the receiver received an equal amount").  Same-
        direction series are anti-correlated for VoIP — you receive
        voice while the other side talks — so they carry no pairing
        signal.
        """
        features = self._pair_features([(trace_a, trace_b)])[0]
        return PairScore(similarity=float(features[0]), features=features)

    def _pair_features(self, pairs: Sequence[Tuple[Trace, Trace]]
                       ) -> np.ndarray:
        """Feature rows (``PAIR_FEATURE_NAMES``) of many candidate pairs.

        The one feature-assembly path behind :meth:`score_pair`,
        :meth:`fit`, :meth:`predict_pairs` and :meth:`decision_scores`.
        Each distinct trace is binned once per call.  A pair has four
        directional DTW comparisons (A's uplink against B's downlink
        and the reverse, for frames and for bytes); a call holding at
        least ``BATCH_MIN_COMPARISONS`` of them scores all in one
        ``similarity_score_batch``, a smaller one (such as a one-pair
        verdict) with scalar ``similarity_score`` calls.  Both lanes
        give bit-identical scores.  A silent user zeroes the whole row,
        a silent direction only its own comparisons.
        """
        pairs = list(pairs)
        count = len(pairs)
        rows = np.zeros((count, len(PAIR_FEATURE_NAMES)), dtype=np.float64)
        if not pairs:
            return rows
        slots: Dict[int, int] = {}
        traces: List[Trace] = []
        index = []
        for trace in [trace for pair in pairs for trace in pair]:
            slot = slots.get(id(trace))
            if slot is None:
                slot = slots[id(trace)] = len(traces)
                traces.append(trace)
            index.append(slot)
        a, b = np.array(index).reshape(count, 2).T
        binned = [self._bin(trace) for trace in traces]
        present = np.array([[len(series) > 0 for series in per_trace]
                            for per_trace in binned])
        heard = present[:, 0] | present[:, 1]      # frames either way
        live = heard[a] & heard[b]
        # Comparison k of a pair: A's series k against B's series
        # _OPPOSITE[k]; flat position pair * 4 + k.
        runs = live[:, None] & present[a] & present[b][:, _OPPOSITE]
        positions = np.flatnonzero(runs)
        owners, kinds = np.divmod(positions, len(_OPPOSITE))
        operands = [(binned[left][kind], binned[right][_OPPOSITE[kind]])
                    for left, right, kind in zip(a[owners].tolist(),
                                                 b[owners].tolist(),
                                                 kinds.tolist())]
        sims = np.zeros((count, len(_OPPOSITE)), dtype=np.float64)
        if len(operands) >= BATCH_MIN_COMPARISONS:
            sims.flat[positions] = similarity_score_batch(
                operands, window=self.dtw_window)
        else:
            sims.flat[positions] = [
                similarity_score(x, y, window=self.dtw_window)
                for x, y in operands]
        totals = np.array([(float(trace.total_bytes), trace.duration_s)
                           for trace in traces], dtype=np.float64)
        rows[:, 0] = 0.5 * (sims[:, 0] + sims[:, 1])
        rows[:, 1:3] = sims[:, 2:]
        rows[:, 3:5] = _ratio(totals[a], totals[b])
        rows[:, 5] = [self._activity_match(binned[left][0], binned[right][1])
                      for left, right in zip(a.tolist(), b.tolist())]
        rows[~live] = 0.0
        return rows

    def _bin(self, trace: Trace) -> List[np.ndarray]:
        """Frames up, frames down, bytes up, bytes down series of a trace."""
        links = [trace.direction_filtered(direction)
                 for direction in (Direction.UPLINK, Direction.DOWNLINK)]
        return [volume_series(link, self.bin_s, value=value)
                for value in ("frames", "bytes") for link in links]

    @staticmethod
    def _activity_match(a: np.ndarray, b: np.ndarray) -> float:
        """Fraction of overlapping seconds with the same on/off state."""
        n = min(len(a), len(b))
        if n == 0:
            return 0.0
        return float(np.mean((a[:n] > 0) == (b[:n] > 0)))

    # -- the logistic verdict ----------------------------------------------------------

    def fit(self, positive_pairs: Sequence[Tuple[Trace, Trace]],
            negative_pairs: Sequence[Tuple[Trace, Trace]]
            ) -> "CorrelationAttack":
        """Train the communicating / not-communicating decision model."""
        if not positive_pairs or not negative_pairs:
            raise ValueError("need both positive and negative pairs")
        X = self._pair_features([*positive_pairs, *negative_pairs])
        y = np.array([1] * len(positive_pairs) + [0] * len(negative_pairs),
                     dtype=np.int64)
        self._model.fit(X, y)
        self.is_fitted = True
        return self

    def predict_pairs(self, pairs: Sequence[Tuple[Trace, Trace]]
                      ) -> np.ndarray:
        """1 = communicating, 0 = unrelated, per pair."""
        if not self.is_fitted:
            raise RuntimeError("correlation model is not fitted")
        return self._model.predict(self._pair_features(pairs))

    def decision_scores(self, pairs: Sequence[Tuple[Trace, Trace]]
                        ) -> np.ndarray:
        """P(communicating) per pair."""
        if not self.is_fitted:
            raise RuntimeError("correlation model is not fitted")
        return self._model.decision_scores(self._pair_features(pairs))


def _ratio(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise ``min / max`` of non-negative arrays; 0 where both are 0."""
    larger = np.maximum(x, y)
    return np.divide(np.minimum(x, y), larger, out=np.zeros_like(larger),
                     where=larger > 0)


def _matrix_cell(pair: Tuple[int, int], *, traces: List[Trace],
                 bin_s: float, dtw_window: Optional[int]) -> float:
    """Scalar reference: similarity of one (i, j) cell, from raw traces.

    One ``CorrelationAttack`` per cell, re-binning both traces — the
    pre-batching work function, kept as the differential-test and
    benchmark baseline for :func:`similarity_matrix`.
    """
    i, j = pair
    attack = CorrelationAttack(bin_s=bin_s, dtw_window=dtw_window)
    return attack.similarity(traces[i], traces[j])


def _bin_volume_series(trace: Trace, bin_s: float
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """The (uplink, downlink) per-bin frame series of one trace."""
    return (volume_series(trace, bin_s, direction=Direction.UPLINK,
                          value="frames"),
            volume_series(trace, bin_s, direction=Direction.DOWNLINK,
                          value="frames"))


def _score_cells(chunk: Sequence[Tuple[int, int]], *,
                 up: List[np.ndarray], down: List[np.ndarray],
                 dtw_window: Optional[int]) -> List[float]:
    """ParallelMap work function: one *chunk* of (i, j) cells at once.

    Receives the pre-binned volume series (not Trace objects), packs
    the chunk's cross-direction comparisons into two batched DTW
    calls, and reassembles per-cell scores.  Empty-series handling
    mirrors ``CorrelationAttack.score_pair`` exactly: a silent user
    zeroes the whole cell, a silent *direction* zeroes only that
    directional term.
    """
    forward = np.zeros(len(chunk), dtype=np.float64)
    backward = np.zeros(len(chunk), dtype=np.float64)
    forward_pairs, forward_slots = [], []
    backward_pairs, backward_slots = [], []
    for slot, (i, j) in enumerate(chunk):
        if (len(up[i]) + len(down[i]) == 0
                or len(up[j]) + len(down[j]) == 0):
            continue                       # whole cell stays 0.0
        if len(up[i]) and len(down[j]):
            forward_pairs.append((up[i], down[j]))
            forward_slots.append(slot)
        if len(down[i]) and len(up[j]):
            backward_pairs.append((down[i], up[j]))
            backward_slots.append(slot)
    if forward_pairs:
        forward[forward_slots] = similarity_score_batch(
            forward_pairs, window=dtw_window)
    if backward_pairs:
        backward[backward_slots] = similarity_score_batch(
            backward_pairs, window=dtw_window)
    return (0.5 * (forward + backward)).tolist()


def similarity_matrix(traces: Sequence[Trace], bin_s: float = 1.0,
                      dtw_window: Optional[int] = 3,
                      workers: Optional[int] = None,
                      chunk_size: Optional[int] = None) -> np.ndarray:
    """All-pairs DTW similarity of a set of user traces.

    This is the scanning attacker's workload: given every user seen on
    a cell, score every candidate pairing (the §VII-C similarity
    calculation) to shortlist who is talking to whom.  The headline
    score is symmetric (it averages both cross-direction comparisons),
    so only the upper triangle including the diagonal is computed.

    Each trace is binned into its volume series exactly once, up
    front; workers receive plain arrays, never Trace objects.  Cells,
    ordered by band spread and length, fan out in contiguous *chunks*
    over ``ParallelMap.map_batched``, and every chunk runs one batched
    multi-pair DTW wavefront instead of a Python recurrence per cell.
    Scores are reassembled by index and bit-identical to the scalar
    per-cell path for any worker count and any ``chunk_size``.
    """
    n = len(traces)
    series = [_bin_volume_series(trace, bin_s) for trace in traces]
    up = [pair[0] for pair in series]
    down = [pair[1] for pair in series]
    up_len = np.array([len(values) for values in up], dtype=np.int64)
    down_len = np.array([len(values) for values in down], dtype=np.int64)
    rows, cols = np.triu_indices(n)
    # Cells ordered by band spread (the length gap that widens a DTW
    # band), then by length, so each chunk's batched wavefront sweeps a
    # tight band; scores go back to their cells by index.
    spread = np.maximum(np.abs(up_len[rows] - down_len[cols]),
                        np.abs(down_len[rows] - up_len[cols]))
    longest = np.maximum(np.maximum(up_len[rows], down_len[cols]),
                         np.maximum(down_len[rows], up_len[cols]))
    order = np.lexsort((longest, spread))
    rows, cols = rows[order], cols[order]
    pairs = list(zip(rows.tolist(), cols.tolist()))
    mapper = runtime.mapper(workers)
    if chunk_size is None:
        # Four chunks per worker, the runtime's oversubscription ratio;
        # floor of 32 cells so the batched kernel has real fan-in.
        chunk_size = max(32, math.ceil(len(pairs) / (mapper.workers * 4)))
    chunks = [pairs[start:start + chunk_size]
              for start in range(0, len(pairs), chunk_size)]
    work = functools.partial(_score_cells, up=up, down=down,
                             dtw_window=dtw_window)
    with obs.span("dtw.similarity_matrix"):
        obs.counter("ml.dtw.pairs_scored").inc(len(pairs))
        scored = mapper.map_batched(work, chunks)
    matrix = np.zeros((n, n), dtype=np.float64)
    if pairs:
        values = np.concatenate([np.asarray(chunk, dtype=np.float64)
                                 for chunk in scored])
        matrix[rows, cols] = values
        matrix[cols, rows] = values
    return matrix


def precision_recall(y_true: np.ndarray, y_pred: np.ndarray
                     ) -> Tuple[float, float]:
    """Binary precision/recall for the positive (communicating) class."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = float(np.sum((y_true == 1) & (y_pred == 1)))
    fp = float(np.sum((y_true == 0) & (y_pred == 1)))
    fn = float(np.sum((y_true == 1) & (y_pred == 0)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return precision, recall


def optimal_time_window(trace_a: Trace, trace_b: Trace,
                        candidates: Sequence[float] = (0.25, 0.5, 1.0,
                                                       2.0, 4.0),
                        dtw_window: Optional[int] = 10
                        ) -> Tuple[float, List[Tuple[float, float]]]:
    """The paper's T_w tuning loop (§VII-C).

    "When the time window shrinks, the similarity score increases until
    the time window reaches a certain threshold" — sweep candidate
    windows and return the best plus the whole curve.
    """
    curve: List[Tuple[float, float]] = []
    for bin_s in candidates:
        attack = CorrelationAttack(bin_s=bin_s, dtw_window=dtw_window)
        curve.append((bin_s, attack.similarity(trace_a, trace_b)))
    best = max(curve, key=lambda pair: pair[1])
    return best[0], curve
