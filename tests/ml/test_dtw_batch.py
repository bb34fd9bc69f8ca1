"""Golden equivalence: batched DTW wavefront vs the scalar kernels.

``dtw_distance_batch`` runs many (a, b) pairs through one stacked
anti-diagonal recurrence; every distance must be **bit-identical**
(``==``, not ``pytest.approx``) to ``dtw_distance`` on that pair alone
— the correlation attack's scores feed threshold comparisons, so even
low-bit drift would flip verdicts between the batched and scalar
paths.  Windows cover unbanded, zero, narrow, exactly-|n-m|, and
wider-than-matrix bands; lengths cover equal, mismatched, and
single-sample series.  A pair's result must not depend on the batch
around it: alone, permuted, or next to pairs of very different lengths
and bands, and with one series object shared across many pairs.
Batches hold both more pairs and fewer pairs than the padded series
length, so a swapped pair/cell axis in the kernel's buffers cannot
pass.
"""

import numpy as np
import pytest

from repro.ml.dtw import (dtw_distance, dtw_distance_batch,
                          similarity_score, similarity_score_batch)


def _random_pairs(count=12, seed=0, lo=1, hi=60):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(lo, hi))
        m = int(rng.integers(lo, hi))
        pairs.append((rng.normal(size=n) * 10, rng.normal(size=m) * 10))
    return pairs


class TestDtwDistanceBatch:
    @pytest.mark.parametrize("window", [None, 0, 1, 3, 7, 200])
    def test_bit_identical_to_scalar(self, window):
        pairs = _random_pairs(seed=window if window is not None else 99)
        batched = dtw_distance_batch(pairs, window=window)
        for slot, (a, b) in enumerate(pairs):
            assert batched[slot] == dtw_distance(a, b, window=window)

    def test_mixed_lengths_one_batch(self):
        rng = np.random.default_rng(5)
        pairs = [(rng.normal(size=1), rng.normal(size=1)),
                 (rng.normal(size=1), rng.normal(size=50)),
                 (rng.normal(size=50), rng.normal(size=1)),
                 (rng.normal(size=37), rng.normal(size=53)),
                 (rng.normal(size=40), rng.normal(size=8)),
                 (rng.normal(size=41), rng.normal(size=40))]
        shared = pairs[3][1]
        pairs += [(shared, pairs[0][0]), (pairs[4][0], shared),
                  (shared, shared)]
        order = rng.permutation(len(pairs))
        for window in (None, 0, 2, 3, 10):
            batched = dtw_distance_batch(pairs, window=window)
            permuted = dtw_distance_batch([pairs[k] for k in order],
                                          window=window)
            assert np.array_equal(permuted, batched[order])
            for slot, (a, b) in enumerate(pairs):
                assert batched[slot] == dtw_distance(a, b, window=window)
                assert batched[slot] == dtw_distance_batch(
                    [(a, b)], window=window)[0]

    def test_window_narrower_than_length_gap(self):
        # |n - m| > window: the band must widen to keep the corner
        # reachable, exactly as the scalar kernel does.
        a = np.arange(40, dtype=np.float64)
        b = np.arange(8, dtype=np.float64)
        assert dtw_distance_batch([(a, b)], window=2)[0] == \
            dtw_distance(a, b, window=2)

    @pytest.mark.parametrize("window", [None, 0, 3])
    def test_more_pairs_than_padded_length(self, window):
        # 200 pairs against a padded length of at most 40 + 1: a swapped
        # pair/cell axis cannot hide behind a square buffer.
        pairs = _random_pairs(count=200, seed=31, lo=5, hi=41)
        batched = dtw_distance_batch(pairs, window=window)
        for slot, (a, b) in enumerate(pairs):
            assert batched[slot] == dtw_distance(a, b, window=window)

    @pytest.mark.parametrize("window", [None, 0, 3])
    def test_fewer_pairs_than_padded_length(self, window):
        pairs = _random_pairs(count=4, seed=37, lo=50, hi=90)
        batched = dtw_distance_batch(pairs, window=window)
        for slot, (a, b) in enumerate(pairs):
            assert batched[slot] == dtw_distance(a, b, window=window)

    def test_length_gap_wider_than_window_among_equal_lengths(self):
        # One pair's band widens to |n - m| = 27 > window while its
        # neighbours keep the 2-cell band.
        rng = np.random.default_rng(41)
        pairs = [(rng.normal(size=30), rng.normal(size=30))
                 for _ in range(6)]
        pairs.insert(3, (rng.normal(size=35), rng.normal(size=8)))
        batched = dtw_distance_batch(pairs, window=2)
        for slot, (a, b) in enumerate(pairs):
            assert batched[slot] == dtw_distance(a, b, window=2)

    def test_any_pair_of_a_large_batch_equals_its_lone_distance(self):
        pairs = _random_pairs(count=700, seed=43, lo=1, hi=45)
        batched = dtw_distance_batch(pairs, window=3)
        for slot, (a, b) in enumerate(pairs):
            assert batched[slot] == dtw_distance(a, b, window=3)

    def test_identical_series_zero(self):
        a = np.random.default_rng(1).normal(size=30)
        assert dtw_distance_batch([(a, a.copy())], window=3)[0] == 0.0

    def test_empty_batch(self):
        out = dtw_distance_batch([])
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            dtw_distance_batch([(np.zeros(0), np.ones(3))])

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            dtw_distance_batch([(np.ones(3), np.ones(3))], window=-1)

    def test_single_pair_batch_equals_scalar(self):
        a = np.array([1.0, 5.0, 2.0, 8.0])
        b = np.array([2.0, 4.0, 9.0])
        assert dtw_distance_batch([(a, b)])[0] == dtw_distance(a, b)


class TestSimilarityScoreBatch:
    @pytest.mark.parametrize("window", [None, 0, 3])
    def test_bit_identical_to_scalar(self, window):
        pairs = _random_pairs(seed=17, count=10)
        # One object in many pairs and on both sides, an equal-valued
        # copy, list inputs and all-zero series.
        shared = pairs[0][0]
        pairs += [(shared, pairs[1][1]), (pairs[2][0], shared),
                  (shared, shared), (shared, shared.copy()),
                  (list(shared), pairs[3][1].tolist()),
                  (np.zeros(6), shared), (np.zeros(4), np.zeros(7))]
        batched = similarity_score_batch(pairs, window=window)
        for slot, (a, b) in enumerate(pairs):
            assert batched[slot] == similarity_score(a, b, window=window)

    def test_zero_scale_edge_cases(self):
        # All-zero series: scale collapses, the scalar path special-cases
        # distance == 0 into a 1.0/0.0 verdict.
        zero = np.zeros(5)
        spike = np.array([0.0, 3.0, 0.0])
        pairs = [(zero, zero.copy()), (zero, np.zeros(9)), (zero, spike)]
        batched = similarity_score_batch(pairs, window=3)
        for slot, (a, b) in enumerate(pairs):
            assert batched[slot] == similarity_score(a, b, window=3)

    def test_scores_bounded(self):
        batched = similarity_score_batch(_random_pairs(seed=23))
        assert np.all(batched >= 0.0)
        assert np.all(batched <= 1.0)

    def test_empty_batch(self):
        assert similarity_score_batch([]).shape == (0,)
