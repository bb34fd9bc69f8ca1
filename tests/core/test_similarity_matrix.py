"""Differential tests: batched ``similarity_matrix`` vs the scalar cell.

The batched path pre-bins every trace once, fans contiguous cell
chunks out over ``ParallelMap.map_batched``, and scores each chunk
with one multi-pair DTW wavefront.  None of that may change a single
bit of any score: the matrix must equal the per-cell
``_matrix_cell`` reference exactly, for any worker count and any
chunk size, including silent users and silent directions.
"""

import numpy as np
import pytest

from repro.core.correlation import _matrix_cell, similarity_matrix
from repro.sniffer.trace import Trace


def _make_traces(count=8, span_s=20.0, seed=0, empty_slots=()):
    rng = np.random.default_rng(seed)
    traces = []
    for index in range(count):
        if index in empty_slots:
            traces.append(Trace.from_arrays(
                np.empty(0), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))
            continue
        n = int(rng.integers(40, 120))
        times = np.sort(rng.uniform(0.0, span_s, size=n))
        rntis = np.full(n, index + 1, dtype=np.int64)
        directions = rng.integers(0, 2, size=n).astype(np.int64)
        tbs = rng.integers(100, 5000, size=n).astype(np.int64)
        traces.append(Trace.from_arrays(times, rntis, directions, tbs))
    return traces


def _reference(traces, bin_s=1.0, dtw_window=3):
    n = len(traces)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            value = _matrix_cell((i, j), traces=traces, bin_s=bin_s,
                                 dtw_window=dtw_window)
            matrix[i, j] = matrix[j, i] = value
    return matrix


class TestSimilarityMatrix:
    def test_bit_identical_to_scalar_reference(self):
        traces = _make_traces()
        assert np.array_equal(similarity_matrix(traces, workers=1),
                              _reference(traces))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_cannot_change_results(self, workers):
        traces = _make_traces(seed=3)
        assert np.array_equal(
            similarity_matrix(traces, workers=workers),
            _reference(traces))

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 1000])
    def test_chunk_size_cannot_change_results(self, chunk_size):
        traces = _make_traces(count=6, seed=5)
        assert np.array_equal(
            similarity_matrix(traces, workers=2, chunk_size=chunk_size),
            _reference(traces))

    def test_silent_users_zero_their_cells(self):
        traces = _make_traces(count=6, seed=7, empty_slots=(1, 4))
        matrix = similarity_matrix(traces, workers=1)
        assert np.array_equal(matrix, _reference(traces))
        assert np.all(matrix[1] == 0.0)
        assert np.all(matrix[:, 4] == 0.0)

    def test_one_directional_traces(self):
        # Uplink-only vs downlink-only users: one directional term
        # drops out per cell, mirroring score_pair's semantics.
        rng = np.random.default_rng(11)
        traces = []
        for index in range(4):
            n = 50
            times = np.sort(rng.uniform(0.0, 15.0, size=n))
            rntis = np.full(n, index + 1, dtype=np.int64)
            directions = np.full(n, index % 2, dtype=np.int64)
            tbs = rng.integers(100, 4000, size=n).astype(np.int64)
            traces.append(Trace.from_arrays(times, rntis, directions, tbs))
        assert np.array_equal(similarity_matrix(traces, workers=1),
                              _reference(traces))

    @pytest.mark.parametrize("dtw_window", [None, 0, 5])
    def test_window_settings(self, dtw_window):
        traces = _make_traces(count=5, seed=13)
        assert np.array_equal(
            similarity_matrix(traces, dtw_window=dtw_window, workers=1),
            _reference(traces, dtw_window=dtw_window))

    def test_diagonal_is_self_similarity(self):
        traces = _make_traces(count=4, seed=17)
        matrix = similarity_matrix(traces, workers=1)
        for index in range(len(traces)):
            assert matrix[index, index] == _matrix_cell(
                (index, index), traces=traces, bin_s=1.0, dtw_window=3)

    def test_empty_population(self):
        assert similarity_matrix([]).shape == (0, 0)

    @pytest.mark.parametrize("chunk_size", [1, 4, 9, None])
    def test_cell_order_and_chunk_size_cannot_change_results(
            self, chunk_size):
        # Captures of different spans give series of different lengths,
        # so the cells sort into different chunks; permuting the users
        # reorders the cells as well.  Every score must land in its own
        # cell, unchanged.
        traces = []
        for index, span_s in enumerate((6.0, 31.0, 14.0, 22.0, 9.0, 40.0)):
            traces += _make_traces(count=1, span_s=span_s, seed=index)
        expected = _reference(traces)
        order = np.random.default_rng(chunk_size or 0).permutation(
            len(traces))
        permuted = similarity_matrix([traces[k] for k in order],
                                     workers=1, chunk_size=chunk_size)
        assert np.array_equal(permuted, expected[np.ix_(order, order)])
        assert np.array_equal(
            similarity_matrix(traces, workers=1, chunk_size=chunk_size),
            expected)
