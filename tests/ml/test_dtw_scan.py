"""Bit pins of the narrow-band DTW scan against its NumPy-row reference.

``repro.ml.dtw._dtw_banded_scan`` runs the whole recurrence on Python
floats.  ``tests/ml/oracles.py`` keeps the same scan with each band
row's costs taken from one NumPy ``abs``/subtract, and ``dtw_distance``
with that scan as its narrow-band path.  Every distance must match the
reference's ``tobytes()``: equal values are not enough, since NaN
payloads, infinities and signed zeros all flow through the
recurrence's compares and adds.  ``derandomize=True`` pins the example
stream to the test id so CI failures replay locally.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import dtw
from repro.ml.dtw import dtw_distance
from tests.ml import oracles

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)

#: NaNs with distinct payloads tell apart which operand an IEEE
#: operation propagated.
_PAYLOAD_NANS = [struct.unpack("<d", bits.to_bytes(8, "little"))[0]
                 for bits in (0x7FF8000000000001, 0xFFF4000000000ABC)]
_SPECIALS = st.sampled_from([np.nan, -np.nan, *_PAYLOAD_NANS,
                             np.inf, -np.inf, -0.0, 0.0])
_MAGNITUDES = st.builds(lambda size, sign: sign * size,
                        st.floats(1e-3, 1e6),
                        st.sampled_from([1.0, -1.0]))
_SERIES = st.lists(st.one_of(_MAGNITUDES, _MAGNITUDES, _SPECIALS),
                   min_size=1, max_size=60).map(np.array)


@st.composite
def _case(draw):
    """Two series and a window: ``None``, 0–10, or below ``|n - m|``."""
    a, b = draw(_SERIES), draw(_SERIES)
    gap = abs(len(a) - len(b))
    windows = [st.none(), st.integers(0, 10)]
    if gap:
        windows.append(st.integers(0, gap - 1))
    return a, b, draw(st.one_of(windows))


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@SETTINGS
@given(_case())
def test_scan_matches_reference_bits(case):
    a, b, window = case
    if window is not None:
        window = max(window, abs(len(a) - len(b)))
    with np.errstate(invalid="ignore"):
        expected = oracles.banded_scan(a, b, window)
    assert _bits(dtw._dtw_banded_scan(a, b, window)) == _bits(expected)


@SETTINGS
@given(_case())
def test_dtw_distance_matches_reference_bits(case):
    a, b, window = case
    with np.errstate(invalid="ignore"):
        expected = oracles.dtw_distance(a, b, window)
        actual = dtw_distance(a, b, window)
    assert _bits(actual) == _bits(expected)


@pytest.mark.parametrize("offset, wavefront_runs", [(-1, 0), (0, 1)])
def test_each_side_of_the_wavefront_bound(monkeypatch, offset,
                                          wavefront_runs):
    rng = np.random.default_rng(offset + 7)
    size = dtw._WAVEFRONT_MIN_WINDOW + 12
    a = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 6, size=size)
    b = rng.normal(size=size + 3) * 10.0 ** rng.uniform(-3, 6, size=size + 3)
    a[2] = b[4] = -0.0
    window = dtw._WAVEFRONT_MIN_WINDOW + offset
    expected = oracles.dtw_distance(a, b, window)
    runs = []
    wavefront = dtw._dtw_wavefront
    monkeypatch.setattr(dtw, "_dtw_wavefront",
                        lambda *args: runs.append(args) or wavefront(*args))
    with np.errstate(invalid="ignore"):
        actual = dtw_distance(a, b, window)
    assert len(runs) == wavefront_runs
    assert _bits(actual) == _bits(expected)
    # On finite values both strategies agree, so the scan pins either side.
    assert _bits(actual) == _bits(oracles.banded_scan(a, b, window))
