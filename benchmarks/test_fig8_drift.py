"""Benchmark: regenerate Fig. 8 (performance decay over days).

Paper's shape: a day-1 model's F-score decays over the following days,
dropping below the 0.7 effectiveness threshold about a week out — the
drift period the retraining cost model amortises over.
"""

import numpy as np

from repro.experiments.fig8_drift import run


def test_fig8_drift(save_table):
    result = run("fast", seed=71)
    save_table("fig8_drift", result.table())

    series = result.series()
    assert len(series) == 10
    # Early performance clearly exceeds late performance.
    early = np.mean(series[:3])
    late = np.mean(series[-3:])
    assert early > late + 0.1
    # The decay crosses the paper's 0.7 threshold within the horizon.
    assert result.crossing_day is not None
    assert 2 <= result.crossing_day <= 10
