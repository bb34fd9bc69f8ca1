"""Benchmark: regenerate Fig. 9 (impact of background noise traffic).

Paper's shape: the target app's F-score drops as more background apps
run concurrently (3-13 % per +10 K noise instances), heading toward the
0.6 "effectively unidentifiable" floor at the top noise level.
"""

import numpy as np

from repro.experiments.fig9_noise import run


def test_fig9_noise(save_table):
    result = run("fast", seed=83)
    save_table("fig9_noise", result.table())

    assert result.levels[0] == 0
    assert result.levels[-1] == 10
    # Clean capture classifies well; the noisiest clearly worse.
    assert result.f_scores[0] > 0.7
    assert result.degradation() > 0.1
    # Noise volume grows with the number of background apps.
    assert result.noise_instances[-1] > result.noise_instances[0]
    # The overall trend is downward even if individual steps wobble.
    first_half = np.mean(result.f_scores[:3])
    second_half = np.mean(result.f_scores[3:])
    assert first_half > second_half
