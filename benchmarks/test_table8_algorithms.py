"""Benchmark: regenerate Table VIII (learning-algorithm comparison).

Paper's shape: Random Forest wins the weighted accuracy comparison
(0.821), ahead of kNN (0.735), LR (0.698) and the CNN (0.677); kNN's k
is tuned by cross-validation.
"""

from repro.experiments.table8_algorithms import run


def test_table8_algorithms(save_table):
    result = run("fast", seed=67)
    save_table("table8_algorithms", result.table())

    assert set(result.averages) == {"LR", "kNN", "CNN", "RF"}
    # The headline result: RF wins.
    assert result.ranking()[0] == "RF"
    assert result.averages["RF"] > 0.7
    # Every baseline produces a usable (non-degenerate) classifier.
    for algorithm, average in result.averages.items():
        assert average > 0.3, algorithm
    # The tuning loop picked a small k, as the paper's CV does.
    assert 1 <= result.tuned_k <= 10
    assert result.k_curve
    # RF trains faster than the CNN on tabular windows (the paper's
    # efficiency argument for preferring RF).
    assert result.fit_seconds["RF"] < result.fit_seconds["CNN"] * 5
