"""Benchmark: regenerate Table V (the history attack).

Paper's shape: 12 scripted zone visits over 3 days on T-Mobile; the
attacker reconstructs the timeline with ~83 % success (10/12).
"""

from repro.experiments.table5_history import run


def test_table5_history(save_table):
    result = run("fast", seed=31)
    save_table("table5_history", result.table())

    assert result.summary["visits"] == 12
    # The paper achieves 83 %; at benchmark scale we accept >= 7/12 but
    # typically see 10-12 correct.
    assert result.summary["detected"] >= 10
    assert result.summary["correct"] >= 7
    assert result.summary["category_accuracy"] >= 0.75
    # Findings carry usable location+time+app tuples.
    for finding in result.findings:
        assert finding.zone.startswith("Zone")
        assert finding.duration_s > 0
