"""Benchmark: §VIII-C — does the attack transfer to 5G NR?

The paper predicts fingerprinting survives the new radio while
SUPI/SUCI concealment breaks passive identity mapping; this benchmark
measures both on simulated NR cells.
"""

from repro.experiments.fiveg import run


def test_fiveg_transfer(save_table):
    result = run("fast", seed=151)
    save_table("fiveg", result.table())

    # (a) Fingerprinting transfers: NR accuracy within a few points of
    # LTE's ("the high-level behaviour of the application is not
    # influenced").
    assert result.nr_f_score > result.lte_f_score - 0.15
    assert result.nr_f_score > 0.7

    # (b) Identity protection works: no SUCI is ever seen twice, so a
    # passive attacker cannot link a victim's sessions.
    assert result.nr_repeated_sucis == 0
    assert result.nr_distinct_sucis >= 1.0
