"""Benchmark: regenerate Table IV (real-world, downlink only).

Paper's shape: per-carrier models still identify apps with F-scores in
the 0.74-0.91 band, 5-30 points below the lab.
"""

from repro.experiments.table3_lab import run as run_lab
from repro.experiments.table4_realworld import run


def test_table4_realworld(save_table):
    result = run("fast", seed=23)
    save_table("table4_realworld", result.table())

    assert set(result.per_carrier) == {"Verizon", "AT&T", "T-Mobile"}
    for carrier in result.per_carrier:
        mean_f = result.mean_f(carrier)
        # "We can still identify the apps with sufficient confidence."
        assert mean_f > 0.55, f"{carrier}: {mean_f:.3f}"


def test_table4_lab_beats_carriers(save_table):
    """The paper's headline contrast: lab > real world."""
    lab = run_lab("fast", seed=23)
    carriers = run("fast", seed=23)
    lab_f = lab.mean_f("Down")
    carrier_f = max(carriers.mean_f(c) for c in carriers.per_carrier)
    save_table("table4_contrast",
               f"lab Down mean F: {lab_f:.3f}\n"
               f"best carrier mean F: {carrier_f:.3f}")
    assert lab_f > carrier_f - 0.1
