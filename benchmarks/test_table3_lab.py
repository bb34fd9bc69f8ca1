"""Benchmark: regenerate Table III (lab-setting fingerprinting).

Paper's shape: per-app F-scores 0.93-0.996 in the controlled lab, with
VoIP and streaming at the top and messaging a few points behind; all
three direction views (Down+UP / Down / UP) remain usable.
"""

from repro.experiments.table3_lab import run


def test_table3_lab(save_table):
    result = run("fast", seed=11)
    save_table("table3_lab", result.table())

    # Every score is a valid rate and the overall level is high.
    for view in result.scores.values():
        for f, p, r in view.values():
            assert 0.0 <= f <= 1.0
    assert result.mean_f("Down+UP") > 0.75

    # VoIP is the easiest category in the lab (as in the paper).
    voip_mean = sum(result.f_score(app) for app in
                    ("Facebook Call", "WhatsApp Call", "Skype")) / 3
    messaging_mean = sum(result.f_score(app) for app in
                         ("Facebook", "WhatsApp", "Telegram")) / 3
    assert voip_mean >= messaging_mean
    assert voip_mean > 0.9
