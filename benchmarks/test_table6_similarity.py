"""Benchmark: regenerate Table VI (DTW similarity of communicating pairs).

Paper's shape: lab similarity means top the carriers (0.75-0.93 vs
0.61-0.78), with standard deviations around 0.05-0.13.
"""

from repro.experiments.table6_similarity import run


def test_table6_similarity(save_table):
    result = run("fast", seed=41)
    save_table("table6_similarity", result.table())

    assert len(result.apps) == 6
    lab_avg = result.env_average("Lab")
    carrier_avgs = [result.env_average(env)
                    for env in ("AT&T", "T-Mobile", "Verizon")]
    # Lab pairs align best; every carrier sits below.
    assert all(lab_avg > c for c in carrier_avgs)
    assert 0.75 < lab_avg <= 1.0
    assert all(0.5 < c < 0.9 for c in carrier_avgs)
    # Scores are proper similarity values with modest spread.
    for env, per_app in result.scores.items():
        for app, (mean, std) in per_app.items():
            assert 0.0 <= mean <= 1.0, (env, app)
            assert std < 0.45, (env, app)
