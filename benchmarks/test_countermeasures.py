"""Benchmark: evaluate the §VIII-B countermeasures.

The paper proposes RNTI refresh and layer-two traffic obfuscation as
defences but warns about their "high performance overhead"; this
benchmark quantifies both sides: residual attack accuracy, identity-
tracking coverage, and wasted airtime per defence.
"""

from repro.experiments.countermeasures import run


def test_countermeasures(save_table):
    result = run("fast", seed=131)
    save_table("countermeasures", result.table())

    undefended = result.outcome("none")
    refresh = result.outcome("rnti-refresh 5s")
    padding = result.outcome("padding 1500B")
    combined = result.outcome("combined")

    # Baseline attack works and costs the network nothing.
    assert undefended.f_score > 0.75
    assert undefended.overhead == 0.0
    assert undefended.trace_coverage > 0.8

    # RNTI refresh wrecks identity tracking (paper's primary proposal).
    assert refresh.trace_coverage < undefended.trace_coverage * 0.6

    # Padding wrecks classification but pays in airtime (paper's
    # "high-performance overhead" caveat).
    assert padding.f_score < undefended.f_score - 0.2
    assert padding.overhead > 0.1

    # The combination is the strongest defence — and the costliest.
    assert combined.f_score <= min(refresh.f_score, padding.f_score) + 0.1
    assert combined.overhead >= padding.overhead - 0.05
