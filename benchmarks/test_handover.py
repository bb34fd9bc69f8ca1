"""Benchmark: §VIII-A handover case.

The paper claims handover does not defeat the attack given identity
tracking; this measures it: fragments classify well on their own, and
IMSI-catcher stitching across cells recovers full-session accuracy.
"""

from repro.experiments.handover import run


def test_handover(save_table):
    result = run("fast", seed=171)
    save_table("handover", result.table())

    assert result.attempts == 9
    stitched = result.accuracy["stitched (cross-cell)"]
    source = result.accuracy["source fragment"]
    target = result.accuracy["target fragment"]
    # Fragments alone remain usable; stitching is at least as good.
    assert source > 0.6 and target > 0.6
    assert stitched >= max(source, target) - 0.12
    assert stitched > 0.75
