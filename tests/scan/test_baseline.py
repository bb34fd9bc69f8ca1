"""Scan baselines: the content fingerprint decides what a baseline holds.

The kind-independent baseline semantics (round trip, bytes, count
bounds, strict loading) run over both finding kinds in
``tests/test_baseline.py``.
"""

from repro.baseline import apply_baseline
from repro.scan.findings import make_finding


def finding(victim="v1", confidence=0.5, detector="tmsi-exposure"):
    return make_finding(detector=detector, victim=victim,
                        summary=f"exposure of {victim}", severity="high",
                        confidence=confidence)


class TestApply:
    def test_confidence_change_escapes_baseline(self):
        # The fingerprint is content-addressed: a finding whose
        # confidence moved no longer matches its baseline entry.
        old_finding = finding("v1", confidence=0.5)
        moved = finding("v1", confidence=0.9)
        new, old = apply_baseline([moved],
                                  {old_finding.fingerprint(): 1})
        assert new == [moved]
        assert old == []
