"""Shared fixtures for the scanner suites.

One micro-scale scan (all six detectors, lab-only correlation sweep)
is run once per session and shared by the differential, golden, and
engine tests, so every suite reads one set of artifacts (the table
driver results) instead of paying for its own simulations.
"""

import pytest

from repro.experiments import Scale
from repro.operators import LAB
from repro.scan import ScanConfig, run_scan

#: Micro sizing (cf. tests/experiments): every stage runs end to end
#: in seconds; the goldens pin the numbers, not their accuracy.
MICRO = Scale(name="micro", traces_per_app=2, trace_duration_s=12.0,
              n_trees=8, pairs_per_app=2, history_visit_s=15.0,
              drift_test_days=2)

#: The scan config every fixture below runs under: default seeds (the
#: table drivers' 11/31/53), lab-only correlation environments.
MICRO_CONFIG = ScanConfig(scale=MICRO, environments=(LAB,))


@pytest.fixture(scope="session")
def micro_scan():
    """One full six-detector scan at micro scale (shared artifacts)."""
    return run_scan(config=MICRO_CONFIG)
