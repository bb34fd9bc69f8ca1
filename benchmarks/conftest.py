"""Shared fixtures of the paper-table tests.

Every ``test_*.py`` here regenerates one paper table/figure at the
``fast`` scale, asserts the *shape* of the result (who wins, which
direction the curve moves), and writes the rendered table to
``benchmarks/results/<name>.txt``.  ``make results`` runs them all with
the trace cache off and fails if a committed table changed.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_table(results_dir):
    """Write a rendered experiment table to the results directory."""

    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _save
