"""Repo-root pytest configuration.

Puts ``src/`` on ``sys.path`` so the test and benchmark suites run on a
fresh clone even before any install step — the offline machines this
targets cannot always complete ``pip install -e .`` (it needs the
``wheel`` package); ``python setup.py develop`` is the supported
editable install.

It also points the trace cache at a directory of the test session
unless ``REPRO_TRACE_CACHE_DIR`` is set, so a test run never writes
into the user's cache (``~/.cache/repro-lte/traces``).
"""

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.runtime import CACHE_DIR_ENV  # noqa: E402  (needs SRC on the path)


@pytest.fixture(scope="session", autouse=True)
def _session_trace_cache(tmp_path_factory):
    if os.environ.get(CACHE_DIR_ENV, "").strip():
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV,
                     str(tmp_path_factory.mktemp("trace-cache")))
        yield
