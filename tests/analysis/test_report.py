"""Reporter output: JSON document schema and text rendering."""

import json
from pathlib import Path

from repro.analysis import lint_source
from repro.analysis.report import as_document, render_json, render_text

FIXTURE = Path("repro/core/fixture.py")

_DIRTY = ("import time\nimport numpy as np\n"
          "start = time.time()\n"
          "x = np.random.rand(3)\n")


def test_json_document_schema():
    result = lint_source(_DIRTY, FIXTURE)
    document = as_document(result)
    assert set(document) == {"version", "files_scanned", "suppressed",
                             "baselined", "findings", "counts"}
    assert document["version"] == 1
    assert document["files_scanned"] == 1
    assert document["counts"] == {"DET001": 1, "DET002": 1}
    for finding in document["findings"]:
        assert set(finding) == {"path", "line", "col", "rule", "family",
                                "message", "snippet"}
        assert isinstance(finding["line"], int)
        assert isinstance(finding["col"], int)


def test_render_json_round_trips():
    result = lint_source(_DIRTY, FIXTURE)
    parsed = json.loads(render_json(result, baselined=2))
    assert parsed == as_document(result, baselined=2)
    assert parsed["baselined"] == 2


def test_text_report_lists_findings_and_summary():
    result = lint_source(_DIRTY, FIXTURE)
    text = render_text(result)
    assert "repro/core/fixture.py:3" in text
    assert "DET001" in text and "DET002" in text
    assert "2 finding(s) in 1 file(s)" in text


def test_text_report_clean_run():
    result = lint_source("VALUE = 1\n", FIXTURE)
    assert "clean" in render_text(result)


def test_text_report_mentions_suppressions():
    src = "import time\nx = time.time()  # repro: noqa[DET001]\n"
    result = lint_source(src, FIXTURE)
    assert "1 suppressed by noqa" in render_text(result)
