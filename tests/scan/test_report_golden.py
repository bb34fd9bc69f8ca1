"""Golden scan reports: canonical fixed-seed output, byte for byte.

The committed goldens pin the exact text and JSON a micro-scale scan
renders (``REPRO_UPDATE_GOLDENS=1`` regenerates them).  The volatile
``code_fingerprint`` stamp — which by design changes whenever any
``repro`` source file changes — is normalised to a fixed placeholder before
comparison, so the goldens guard the *report*, and the stamp guards
the code.
"""

import json
import os
from pathlib import Path

import pytest

from repro.runtime import code_fingerprint
from repro.scan.report import (REPORT_VERSION, as_document, render_json,
                               render_text, validate_document)

GOLDEN_DIR = Path(__file__).parent / "golden"
PLACEHOLDER = "0" * 16


def _normalise(text: str) -> str:
    return text.replace(code_fingerprint()[:16], PLACEHOLDER)


def _check_golden(name: str, rendered: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
        return
    assert path.exists(), (
        f"golden {path} missing; regenerate with REPRO_UPDATE_GOLDENS=1")
    assert rendered == path.read_text(encoding="utf-8"), (
        f"scan report drifted from {path}; if intentional, regenerate "
        f"with REPRO_UPDATE_GOLDENS=1")


class TestGoldenReports:
    def test_json_report_matches_golden(self, micro_scan):
        _check_golden("scan_micro.json",
                      _normalise(render_json(micro_scan)) + "\n")

    def test_text_report_matches_golden(self, micro_scan):
        _check_golden("scan_micro.txt", render_text(micro_scan) + "\n")

    def test_golden_json_passes_schema_validation(self):
        path = GOLDEN_DIR / "scan_micro.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        assert validate_document(document) is document
        assert document["code_fingerprint"] == PLACEHOLDER

    def test_rendering_is_deterministic(self, micro_scan):
        assert render_json(micro_scan) == render_json(micro_scan)
        assert render_text(micro_scan) == render_text(micro_scan)
        assert as_document(micro_scan) == as_document(micro_scan)


class TestDocumentValidation:
    @pytest.fixture()
    def document(self, micro_scan):
        return json.loads(render_json(micro_scan))

    def test_round_trip(self, document):
        assert validate_document(document) is document

    def test_rejects_report_version_bump(self, document):
        document["version"] = REPORT_VERSION + 1
        with pytest.raises(ValueError):
            validate_document(document)

    def test_rejects_finding_schema_bump(self, document):
        document["schema"] = document["schema"] + 1
        with pytest.raises(ValueError):
            validate_document(document)

    def test_rejects_missing_key(self, document):
        del document["victims"]
        with pytest.raises(ValueError):
            validate_document(document)

    def test_rejects_tampered_counts(self, document):
        detector = next(iter(document["counts"]))
        document["counts"][detector] += 1
        with pytest.raises(ValueError):
            validate_document(document)

    def test_rejects_tampered_severities(self, document):
        level = next(iter(document["severities"]))
        document["severities"][level] += 1
        with pytest.raises(ValueError):
            validate_document(document)

    def test_rejects_tampered_victims(self, document):
        document["victims"].append("zz:intruder")
        with pytest.raises(ValueError):
            validate_document(document)

    def test_rejects_tampered_max_severity(self, document):
        document["max_severity"] = "info"
        with pytest.raises(ValueError):
            validate_document(document)

    def test_rejects_tampered_finding(self, document):
        document["findings"][0]["confidence"] = 0.123
        with pytest.raises(ValueError):
            validate_document(document)

    def test_rejects_bad_code_fingerprint(self, document):
        document["code_fingerprint"] = "short"
        with pytest.raises(ValueError):
            validate_document(document)
