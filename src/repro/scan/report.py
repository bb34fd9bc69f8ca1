"""Scan reporters: render a :class:`~repro.scan.engine.ScanResult`.

A ``text`` format for humans and CI logs, and a versioned, fully
deterministic ``json`` document for tooling.  JSON schema (version 1)::

    {
      "version": 1,
      "schema": 1,                      # finding schema version
      "code_fingerprint": "…",          # repro source digest, 16 hex
      "detectors": ["app-fingerprint", …],   # composition order
      "findings": [ {finding…}, … ],    # see repro.scan.findings
      "counts": {"app-fingerprint": 3, …},   # per detector, sorted
      "severities": {"high": 2, …},     # per level, ladder order
      "victims": ["tmsi:0000d00d", …],  # sorted unique handles
      "baselined": 0,
      "max_severity": "high"            # null when no findings
    }

``validate_document`` re-checks every invariant — including each
finding's content fingerprint — so golden reports and streamed JSON
both round-trip through one schema validator.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List

from ..runtime import code_fingerprint
from .engine import ScanResult
from .findings import (SCHEMA_VERSION, SEVERITIES, max_severity,
                       validate_finding)

REPORT_VERSION = 1

def as_document(result: ScanResult) -> dict:
    """The JSON-format report as a plain dict (deterministic ordering)."""
    counts = Counter(f.detector for f in result.findings)
    severities = Counter(f.severity for f in result.findings)
    return {
        "version": REPORT_VERSION,
        "schema": SCHEMA_VERSION,
        # The whole-source digest the trace cache keys on, so a finding
        # traces back to the exact code that produced it.
        "code_fingerprint": code_fingerprint()[:16],
        "detectors": list(result.detectors),
        "findings": [f.as_dict() for f in result.findings],
        "counts": {detector: counts[detector]
                   for detector in sorted(counts)},
        "severities": {level: severities[level] for level in SEVERITIES
                       if severities[level]},
        "victims": sorted({f.victim for f in result.findings}),
        "baselined": result.baselined,
        "max_severity": max_severity(result.findings),
    }


def render_json(result: ScanResult) -> str:
    return json.dumps(as_document(result), indent=2, sort_keys=True)


def render_text(result: ScanResult) -> str:
    """Human-readable report; empty scans get one summary line."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(finding.format())
    if result.findings:
        lines.append("")
        counts = Counter(f.detector for f in result.findings)
        for detector in sorted(counts):
            lines.append(f"{detector:22s} {counts[detector]}")
        lines.append(f"{len(result.findings)} finding(s) from "
                     f"{len(result.detectors)} detector(s), "
                     f"max severity {max_severity(result.findings)}")
    else:
        lines.append(f"clean: {len(result.detectors)} detector(s), "
                     f"0 findings")
    if result.baselined:
        lines.append(f"({result.baselined} baselined)")
    return "\n".join(lines)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid scan report: {message}")


def validate_document(document: dict) -> dict:
    """Validate a serialised scan report; raises ValueError on any drift.

    Returns the document unchanged on success so callers can chain
    ``validate_document(json.loads(...))``.
    """
    _require(isinstance(document, dict), "not an object")
    expected = {"version", "schema", "code_fingerprint", "detectors",
                "findings", "counts", "severities", "victims",
                "baselined", "max_severity"}
    _require(set(document) == expected,
             f"keys {sorted(document)} != {sorted(expected)}")
    _require(document["version"] == REPORT_VERSION,
             f"unsupported report version {document['version']!r} "
             f"(expected {REPORT_VERSION})")
    _require(document["schema"] == SCHEMA_VERSION,
             f"unsupported finding schema {document['schema']!r} "
             f"(expected {SCHEMA_VERSION})")
    _require(isinstance(document["code_fingerprint"], str)
             and len(document["code_fingerprint"]) == 16,
             "code_fingerprint must be a 16-char digest")
    _require(isinstance(document["detectors"], list)
             and all(isinstance(d, str) for d in document["detectors"]),
             "detectors must be a list of ids")
    _require(isinstance(document["findings"], list),
             "findings must be a list")
    findings = []
    for payload in document["findings"]:
        try:
            findings.append(validate_finding(payload))
        except ValueError as exc:
            raise ValueError(f"invalid scan report: {exc}")
    counts = Counter(f.detector for f in findings)
    _require(document["counts"] == {d: counts[d] for d in sorted(counts)},
             "counts do not match findings")
    severities = Counter(f.severity for f in findings)
    _require(document["severities"] == {level: severities[level]
                                        for level in SEVERITIES
                                        if severities[level]},
             "severities do not match findings")
    _require(document["victims"] == sorted({f.victim for f in findings}),
             "victims do not match findings")
    _require(isinstance(document["baselined"], int)
             and document["baselined"] >= 0,
             "baselined must be a non-negative integer")
    _require(document["max_severity"] == max_severity(findings),
             "max_severity does not match findings")
    return document
