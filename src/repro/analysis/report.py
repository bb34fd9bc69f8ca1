"""Reporters: render a :class:`~repro.analysis.engine.LintResult`.

Three formats, chosen by ``lint --format``:

* **text** — one ``path:line:col: RULE message`` line per finding plus
  a per-rule summary table, for humans and CI logs;
* **json** — a versioned document (schema below) for tooling;
* **sarif** — a minimal SARIF 2.1.0 log (one run, the full rule
  catalogue, one result per finding) for code-scanning UIs.  The
  document is deterministic: rules sorted by id, results in the
  engine's sorted finding order, keys sorted on serialisation.

JSON schema (version 1)::

    {
      "version": 1,
      "files_scanned": 76,
      "suppressed": 1,
      "baselined": 0,
      "findings": [
        {"path": ..., "line": ..., "col": ..., "rule": ...,
         "family": ..., "message": ..., "snippet": ...},
      ],
      "counts": {"DET001": 1, ...},          # per rule id, sorted
    }
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List

from .engine import Finding, LintResult

REPORT_VERSION = 1


def render_text(result: LintResult, baselined: int = 0) -> str:
    """Human-readable report; empty-finding runs get one summary line."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(finding.format())
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    if result.findings:
        lines.append("")
        counts = Counter(f.rule for f in result.findings)
        for rule_id in sorted(counts):
            lines.append(f"{rule_id:8s} {counts[rule_id]}")
        lines.append(f"{len(result.findings)} finding(s) in "
                     f"{result.files_scanned} file(s)")
    else:
        lines.append(f"clean: {result.files_scanned} file(s), "
                     f"0 findings")
    extras = []
    if result.suppressed:
        extras.append(f"{result.suppressed} suppressed by noqa")
    if baselined:
        extras.append(f"{baselined} baselined")
    if extras:
        lines.append(f"({', '.join(extras)})")
    return "\n".join(lines)


def as_document(result: LintResult, baselined: int = 0) -> dict:
    """The JSON-format report as a plain dict."""
    counts = Counter(f.rule for f in result.findings)
    return {
        "version": REPORT_VERSION,
        "files_scanned": result.files_scanned,
        "suppressed": result.suppressed,
        "baselined": baselined,
        "findings": [f.as_dict() for f in result.findings],
        "counts": {rule_id: counts[rule_id] for rule_id in sorted(counts)},
    }


def render_json(result: LintResult, baselined: int = 0) -> str:
    return json.dumps(as_document(result, baselined=baselined),
                      indent=2, sort_keys=True)


#: SARIF fixed header fields (2.1.0 is what code-scanning consumers pin).
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


def as_sarif(result: LintResult) -> dict:
    """The SARIF 2.1.0 log as a plain dict (deterministic ordering)."""
    from .engine import all_rules

    registry = all_rules()
    rules = [
        {
            "id": rule_id,
            "name": type(registry[rule_id]).__name__,
            "shortDescription": {"text": registry[rule_id].title},
            "properties": {"family": registry[rule_id].family},
        }
        for rule_id in sorted(registry)
    ]
    results = []
    for finding in result.findings:
        results.append({
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        # SARIF columns are 1-based; ast's are 0-based.
                        "startColumn": finding.col + 1,
                    },
                },
            }],
        })
    return {
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }


def render_sarif(result: LintResult) -> str:
    return json.dumps(as_sarif(result), indent=2, sort_keys=True)
