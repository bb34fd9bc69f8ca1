"""Scan suppression baselines: known findings that don't gate the build.

Mirrors the lint baseline (:mod:`repro.analysis.baseline`, version 3
semantics): entries are keyed by the finding's *content* fingerprint —
already location-free and value-addressed — and matching is
**count-bounded**: each fingerprint suppresses at most the number of
identical findings recorded when the baseline was written, so a new
victim that happens to produce an identical finding still fails the
severity gate instead of being silently grandfathered.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from ..analysis.baseline import read_entry_counts
from .findings import Finding

BASELINE_VERSION = 1


def write_baseline(path: Union[str, Path],
                   findings: Iterable[Finding]) -> dict:
    """Serialise ``findings`` as the new baseline; returns the document."""
    findings = list(findings)
    counts = Counter(f.fingerprint() for f in findings)
    representative: Dict[str, Finding] = {}
    for finding in sorted(findings,
                          key=lambda f: (f.detector, f.victim,
                                         f.fingerprint())):
        representative.setdefault(finding.fingerprint(), finding)
    entries = sorted(representative.items(),
                     key=lambda item: (item[1].detector, item[1].victim,
                                       item[0]))
    document = {
        "version": BASELINE_VERSION,
        "entries": [{"fingerprint": fp, "count": counts[fp],
                     "detector": f.detector, "victim": f.victim,
                     "summary": f.summary} for fp, f in entries],
    }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")
    return document


def load_baseline(path: Union[str, Path]) -> Dict[str, int]:
    """Suppressed fingerprints -> max occurrences, from ``path``."""
    return read_entry_counts(path, BASELINE_VERSION, "scan")


def apply_baseline(findings: Iterable[Finding],
                   suppressed: Dict[str, int]
                   ) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (new, baselined), count-bounded per entry."""
    remaining = dict(suppressed)
    new: List[Finding] = []
    old: List[Finding] = []
    for finding in findings:
        fp = finding.fingerprint()
        if remaining.get(fp, 0) > 0:
            remaining[fp] -= 1
            old.append(finding)
        else:
            new.append(finding)
    return new, old
