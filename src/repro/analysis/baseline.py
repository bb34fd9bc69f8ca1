"""Baseline files: grandfathered findings that don't fail the build.

A baseline entry fingerprints a finding by *what* it is — (rule,
normalised source line) — not *where* it is, so unrelated edits that
shift line numbers don't churn the file, and a ``git mv`` doesn't
resurrect grandfathered findings under their new path.  Because the
fingerprint is path-free, matching is **count-bounded** (version 3):
each entry records how many identical findings existed when the
baseline was written, and suppresses at most that many — a brand-new
violation that happens to have identical source text in some other
file pushes the count over the recorded bound and fails the build
instead of being silently grandfathered.  The shipped baseline
(``lint-baseline.json``) is empty by policy: new code meets the rules,
legitimate exceptions use inline ``# repro: noqa[ID]`` with a
justifying comment, and the baseline exists for bulk-importing legacy
trees only.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from .engine import Finding

BASELINE_VERSION = 3


def fingerprint(finding: Finding) -> str:
    """Location-independent identity of one finding.

    Deliberately path-free: the same offending line carries the same
    fingerprint wherever the file lives, so baselines survive renames.
    The occurrence bound lives in the baseline entry, not here.
    """
    normalised = " ".join(finding.snippet.split())
    payload = f"{finding.rule}\0{normalised}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def write_baseline(path: Union[str, Path],
                   findings: Iterable[Finding]) -> dict:
    """Serialise ``findings`` as the new baseline; returns the document."""
    findings = list(findings)
    counts = Counter(fingerprint(f) for f in findings)
    representative = {}
    for finding in sorted(findings,
                          key=lambda f: (f.path, f.rule, f.line, f.col)):
        representative.setdefault(fingerprint(finding), finding)
    entries = sorted(
        representative.items(),
        key=lambda item: (item[1].path, item[1].rule, item[0]))
    document = {
        "version": BASELINE_VERSION,
        "entries": [{"fingerprint": fp, "count": counts[fp],
                     "path": f.path, "rule": f.rule,
                     "snippet": f.snippet} for fp, f in entries],
    }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")
    return document


def read_entry_counts(path: Union[str, Path], version: int,
                      kind: str) -> Dict[str, int]:
    """Fingerprint -> max occurrences from a versioned baseline file.

    Shared by the lint and scan baselines.  Anything but a
    ``{"version": version, "entries": [...]}`` document whose entries
    each carry a string ``fingerprint`` and an integer ``count`` >= 1
    (default 1) raises ValueError, which the CLIs report as bad input.
    """
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict) or "entries" not in document:
        raise ValueError(f"not a {kind} baseline: {path}")
    found = document.get("version")
    if found != version:
        raise ValueError(
            f"unsupported {kind} baseline version {found!r} in {path}")
    entries = document["entries"]
    if not isinstance(entries, list):
        raise ValueError(f"{kind} baseline entries must be a list: {path}")
    counts: Dict[str, int] = {}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(
                f"{kind} baseline entry {index} is not an object: {path}")
        fp = entry.get("fingerprint")
        count = entry.get("count", 1)
        if not isinstance(fp, str):
            raise ValueError(f"{kind} baseline entry {index} has no "
                             f"string fingerprint: {path}")
        if isinstance(count, bool) or not isinstance(count, int) \
                or count < 1:
            raise ValueError(f"{kind} baseline entry {index} has count "
                             f"{count!r}, not an integer >= 1: {path}")
        counts[fp] = count
    return counts


def load_baseline(path: Union[str, Path]) -> Dict[str, int]:
    """Grandfathered fingerprints -> max occurrences, from ``path``."""
    return read_entry_counts(path, BASELINE_VERSION, "lint")


def apply_baseline(findings: Iterable[Finding],
                   grandfathered: Dict[str, int]
                   ) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (new, baselined).

    Matching is count-bounded: each fingerprint suppresses at most its
    recorded occurrence count, in the findings' sorted order, so extra
    copies of a grandfathered line (new call sites, new files) surface
    as new findings.
    """
    remaining = dict(grandfathered)
    new: List[Finding] = []
    old: List[Finding] = []
    for finding in findings:
        fp = fingerprint(finding)
        if remaining.get(fp, 0) > 0:
            remaining[fp] -= 1
            old.append(finding)
        else:
            new.append(finding)
    return new, old
