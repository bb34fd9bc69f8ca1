"""Suppression baselines: known findings that don't fail the build.

One count-bounded core for both finding kinds — lint findings
(:class:`repro.analysis.engine.Finding`) and scan findings
(:class:`repro.scan.findings.Finding`).  A baseline entry keys a
finding by its location-free ``fingerprint()``: the rule plus the
normalised source line for lint, so line shifts and ``git mv`` don't
churn the file; the content digest for scan.  Because the fingerprint
carries no location, matching is **count-bounded**: each entry records
how many identical findings existed when the baseline was written, and
suppresses at most that many — an identical new violation elsewhere
pushes the count over the bound and fails the build instead of being
silently grandfathered.

Each finding type supplies three methods:

* ``fingerprint()`` — the entry key;
* ``baseline_key()`` — ``(group, tiebreak...)``: entries are ordered by
  group, then fingerprint, and the smallest key among findings sharing
  a fingerprint supplies the entry's fields;
* ``baseline_entry()`` — the human-readable entry fields.

The shipped lint baseline (``lint-baseline.json``) is empty by policy:
new code meets the rules, legitimate exceptions use inline
``# repro: noqa[ID]`` with a justifying comment, and a baseline exists
for bulk-importing legacy trees only.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, TypeVar, Union

#: Document version per finding kind.
VERSIONS: Dict[str, int] = {"lint": 3, "scan": 1}

#: Baseline each tool uses when it exists and none is named.
DEFAULT_PATHS: Dict[str, Path] = {"lint": Path("lint-baseline.json"),
                                  "scan": Path("scan-baseline.json")}

F = TypeVar("F")


def write_baseline(path: Union[str, Path], findings: Iterable[F],
                   kind: str) -> dict:
    """Serialise ``findings`` as the new ``kind`` baseline.

    The bytes depend only on the multiset of findings, never on their
    order.  Returns the document.
    """
    ranked = sorted(findings, key=lambda f: f.baseline_key())
    counts = Counter(f.fingerprint() for f in ranked)
    first: Dict[str, F] = {}
    for finding in ranked:
        first.setdefault(finding.fingerprint(), finding)
    entries = sorted(first.items(),
                     key=lambda item: (item[1].baseline_key()[0], item[0]))
    document = {
        "version": VERSIONS[kind],
        "entries": [dict(finding.baseline_entry(), fingerprint=fp,
                         count=counts[fp]) for fp, finding in entries],
    }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")
    return document


def load_baseline(path: Union[str, Path], kind: str) -> Dict[str, int]:
    """Fingerprint -> max occurrences from a ``kind`` baseline file.

    Anything but a ``{"version": VERSIONS[kind], "entries": [...]}``
    document whose entries each carry a string ``fingerprint`` and an
    integer ``count`` >= 1 (default 1) raises ValueError, which the
    CLIs report as bad input.
    """
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict) or "entries" not in document:
        raise ValueError(f"not a {kind} baseline: {path}")
    found = document.get("version")
    if found != VERSIONS[kind]:
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


def apply_baseline(findings: Iterable[F], counts: Dict[str, int]
                   ) -> Tuple[List[F], List[F]]:
    """Split findings into (new, baselined).

    Each fingerprint suppresses at most its recorded count, in the
    findings' order, so extra copies of a baselined finding surface as
    new ones.
    """
    remaining = dict(counts)
    new: List[F] = []
    old: List[F] = []
    for finding in findings:
        fp = finding.fingerprint()
        if remaining.get(fp, 0) > 0:
            remaining[fp] -= 1
            old.append(finding)
        else:
            new.append(finding)
    return new, old
