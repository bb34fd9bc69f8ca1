"""The scanner's finding schema: one format for every attack's output.

Each attack detector emits :class:`Finding` objects — a victim handle,
evidence windows, a confidence in [0, 1] calibrated from classifier
margins / DTW decision scores, a severity, the detector id — instead of
its table driver's ad-hoc result.  The schema is deliberately closed and
fully validated so reports round-trip byte-identically through JSON:

* every field is a plain string / float / int / list of the same;
* floats must be finite (json round-trips finite floats exactly);
* each finding carries a content fingerprint — sha256 over the
  canonical JSON of its identity fields — so suppression baselines and
  the batch-vs-streaming parity tests compare findings by value, not
  by object identity or emission order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

#: Version of the finding schema itself (bumped on field changes).
SCHEMA_VERSION = 1

#: Severity ladder, least to most severe.
SEVERITIES: Tuple[str, ...] = ("info", "low", "medium", "high", "critical")

_SEVERITY_RANK: Dict[str, int] = {name: rank
                                  for rank, name in enumerate(SEVERITIES)}


def severity_rank(severity: str) -> int:
    """Position on the severity ladder (0 = info)."""
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(f"unknown severity {severity!r}; "
                         f"known: {list(SEVERITIES)}") from None


def max_severity(findings: Iterable["Finding"]) -> Optional[str]:
    """The most severe level present, or None for no findings."""
    best = -1
    for finding in findings:
        best = max(best, severity_rank(finding.severity))
    return SEVERITIES[best] if best >= 0 else None


# -- confidence calibration ----------------------------------------------------------

def clip01(value: float) -> float:
    """Clamp a score into the schema's [0, 1] confidence range."""
    if math.isnan(value):
        return 0.0
    return float(min(1.0, max(0.0, value)))


def vote_confidence(top_votes: int, total_votes: int) -> float:
    """Majority-vote confidence: fraction of windows voting the winner.

    The same ratio :class:`~repro.core.fingerprint.TraceVerdict` carries,
    so detector confidences are directly comparable to the per-trace
    verdict API's.
    """
    if total_votes <= 0:
        return 0.0
    return clip01(top_votes / total_votes)


def evidence_confidence(count: float, half_life: float) -> float:
    """Saturating confidence from an evidence count.

    ``count / (count + half_life)`` — 0 at no evidence, 0.5 when the
    count reaches ``half_life``, asymptotically 1.  Strictly monotone
    non-decreasing in ``count``, which is what makes detector
    confidences monotone non-increasing under capture-loss fault plans:
    dropping records can only shrink the evidence count.
    """
    if half_life <= 0:
        raise ValueError(f"half_life must be positive: {half_life}")
    if count <= 0:
        return 0.0
    return clip01(count / (count + half_life))


def severity_from_confidence(confidence: float,
                             floor: str = "low") -> str:
    """Map a calibrated confidence onto the severity ladder.

    >= 0.9 is ``high``, >= 0.6 ``medium``, otherwise ``low``; ``floor``
    raises the minimum for detectors whose mere positive finding is
    already serious.
    """
    if confidence >= 0.9:
        level = "high"
    elif confidence >= 0.6:
        level = "medium"
    else:
        level = "low"
    if severity_rank(level) < severity_rank(floor):
        return floor
    return level


# -- evidence ------------------------------------------------------------------------

@dataclass(frozen=True)
class EvidenceWindow:
    """One time interval of radio-layer evidence in one cell."""

    cell: str
    start_s: float
    end_s: float
    kind: str = "activity"      # capture | episode | binding | linkage | ...
    detail: str = ""

    def __post_init__(self) -> None:
        if not self.cell:
            raise ValueError("evidence window needs a cell")
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise ValueError("evidence times must be finite")
        if self.end_s < self.start_s:
            raise ValueError(
                f"evidence window runs backwards: "
                f"[{self.start_s}, {self.end_s}]")

    def as_dict(self) -> dict:
        return {"cell": self.cell, "start_s": float(self.start_s),
                "end_s": float(self.end_s), "kind": self.kind,
                "detail": self.detail}


# -- findings ------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    """One structured attack result in the scanner's common schema."""

    detector: str               # registered detector id
    victim: str                 # attacker-side victim handle (e.g. a TMSI)
    summary: str                # one human-readable line
    severity: str               # one of SEVERITIES
    confidence: float           # calibrated, in [0, 1]
    evidence: Tuple[EvidenceWindow, ...] = ()
    #: Sorted (name, value) pairs — a hashable, deterministic metrics map.
    metrics: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.detector:
            raise ValueError("finding needs a detector id")
        if not self.victim:
            raise ValueError("finding needs a victim handle")
        severity_rank(self.severity)
        if not math.isfinite(self.confidence):
            raise ValueError(f"confidence must be finite: {self.confidence}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(
                f"confidence must be in [0, 1]: {self.confidence}")
        for name, value in self.metrics:
            if not math.isfinite(value):
                raise ValueError(f"metric {name!r} must be finite: {value}")

    def _identity(self) -> dict:
        return {
            "detector": self.detector,
            "victim": self.victim,
            "summary": self.summary,
            "severity": self.severity,
            "confidence": float(self.confidence),
            "evidence": [window.as_dict() for window in self.evidence],
            "metrics": {name: float(value) for name, value in self.metrics},
        }

    def fingerprint(self) -> str:
        """Content-addressed identity: sha256 of the canonical JSON."""
        payload = json.dumps(self._identity(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def baseline_key(self) -> tuple:
        return ((self.detector, self.victim),)

    def baseline_entry(self) -> dict:
        return {"detector": self.detector, "victim": self.victim,
                "summary": self.summary}

    def as_dict(self) -> dict:
        document = self._identity()
        document["fingerprint"] = self.fingerprint()
        return document

    def format(self) -> str:
        """One report line: severity, detector, victim, summary."""
        return (f"{self.severity.upper():8s} {self.detector:22s} "
                f"{self.victim:28s} {self.summary} "
                f"(confidence {self.confidence:.2f})")


def make_metrics(values: Mapping[str, float]
                 ) -> Tuple[Tuple[str, float], ...]:
    """Normalise a metrics mapping into the schema's sorted tuple form."""
    return tuple((name, float(values[name])) for name in sorted(values))


def make_finding(detector: str, victim: str, summary: str, severity: str,
                 confidence: float,
                 evidence: Sequence[EvidenceWindow] = (),
                 metrics: Optional[Mapping[str, float]] = None) -> Finding:
    """Construct a validated finding from loose arguments."""
    return Finding(detector=detector, victim=victim, summary=summary,
                   severity=severity, confidence=clip01(confidence),
                   evidence=tuple(evidence),
                   metrics=make_metrics(metrics or {}))


# -- schema validation ---------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid finding: {message}")


def validate_finding(payload: dict) -> Finding:
    """Validate one serialised finding and reconstruct it.

    Raises :class:`ValueError` on any schema violation, including a
    fingerprint that does not match the recomputed content hash — the
    round-trip property the Hypothesis suite leans on.
    """
    _require(isinstance(payload, dict), "not an object")
    expected = {"detector", "victim", "summary", "severity", "confidence",
                "evidence", "metrics", "fingerprint"}
    _require(set(payload) == expected,
             f"keys {sorted(payload)} != {sorted(expected)}")
    for key in ("detector", "victim", "summary", "severity", "fingerprint"):
        _require(isinstance(payload[key], str), f"{key} must be a string")
    _require(isinstance(payload["confidence"], (int, float))
             and not isinstance(payload["confidence"], bool),
             "confidence must be a number")
    _require(math.isfinite(float(payload["confidence"]))
             and 0.0 <= float(payload["confidence"]) <= 1.0,
             f"confidence out of range: {payload['confidence']}")
    _require(isinstance(payload["evidence"], list), "evidence must be a list")
    _require(isinstance(payload["metrics"], dict), "metrics must be a map")
    windows = []
    for entry in payload["evidence"]:
        _require(isinstance(entry, dict), "evidence entry must be an object")
        _require(set(entry) == {"cell", "start_s", "end_s", "kind",
                                "detail"},
                 f"evidence keys {sorted(entry)}")
        try:
            windows.append(EvidenceWindow(
                cell=entry["cell"], start_s=float(entry["start_s"]),
                end_s=float(entry["end_s"]), kind=entry["kind"],
                detail=entry["detail"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid finding: bad evidence ({exc})")
    metrics = {}
    for name, value in payload["metrics"].items():
        _require(isinstance(name, str), "metric names must be strings")
        _require(isinstance(value, (int, float))
                 and not isinstance(value, bool),
                 f"metric {name!r} must be a number")
        metrics[name] = float(value)
    try:
        finding = make_finding(
            detector=payload["detector"], victim=payload["victim"],
            summary=payload["summary"], severity=payload["severity"],
            confidence=float(payload["confidence"]), evidence=windows,
            metrics=metrics)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid finding: {exc}")
    _require(finding.fingerprint() == payload["fingerprint"],
             f"fingerprint mismatch: recorded {payload['fingerprint']}, "
             f"computed {finding.fingerprint()}")
    return finding
