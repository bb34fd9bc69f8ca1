"""Table V: the history attack on a T-Mobile-style multi-cell deployment.

Twelve attempts over three simulated days: the victim roams between
Zone A' (home), Zone B' (workplace) and Zone C' (grocery store), using
a different app in each zone for several minutes; the attacker's
per-zone sniffers reconstruct the timeline.  The paper detects 10 of 12
correctly — an 83 % success rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import obs, runtime
from ..apps import app_names
from ..core.dataset import collect_traces, windows_from_traces
from ..core.fingerprint import HierarchicalFingerprinter
from ..core.history import (HistoryAttack, HistoryFinding, ZoneVisit,
                            evaluate_findings)
from ..operators.profiles import TMOBILE, OperatorProfile
from .common import Scale, format_table, get_scale

#: The paper's 12 attempts: (day, zone, app), mirroring Table V's mix of
#: zones and app categories over three days.
TABLE_V_SCRIPT: Tuple[Tuple[int, str, str], ...] = (
    (1, "Zone A'", "Netflix"),
    (1, "Zone B'", "Telegram"),
    (1, "Zone C'", "Facebook Call"),
    (1, "Zone A'", "YouTube"),
    (1, "Zone B'", "Facebook"),
    (2, "Zone A'", "WhatsApp Call"),
    (2, "Zone B'", "WhatsApp"),
    (2, "Zone C'", "Amazon Prime"),
    (3, "Zone A'", "YouTube"),
    (3, "Zone B'", "Skype"),
    (3, "Zone A'", "Facebook"),
    (3, "Zone A'", "Netflix"),
)


@dataclass
class HistoryResult:
    """The attacker's reconstructed Table V.

    ``attack`` keeps the campaign's identity state (per-zone sniffers,
    victim TMSI, horizon) for the identity-layer scan detectors.
    """

    findings: List[HistoryFinding]
    summary: dict
    attack: HistoryAttack

    def table(self) -> str:
        headers = ["Zone", "Start", "End", "Duration", "Prediction",
                   "Category", "Conf", "Result"]
        rows = []
        for finding in self.findings:
            result = ("TRUE" if finding.correct
                      else "FALSE" if finding.correct is not None else "-")
            rows.append([finding.zone, f"{finding.start_s:8.1f}",
                         f"{finding.end_s:8.1f}",
                         f"{finding.duration_s:6.1f}s",
                         finding.predicted_app, finding.predicted_category,
                         f"{finding.confidence:.2f}", result])
        table = format_table(headers, rows, title="Table V — history attack")
        return (f"{table}\n"
                f"success rate: {self.summary['correct']}"
                f"/{self.summary['visits']}"
                f" = {self.summary['success_rate']:.0%}")


def build_visits(scale: Scale, gap_s: float = 60.0) -> List[ZoneVisit]:
    """Lay the 12 scripted attempts on one continuous timeline.

    Days are separated by a longer quiet gap; within a day, visits are
    ``gap_s`` apart so the victim goes RRC-idle (and usually moves)
    between apps.
    """
    visits: List[ZoneVisit] = []
    clock = 5.0
    previous_day = None
    for day, zone, app in TABLE_V_SCRIPT:
        if previous_day is not None and day != previous_day:
            clock += 3.0 * gap_s
        previous_day = day
        visits.append(ZoneVisit(zone=zone, app=app, start_s=clock,
                                duration_s=scale.history_visit_s))
        clock += scale.history_visit_s + gap_s
    return visits


@obs.timed("experiment.table5")
def run(scale="fast", seed: int = 31,
        operator: OperatorProfile = TMOBILE,
        use_imsi_catcher: bool = True,
        workers: Optional[int] = None) -> HistoryResult:
    """Reproduce Table V end to end."""
    resolved = get_scale(scale)
    with runtime.overrides(workers=workers):
        train = collect_traces(list(app_names()), operator=operator,
                               traces_per_app=resolved.traces_per_app,
                               duration_s=resolved.trace_duration_s,
                               seed=seed)
        windows = windows_from_traces(train)
        fingerprinter = HierarchicalFingerprinter(n_trees=resolved.n_trees,
                                                  seed=seed + 1)
        fingerprinter.fit(windows)
        attack = HistoryAttack(fingerprinter, operator=operator,
                               use_imsi_catcher=use_imsi_catcher,
                               episode_gap_s=30.0)
        visits = build_visits(resolved)
        findings = attack.run(visits, seed=seed + 2)
    summary = evaluate_findings(findings, visits)
    return HistoryResult(findings=findings, summary=summary,
                         attack=attack)
