"""Table VI: DTW similarity scores of communicating pairs.

For each messaging and VoIP app, in the lab and on each carrier, the
paper records 10 conversation pairs and reports the mean and standard
deviation of the DTW similarity D(T_w, T_a) with T_w = 1 s.  Expected
shape: lab scores highest (0.75–0.93), carriers lower (0.61–0.78).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs, runtime
from ..apps import AppCategory, apps_in_category
from ..core.correlation import CorrelationAttack
from ..core.dataset import PairSpec, collect_pairs
from ..operators.profiles import ATT, LAB, TMOBILE, VERIZON, OperatorProfile
from .common import format_table, get_scale

#: Table VI's six conversational apps: 3 messaging, 3 VoIP.
def conversational_apps() -> List[Tuple[str, str]]:
    """(app, kind) for every messaging and VoIP app."""
    return ([(name, "chat")
             for name in apps_in_category(AppCategory.MESSAGING)]
            + [(name, "call") for name in apps_in_category(AppCategory.VOIP)])


ENVIRONMENTS: Tuple[OperatorProfile, ...] = (LAB, ATT, TMOBILE, VERIZON)


@dataclass
class SimilarityResult:
    """mean/std similarity per (environment, app)."""

    scores: Dict[str, Dict[str, Tuple[float, float]]]  # env -> app -> (m, s)
    apps: List[str]

    def table(self) -> str:
        envs = list(self.scores)
        headers = ["App"] + [f"{env} {stat}" for env in envs
                             for stat in ("mean", "std")]
        rows = []
        for app in self.apps:
            row = [app]
            for env in envs:
                mean, std = self.scores[env][app]
                row.extend([mean, std])
            rows.append(row)
        return format_table(headers, rows,
                            title="Table VI — similarity of communicating "
                                  "pairs, D(T_w, T_a)")

    def env_average(self, env: str) -> float:
        return float(np.mean([self.scores[env][a][0] for a in self.apps]))


@obs.timed("experiment.table6")
def run(scale="fast", seed: int = 41, bin_s: float = 1.0,
        workers: Optional[int] = None) -> SimilarityResult:
    """Reproduce Table VI across environments and apps.

    Every (environment, app, repeat) campaign is an independent seeded
    simulation, so the whole table is one :func:`collect_pairs` fan-out
    (cache-aware, parallel) followed by scoring.
    """
    resolved = get_scale(scale)
    attack = CorrelationAttack(bin_s=bin_s)
    apps = [name for name, _ in conversational_apps()]
    specs: List[PairSpec] = []
    for env_index, environment in enumerate(ENVIRONMENTS):
        for app_index, (app, kind) in enumerate(conversational_apps()):
            for repeat in range(resolved.pairs_per_app):
                specs.append(PairSpec(
                    app_name=app, kind=kind, operator=environment,
                    duration_s=resolved.trace_duration_s,
                    seed=(seed + 1009 * env_index + 211 * app_index
                          + 13 * repeat)))
    with runtime.overrides(workers=workers):
        pairs = collect_pairs(specs)
    scores: Dict[str, Dict[str, Tuple[float, float]]] = {}
    cursor = 0
    for environment in ENVIRONMENTS:
        per_app: Dict[str, Tuple[float, float]] = {}
        for app, _kind in conversational_apps():
            values = [attack.similarity(a, b) for a, b in
                      pairs[cursor:cursor + resolved.pairs_per_app]]
            cursor += resolved.pairs_per_app
            per_app[app] = (float(np.mean(values)), float(np.std(values)))
        scores[environment.name] = per_app
    return SimilarityResult(scores=scores, apps=apps)
