"""Table VII: precision/recall of the correlation attack's verdict.

For each conversational app and environment, train the logistic-
regression communication classifier on similarity features from
communicating and non-communicating pairs, then score held-out pairs.
Expected shape: lab near-perfect (VoIP precision → 1.0 — "the attacker
just needs to get lucky once"), carriers in the 0.65–0.87 band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs, runtime
from ..core.correlation import CorrelationAttack, precision_recall
from ..core.dataset import PairSpec, collect_pairs
from ..operators.profiles import OperatorProfile
from .common import format_table, get_scale
from .table6_similarity import ENVIRONMENTS, conversational_apps


#: (environment name, app) — one cell of the sweep.
Cell = Tuple[str, str]


@dataclass
class CorrelationResult:
    """(precision, recall) per environment and app.

    Each cell also keeps its fitted attack, its held-out pairs
    (positives first) and their predicted labels, so the
    ``identity-correlation`` scan detector can report flagged pairs.
    """

    scores: Dict[str, Dict[str, Tuple[float, float]]]
    apps: List[str]
    attacks: Dict[Cell, CorrelationAttack]
    pairs: Dict[Cell, list]
    y_pred: Dict[Cell, np.ndarray]

    def table(self) -> str:
        envs = list(self.scores)
        headers = ["App"] + [f"{env} {stat}" for env in envs
                             for stat in ("P", "R")]
        rows = []
        for app in self.apps:
            row = [app]
            for env in envs:
                p, r = self.scores[env][app]
                row.extend([p, r])
            rows.append(row)
        return format_table(headers, rows,
                            title="Table VII — correlation attack "
                                  "precision/recall (logistic regression)")

    def precision(self, env: str, app: str) -> float:
        return self.scores[env][app][0]

    def recall(self, env: str, app: str) -> float:
        return self.scores[env][app][1]


def _pairs_for(app: str, kind: str, environment: OperatorProfile,
               count: int, duration_s: float, seed: int):
    """Build matched communicating and non-communicating pair sets.

    Negatives are the *hard* kind: each user genuinely holds a
    conversation on the same app — just with somebody else — so their
    traffic has real conversational structure and only the rhythm
    alignment betrays the missing pairing.
    """
    specs: List[PairSpec] = []
    for repeat in range(count):
        for offset in (0, 1000, 2000):
            specs.append(PairSpec(app_name=app, kind=kind,
                                  operator=environment,
                                  duration_s=duration_s,
                                  seed=seed + offset + 17 * repeat))
    collected = collect_pairs(specs)
    positives, negatives = [], []
    for repeat in range(count):
        genuine = collected[3 * repeat]
        other_a, _ = collected[3 * repeat + 1]
        other_b, _ = collected[3 * repeat + 2]
        positives.append(genuine)
        negatives.append((other_a, other_b))
    return positives, negatives


@obs.timed("experiment.table7")
def run(scale="fast", seed: int = 53,
        workers: Optional[int] = None,
        environments: Optional[Tuple[OperatorProfile, ...]] = None
        ) -> CorrelationResult:
    """Reproduce Table VII across environments and apps.

    ``environments`` restricts the sweep (default: the paper's full
    set).  Each environment's per-cell seeds depend only on its index
    *within the sweep*, so a restricted run matches the corresponding
    prefix of the full table.
    """
    resolved = get_scale(scale)
    if environments is None:
        environments = ENVIRONMENTS
    apps = [name for name, _ in conversational_apps()]
    scores: Dict[str, Dict[str, Tuple[float, float]]] = {}
    result = CorrelationResult(scores=scores, apps=apps, attacks={},
                               pairs={}, y_pred={})
    n_train = max(3, resolved.pairs_per_app)
    n_test = max(2, resolved.pairs_per_app // 2 + 1)
    with runtime.overrides(workers=workers):
        for env_index, environment in enumerate(environments):
            per_app: Dict[str, Tuple[float, float]] = {}
            for app_index, (app, kind) in enumerate(conversational_apps()):
                base = seed + 3001 * env_index + 331 * app_index
                train_pos, train_neg = _pairs_for(
                    app, kind, environment, n_train,
                    resolved.trace_duration_s, base)
                test_pos, test_neg = _pairs_for(
                    app, kind, environment, n_test,
                    resolved.trace_duration_s, base + 50_000)
                attack = CorrelationAttack(seed=base)
                attack.fit(train_pos, train_neg)
                pairs = list(test_pos) + list(test_neg)
                y_true = np.array([1] * len(test_pos) + [0] * len(test_neg))
                y_pred = attack.predict_pairs(pairs)
                per_app[app] = precision_recall(y_true, y_pred)
                cell = (environment.name, app)
                result.attacks[cell] = attack
                result.pairs[cell] = pairs
                result.y_pred[cell] = y_pred
            scores[environment.name] = per_app
    return result
