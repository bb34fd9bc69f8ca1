"""Multi-cell verdict fusion for live cross-cell victim tracking.

The paper's history attack (§V) follows one victim across cells: each
sniffer contributes per-window verdicts for the RNTIs bound to the
victim's identity, and the attacker fuses them into one judgement.
:class:`VerdictFusion` accumulates :class:`WindowVerdict` streams
keyed by victim, sums per-app vote counts across every contributing
cell, and majority-votes the merged counts — the same bincount-argmax
the per-trace verdict uses, applied to the union of windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.fingerprint import HierarchicalFingerprinter
from .online import WindowVerdict


@dataclass(frozen=True)
class FusedVerdict:
    """The merged multi-cell judgement for one victim."""

    victim: str
    app: str
    category: str
    confidence: float          # fraction of fused windows voting app
    window_count: int          # windows across all contributing cells
    cells: Tuple[str, ...]     # contributing cells, first-seen order

    def __str__(self) -> str:
        return (f"{self.victim}: {self.app} [{self.category}] "
                f"({self.confidence:.0%} of {self.window_count} windows "
                f"across {len(self.cells)} cells)")


class VerdictFusion:
    """Accumulate per-cell window verdicts into per-victim judgements."""

    def __init__(self, model: HierarchicalFingerprinter) -> None:
        meta = model._require_fit()
        self._apps = meta.app_encoder.classes_
        self._categories = meta.category_encoder.classes_
        self._app_of_category = meta.app_of_category
        self._n_apps = meta.app_encoder.n_classes
        self._votes: Dict[str, np.ndarray] = {}
        self._cells: Dict[str, List[str]] = {}
        self._victim_order: List[str] = []

    def add(self, victim: str, cell: str,
            verdicts: Iterable[WindowVerdict]) -> None:
        """Fold one cell's window verdicts into a victim's tally."""
        self.add_votes(victim, cell,
                       [verdict.app_id for verdict in verdicts])

    def add_votes(self, victim: str, cell: str,
                  app_ids: Sequence[int]) -> None:
        """Fold raw per-window app ids into a victim's tally.

        The batch path (classifying a whole captured trace at once)
        and the streaming path (per-chunk :class:`WindowVerdict`
        batches) both land here, so fused verdicts — and the scan
        findings derived from them — are one code path regardless of
        how the windows arrived.
        """
        votes = self._votes.get(victim)
        if votes is None:
            votes = np.zeros(self._n_apps, dtype=np.int64)
            self._votes[victim] = votes
            self._cells[victim] = []
            self._victim_order.append(victim)
        if len(app_ids):
            votes += np.bincount(np.asarray(app_ids, dtype=np.int64),
                                 minlength=self._n_apps)
            if cell not in self._cells[victim]:
                self._cells[victim].append(cell)

    def fused(self, victim: str) -> Optional[FusedVerdict]:
        """The current merged judgement; ``None`` before any window."""
        votes = self._votes.get(victim)
        if votes is None:
            return None
        total = int(votes.sum())
        if total == 0:
            return None
        app_id = int(np.argmax(votes))
        category_id = int(self._app_of_category[app_id])
        return FusedVerdict(
            victim=victim,
            app=self._apps[app_id],
            category=self._categories[category_id],
            confidence=float(votes[app_id] / total),
            window_count=total,
            cells=tuple(self._cells[victim]))

    def all_fused(self) -> List[FusedVerdict]:
        """Every victim's current judgement, first-seen order."""
        fused = []
        for victim in self._victim_order:
            verdict = self.fused(victim)
            if verdict is not None:
                fused.append(verdict)
        return fused
