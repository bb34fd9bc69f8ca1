"""MAC scheduling types shared by the eNodeB and its schedulers.

The scheduler is the component that translates application behaviour
into the frame-size/interarrival fingerprint the attack observes.  Real
operators run different (proprietary) disciplines, which the paper
identifies as a key reason models must be trained per carrier; the
eNodeB runs round-robin, proportional-fair and greedy max-CQI through
the batched schedulers of :mod:`repro.lte.vecsched`, and operator
profiles choose.

:class:`CrossTraffic` is the ambient load that shrinks every TTI's PRB
budget.  The engine carries grants as span columns
(:mod:`repro.lte.engine`), so no grant type lives here; the per-demand
reference schedulers in ``tests/lte/oracles.py`` define their own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class CrossTraffic:
    """Ambient load from other (non-victim) subscribers in the cell.

    Real cells are never empty: other UEs compete for PRBs, adding
    queueing jitter to the victim's grants.  Rather than simulating
    thousands of full UEs, cross traffic occupies a random number of
    PRBs per TTI, shrinking what the scheduler can hand out — the same
    first-order effect at a fraction of the cost.
    """

    mean_load: float = 0.0          # fraction of PRBs consumed on average
    burstiness: float = 0.3         # relative spread of the load

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_load < 1.0:
            raise ValueError(f"mean_load out of [0, 1): {self.mean_load}")
        if self.burstiness < 0.0:
            raise ValueError(f"burstiness must be >= 0: {self.burstiness}")

    def occupied_prb(self, total_prb: int, rng: random.Random) -> int:
        """PRBs consumed by other users this TTI."""
        if self.mean_load <= 0.0:
            return 0
        load = rng.gauss(self.mean_load, self.mean_load * self.burstiness)
        load = min(0.95, max(0.0, load))
        return int(total_prb * load)
