"""Radio channel model: link adaptation and sniffer capture impairments.

Two distinct channels matter to the reproduction:

* the **serving link** between UE and eNB, whose quality (CQI) drives
  the MCS the scheduler picks and therefore the TBS sizes the sniffer
  observes — one of the operator-to-operator differences the paper
  blames for the lab → real-world accuracy drop; and
* the **sniffer's capture channel**, which in the real world loses and
  corrupts a fraction of PDCCH decodes (the sniffer is not power-
  controlled by the eNB the way a UE is).

CQI evolves as a bounded random walk per UE — a standard stand-in for
slow fading — so consecutive grants to the same UE are correlated, just
as they are on a real link.  The eNB advances the walk each TTI on its
CQI column (:meth:`repro.lte.engine.TTILoop._walk_cqi`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class ChannelProfile:
    """Static description of link + capture quality for an environment.

    Attributes:
        mean_cqi: centre of the CQI random walk (1-15).
        cqi_span: maximum deviation from ``mean_cqi``.
        cqi_step_prob: per-update probability that CQI moves one step.
        capture_loss: probability the sniffer misses a PDCCH decode.
        corruption_prob: probability a captured DCI payload is corrupted
            (yielding a garbage blind-decoded RNTI).
        harq_bler: block error rate on the serving link — each failed
            transport block triggers a HARQ retransmission, i.e. an
            *extra grant of the same size* a few TTIs later, which is a
            real artefact PDCCH sniffers observe on live networks.
    """

    mean_cqi: int = 12
    cqi_span: int = 2
    cqi_step_prob: float = 0.2
    capture_loss: float = 0.0
    corruption_prob: float = 0.0
    harq_bler: float = 0.0

    def __post_init__(self) -> None:
        if not 1 <= self.mean_cqi <= 15:
            raise ValueError(f"mean_cqi out of range [1, 15]: {self.mean_cqi}")
        if self.cqi_span < 0:
            raise ValueError(f"cqi_span must be >= 0: {self.cqi_span}")
        if not 0.0 <= self.capture_loss < 1.0:
            raise ValueError(f"capture_loss out of [0, 1): {self.capture_loss}")
        if not 0.0 <= self.corruption_prob < 1.0:
            raise ValueError(
                f"corruption_prob out of [0, 1): {self.corruption_prob}")
        if not 0.0 <= self.harq_bler < 1.0:
            raise ValueError(
                f"harq_bler out of [0, 1): {self.harq_bler}")

    @property
    def cqi_floor(self) -> int:
        return max(1, self.mean_cqi - self.cqi_span)

    @property
    def cqi_ceiling(self) -> int:
        return min(15, self.mean_cqi + self.cqi_span)


class CaptureChannel:
    """The sniffer's lossy view of the PDCCH."""

    def __init__(self, profile: ChannelProfile, rng: random.Random) -> None:
        self._profile = profile
        self._rng = rng
        self.captured = 0
        self.lost = 0
        self.corrupted = 0

    def deliver(self) -> bool:
        """Decide whether one PDCCH transmission reaches the sniffer."""
        if self._rng.random() < self._profile.capture_loss:
            self.lost += 1
            return False
        self.captured += 1
        return True

    def draw_flip(self, payload_len: int) -> Optional[Tuple[int, int]]:
        """Decide whether a captured payload is corrupted, and where.

        Returns ``(byte index, bit mask)`` of the flipped bit, or ``None``
        for an intact payload.  Makes exactly the draws of :meth:`corrupt`.
        """
        if self._profile.corruption_prob <= 0.0:
            return None
        if self._rng.random() >= self._profile.corruption_prob:
            return None
        self.corrupted += 1
        index = self._rng.randrange(payload_len)
        return index, 1 << self._rng.randrange(8)

    def corrupt(self, payload: bytes) -> bytes:
        """Possibly flip a bit in a captured payload (returns new bytes)."""
        flip = self.draw_flip(len(payload))
        if flip is None:
            return payload
        index, bit = flip
        mutated = bytearray(payload)
        mutated[index] ^= bit
        return bytes(mutated)

    @property
    def loss_rate(self) -> float:
        total = self.captured + self.lost
        return self.lost / total if total else 0.0
