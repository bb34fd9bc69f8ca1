"""Base machinery for application traffic models.

Each of the paper's nine apps is modelled as a stochastic generator of
application-layer arrivals (:class:`repro.lte.TrafficEvent`), whose
statistical signature — burst sizes, inter-burst gaps, direction mix —
encodes the per-category and per-app behaviour the paper observes in
its pilot study (§IV-B).  The radio-layer fingerprint the classifier
sees *emerges* from pushing these arrivals through the simulated eNB
scheduler, exactly as the real fingerprint emerges from real traffic
hitting a real scheduler.

Two cross-cutting concerns live here:

* **Parameter drift** (§VIII-A "time effect"): every float parameter of
  a model can drift multiplicatively day by day via a seeded random
  walk, reproducing the F-score decay of Fig. 8 and the retraining
  economics of §VII-D.
* **Session duration**: generators are infinite; the caller bounds them
  (``LTENetwork.start_app_session(duration_s=...)``), matching how the
  paper captures fixed 10-minute traces.
"""

from __future__ import annotations

import abc
import dataclasses
import enum
import hashlib
import random
from dataclasses import dataclass
from typing import Iterator

from ..lte.network import TrafficEvent


class AppCategory(enum.Enum):
    """The paper's three app classes (Table I: "3 Classes")."""

    STREAMING = "streaming"
    MESSAGING = "messaging"
    VOIP = "voip"


@dataclass(frozen=True)
class AppSpec:
    """Identity of a modelled app."""

    name: str
    category: AppCategory

    def __str__(self) -> str:
        return f"{self.name} ({self.category.value})"


def _stable_seed(*parts: object) -> int:
    """Deterministic 64-bit seed from arbitrary parts (name, day, ...)."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def drift_params(params, day: int, rate: float, salt: str = ""):
    """Return a copy of a params dataclass with drifted float fields.

    Each float field drifts multiplicatively with a per-field *direction*
    (app updates push a parameter consistently one way — codecs get a
    new bitrate, segment sizes grow) plus a small daily wiggle:

        field(day) = field(0) · exp(direction · rate · day + wiggle(day))

    The direction and wiggle are seeded by (app, params type, field), so
    drift is deterministic per app and the divergence from day 0 grows
    with ``day`` — day 7's traffic is farther from day 1's than day 2's
    is, which is what makes a day-1 classifier decay (Fig. 8).
    """
    if day < 0:
        raise ValueError(f"day must be >= 0: {day}")
    if rate < 0:
        raise ValueError(f"rate must be >= 0: {rate}")
    if day == 0 or rate == 0.0:
        return dataclasses.replace(params)
    updates = {}
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if not isinstance(value, float):
            continue
        walk = random.Random(_stable_seed(salt, type(params).__name__,
                                          field.name))
        direction = walk.choice((-1.0, 1.0))
        wiggle = sum(walk.gauss(0.0, rate * 0.25) for _ in range(day))
        log_factor = direction * rate * day + wiggle
        updates[field.name] = value * pow(2.718281828459045, log_factor)
    return dataclasses.replace(params, **updates)


class AppTrafficModel(abc.ABC):
    """A stochastic application traffic source.

    Subclasses define a params dataclass and implement
    :meth:`_generate`; the base class provides drift and the public
    :meth:`session` API consumed by :class:`repro.lte.LTENetwork`.
    """

    #: Per-day multiplicative drift volatility; overridable per app.
    #: ~3.5 %/day compounds to the paper's below-threshold performance
    #: (< 0.7) about a week out (Fig. 8).
    drift_rate: float = 0.035

    def __init__(self, spec: AppSpec, params, day: int = 0) -> None:
        self.spec = spec
        self.day = day
        self.params = (drift_params(params, day, self.drift_rate, spec.name)
                       if day else params)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def category(self) -> AppCategory:
        return self.spec.category

    def session(self, rng: random.Random) -> Iterator[TrafficEvent]:
        """Yield an unbounded stream of traffic events for one session."""
        return self._generate(rng)

    @abc.abstractmethod
    def _generate(self, rng: random.Random) -> Iterator[TrafficEvent]:
        """Produce the app's arrival process (infinite generator)."""

    def on_day(self, day: int) -> "AppTrafficModel":
        """A copy of this model as its traffic looks on simulated ``day``."""
        return type(self)(day=day)  # type: ignore[call-arg]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(day={self.day})"


# -- small helpers shared by the concrete models -----------------------------

def positive_gauss(rng: random.Random, mean: float, std: float,
                   floor: float = 1.0) -> float:
    """Gaussian sample clamped below at ``floor`` (sizes, gaps)."""
    return max(floor, rng.gauss(mean, std))
