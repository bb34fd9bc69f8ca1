"""Detector registry and shared scan state.

Modelled on trueseeing's ``Detector``/``Issue`` architecture, like the
:mod:`repro.analysis` rule registry: each attack is a
:class:`Detector` subclass registered under a stable id, a scan
resolves a selection (plus declared dependencies) into the fixed
composition order, and every detector runs over one shared
:class:`ScanContext` — the "shared intermediate state" that lets the
composed ``victim-profile`` scan chain fingerprint → history →
correlation without re-simulating campaigns, and lets
``tmsi-exposure`` / ``paging-linkability`` read the identity mappers
the history campaign already populated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..experiments.common import Scale, get_scale
from ..operators.profiles import OperatorProfile
from .findings import Finding

#: The fixed composition order — reports and dependency resolution both
#: follow it, so a scan's output never depends on selection order.
DETECTOR_ORDER: Tuple[str, ...] = (
    "app-fingerprint",
    "app-history",
    "identity-correlation",
    "tmsi-exposure",
    "paging-linkability",
    "victim-profile",
)


@dataclass(frozen=True)
class ScanConfig:
    """Knobs shared by every detector in one scan run.

    ``scale`` sizes every campaign.  ``seed=None`` keeps each table
    driver's default seed (table III: 11, table V: 31, table VII: 53);
    an integer replaces all three.  ``environments`` restricts the
    table VII correlation sweep (None = the paper's full set).
    """

    scale: object = "fast"                      # Scale or preset name
    seed: Optional[int] = None
    environments: Optional[Tuple[OperatorProfile, ...]] = None


class ScanContext:
    """Mutable state threaded through one scan run.

    ``artifact(name, build)`` memoises expensive intermediates (trained
    models, capture campaigns) so detectors share them instead of
    re-running simulations; ``findings`` accumulates every detector's
    output in composition order so later detectors (victim-profile) can
    compose over earlier ones.
    """

    def __init__(self, config: Optional[ScanConfig] = None) -> None:
        self.config = config or ScanConfig()
        self.scale: Scale = get_scale(self.config.scale)
        self.findings: List[Finding] = []
        self._artifacts: Dict[str, object] = {}

    def seed(self, default: int) -> int:
        """The configured seed, or the table driver's default."""
        if self.config.seed is None:
            return default
        return int(self.config.seed)

    def artifact(self, name: str, build: Callable[[], object]) -> object:
        """Build-once shared intermediate state, keyed by name."""
        if name not in self._artifacts:
            self._artifacts[name] = build()
        return self._artifacts[name]

    def has_artifact(self, name: str) -> bool:
        return name in self._artifacts


class Detector:
    """Base class: one attack wrapped as a scanner stage."""

    #: Stable registry id (appears in findings and reports).
    detector_id: ClassVar[str] = ""
    #: One-line description for ``scan --list-detectors``.
    title: ClassVar[str] = ""
    #: Detector ids that must run (earlier) in the same scan.
    requires: ClassVar[Tuple[str, ...]] = ()

    def run(self, ctx: ScanContext) -> List[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator: add a Detector to the scanner registry."""
    if not issubclass(cls, Detector) or not cls.detector_id:
        raise TypeError(f"not a registrable detector: {cls!r}")
    if cls.detector_id not in DETECTOR_ORDER:
        raise ValueError(f"detector {cls.detector_id!r} missing from "
                         "DETECTOR_ORDER")
    if cls.detector_id in _REGISTRY:
        raise ValueError(f"duplicate detector id {cls.detector_id!r}")
    _REGISTRY[cls.detector_id] = cls
    return cls


def all_detectors() -> Dict[str, type]:
    """The registered detectors (imports the built-in modules once)."""
    from . import correlation, fingerprint, history  # noqa: F401
    from . import identity, profile                  # noqa: F401

    return dict(_REGISTRY)


def resolve_selection(selected: Optional[Sequence[str]] = None
                      ) -> Tuple[str, ...]:
    """Expand a detector selection into composition order.

    Unknown ids raise ValueError; declared ``requires`` dependencies
    are pulled in transitively, then everything is ordered by
    :data:`DETECTOR_ORDER` so the same selection always yields the same
    scan, whatever order the user typed it in.
    """
    registry = all_detectors()
    if selected is None:
        wanted = set(registry)
    else:
        wanted = set()
        for detector_id in selected:
            if detector_id not in registry:
                raise ValueError(
                    f"unknown detector {detector_id!r}; known: "
                    f"{sorted(registry)}")
            wanted.add(detector_id)
        frontier = list(wanted)
        while frontier:
            current = frontier.pop()
            for dependency in registry[current].requires:
                if dependency not in wanted:
                    wanted.add(dependency)
                    frontier.append(dependency)
    return tuple(detector_id for detector_id in DETECTOR_ORDER
                 if detector_id in wanted)
