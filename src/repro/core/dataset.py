"""Dataset construction: run apps on the simulated network, sniff, label.

Reproduces the paper's training-set methodology (§V "Building the
training dataset"): drive a known app on our own UE, capture the cell's
PDCCH with a passive sniffer, group the decoded DCIs into the UE's
trace via RNTI/TMSI identity mapping, and attach the app label.  The
same machinery with ``background_count > 0`` reproduces the §VIII-A
noise-traffic datasets, and ``day`` shifts the app models through their
parameter drift for the Fig. 8 time-effect study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs, runtime
from ..apps import BackgroundMix, category_of, make_app
from ..apps.paired import make_chat_pair
from ..apps.voip import make_call_pair
from ..faults import FaultPlan, apply_plan
from ..lte.network import LTENetwork
from ..ml.base import LabelEncoder
from ..operators.profiles import LAB, OperatorProfile
from ..sniffer.capture import CellSniffer
from ..sniffer.trace import Trace, TraceSet
from .features import WindowConfig, extract_features

#: The user name of every capture's victim UE.
VICTIM_USER = "victim"


def _scaled_day(day: int, operator: OperatorProfile) -> int:
    """Apply the operator's drift multiplier to the nominal day."""
    return int(round(day * operator.drift_multiplier))


@dataclass(frozen=True)
class _TraceSpec:
    """One single-UE capture campaign (a :func:`collect_traces` item)."""

    app_name: str
    operator: OperatorProfile
    duration_s: float
    seed: int
    day: int
    background_count: int
    settle_s: float


@dataclass(frozen=True)
class PairSpec:
    """One conversation campaign in a :func:`collect_pairs` fan-out."""

    app_name: str
    kind: str                       # "chat" or "call"
    operator: OperatorProfile = LAB
    duration_s: float = 60.0
    seed: int = 0
    day: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("chat", "call"):
            raise ValueError(
                f"kind must be 'chat' or 'call': {self.kind!r}")


def _simulate_trace(spec: _TraceSpec) -> TraceSet:
    """Run one capture campaign for real (no cache, no faults).

    Pure function of its spec — this is what ParallelMap workers
    execute, and what makes the cache sound.  Returns the victim's
    trace as a one-member set, the cache's entry format.
    """
    operator, seed, duration_s = spec.operator, spec.seed, spec.duration_s
    network = LTENetwork(seed=seed, **operator.network_kwargs())
    network.add_cell("cell-0", **operator.cell_kwargs())
    victim = network.add_ue(name=VICTIM_USER)
    sniffer = CellSniffer("cell-0", capture_profile=operator.capture_channel,
                          seed=seed + 1).attach(network)
    model = make_app(spec.app_name, day=_scaled_day(spec.day, operator))
    network.start_app_session(victim, model, start_s=0.2,
                              duration_s=duration_s, session_seed=seed + 2)
    if spec.background_count > 0:
        noise = BackgroundMix(count=spec.background_count, day=spec.day,
                              seed=seed + 3)
        network.start_app_session(victim, noise, start_s=0.2,
                                  duration_s=duration_s,
                                  session_seed=seed + 4)
    network.run_for(duration_s + spec.settle_s)
    network.close()
    trace = sniffer.trace_for_tmsi(victim.tmsi).rebased()
    trace.label = spec.app_name
    trace.category = category_of(spec.app_name).value
    trace.operator = operator.name
    trace.cell = "cell-0"
    trace.day = spec.day
    trace.user = victim.name
    return TraceSet([trace])


def _simulate_pair(spec: PairSpec) -> TraceSet:
    """Run one two-UE conversation campaign for real (no cache, no faults).

    Returns the two legs as a two-member set, the cache's entry format.
    """
    from ..apps.catalog import APP_REGISTRY

    operator, seed = spec.operator, spec.seed
    app_cls = APP_REGISTRY[spec.app_name]
    scaled = _scaled_day(spec.day, operator)
    if spec.kind == "chat":
        leg_a, leg_b = make_chat_pair(app_cls, seed=seed, day=scaled,
                                      relay_jitter_s=operator.pair_jitter_s)
    else:
        leg_a, leg_b = make_call_pair(app_cls, seed=seed, day=scaled,
                                      far_jitter_s=operator.pair_jitter_s)
    network = LTENetwork(seed=seed, **operator.network_kwargs())
    network.add_cell("cell-0", **operator.cell_kwargs())
    user_a = network.add_ue(name="user-a")
    user_b = network.add_ue(name="user-b")
    sniffer = CellSniffer("cell-0", capture_profile=operator.capture_channel,
                          seed=seed + 1).attach(network)
    network.start_app_session(user_a, leg_a, start_s=0.2,
                              duration_s=spec.duration_s,
                              session_seed=seed + 2)
    network.start_app_session(user_b, leg_b, start_s=0.2,
                              duration_s=spec.duration_s,
                              session_seed=seed + 3)
    network.run_for(spec.duration_s + 2.0)
    network.close()
    legs = TraceSet()
    for user in (user_a, user_b):
        trace = sniffer.trace_for_tmsi(user.tmsi).rebased()
        trace.label = spec.app_name
        trace.category = category_of(spec.app_name).value
        trace.operator = operator.name
        trace.user = user.name
        trace.day = spec.day
        legs.add(trace)
    return legs


def _collect(specs: Sequence, simulate: Callable[..., TraceSet],
             workers: Optional[int],
             fault_plan: Optional[FaultPlan]) -> List[List[Trace]]:
    """The captures of ``specs`` in spec order, each a list of traces.

    Looks every spec's clean capture up in the runtime trace cache,
    simulates the misses through the runtime's ParallelMap, counts and
    stores them, then applies the fault plan (the explicit argument,
    else the runtime's) to each trace.  A spec's dataclass repr names
    its type and every field, so the cache key covers all of them.
    Trace ``leg`` of an n-trace capture gets item seed
    ``n * spec.seed + leg`` — a capture its own seed, a conversation's
    legs ``2 * seed`` and ``2 * seed + 1`` — so faulted bytes do not
    depend on the cache state or the backend.
    """
    plan = fault_plan if fault_plan is not None else runtime.fault_plan()
    cache = runtime.trace_cache()
    keys = ([cache.key(capture=repr(spec)) for spec in specs]
            if cache is not None else [])
    clean = ([cache.get(k) for k in keys] if cache is not None
             else [None] * len(specs))
    pending = [index for index, hit in enumerate(clean) if hit is None]
    if pending:
        simulated = runtime.mapper(workers).map(
            simulate, [specs[index] for index in pending])
        runtime.record_simulations(len(pending))
        for index, traces in zip(pending, simulated):
            clean[index] = traces
            if cache is not None:
                cache.put(keys[index], traces)
    return [[apply_plan(trace, plan, item_seed=len(traces) * spec.seed + leg)
             for leg, trace in enumerate(traces)]
            for spec, traces in zip(specs, clean)]


def collect_trace(app_name: str, operator: OperatorProfile = LAB,
                  duration_s: float = 60.0, seed: int = 0, day: int = 0,
                  background_count: int = 0, settle_s: float = 2.0,
                  fault_plan: Optional[FaultPlan] = None) -> Trace:
    """Capture one labelled trace of one app in one environment.

    Builds a fresh single-cell network under the operator profile, runs
    the app on a victim UE for ``duration_s`` (plus ``settle_s`` of
    post-session drain time), sniffs the PDCCH, and returns the victim's
    merged per-user trace, rebased to t = 0 and labelled.

    When the runtime trace cache is enabled, a previously simulated
    identical campaign is read from disk instead of re-simulated.  The
    cache holds the clean capture; a fault plan in force (``fault_plan=``
    or the runtime's process-wide plan) corrupts it deterministically
    afterwards, so faulted and clean runs share one entry.
    """
    spec = _TraceSpec(app_name, operator, duration_s, seed, day,
                      background_count, settle_s)
    return _collect([spec], _simulate_trace, 1, fault_plan)[0][0]


def collect_traces(app_names: Sequence[str],
                   operator: OperatorProfile = LAB,
                   traces_per_app: int = 4, duration_s: float = 60.0,
                   seed: int = 0, day: int = 0,
                   background_count: int = 0,
                   workers: Optional[int] = None,
                   fault_plan: Optional[FaultPlan] = None) -> TraceSet:
    """Capture a labelled TraceSet across apps (one campaign).

    The campaign fans out over the runtime's ParallelMap: per-trace
    seeds are pre-derived from the position in the campaign (never from
    execution order) and results are reassembled by index, so any
    ``workers`` count yields a bit-identical TraceSet — including the
    fault plan, applied to each trace keyed on its item seed.  Cache
    hits are resolved up front and only the misses are simulated.
    """
    specs: List[_TraceSpec] = []
    counter = 0
    for app_name in app_names:
        for repeat in range(traces_per_app):
            specs.append(_TraceSpec(
                app_name, operator, duration_s,
                seed * 104_729 + counter * 7919 + repeat, day,
                background_count, 2.0))
            counter += 1
    with obs.span("dataset.collect_traces"):
        captures = _collect(specs, _simulate_trace, workers, fault_plan)
        return TraceSet([traces[0] for traces in captures])


def collect_pair(app_name: str, kind: str,
                 operator: OperatorProfile = LAB,
                 duration_s: float = 60.0, seed: int = 0, day: int = 0,
                 fault_plan: Optional[FaultPlan] = None
                 ) -> Tuple[Trace, Trace]:
    """Capture the two legs of one conversation (correlation attack).

    ``kind`` is ``"chat"`` (messaging apps) or ``"call"`` (VoIP apps).
    Both UEs live in the same cell; one sniffer separates them by
    identity mapping, exactly as the attack would.  Cached like
    :func:`collect_trace` (both legs stored as one entry); fault plans
    corrupt the two legs with distinct per-leg seeds.
    """
    spec = PairSpec(app_name, kind, operator, duration_s, seed, day)
    legs = _collect([spec], _simulate_pair, 1, fault_plan)[0]
    return legs[0], legs[1]


def collect_pairs(specs: Sequence[PairSpec],
                  workers: Optional[int] = None,
                  fault_plan: Optional[FaultPlan] = None
                  ) -> List[Tuple[Trace, Trace]]:
    """Capture many conversation pairs with caching + fan-out.

    The experiments' Table VI/VII loops are fan-outs of independent,
    fully seeded campaigns; like :func:`collect_traces`, results come
    back in spec order bit-identical to a serial run.
    """
    with obs.span("dataset.collect_pairs"):
        return [(legs[0], legs[1]) for legs in
                _collect(specs, _simulate_pair, workers, fault_plan)]


@dataclass
class LabeledWindows:
    """A windowed, labelled dataset ready for the classifiers."""

    X: np.ndarray                  # (n_windows, n_features)
    app_labels: np.ndarray         # (n_windows,) int app ids
    category_labels: np.ndarray    # (n_windows,) int category ids
    trace_ids: np.ndarray          # (n_windows,) source-trace index
    app_encoder: LabelEncoder
    category_encoder: LabelEncoder

    def __len__(self) -> int:
        return len(self.X)

    @property
    def app_of_category(self) -> np.ndarray:
        """Map app id -> category id (for hierarchical classification)."""
        out = np.zeros(self.app_encoder.n_classes, dtype=np.int64)
        for index, app in enumerate(self.app_encoder.classes_):
            out[index] = self.category_encoder.transform(
                [category_of(app).value])[0]
        return out

    def subset(self, mask: np.ndarray) -> "LabeledWindows":
        """A filtered view sharing the encoders."""
        return LabeledWindows(X=self.X[mask],
                              app_labels=self.app_labels[mask],
                              category_labels=self.category_labels[mask],
                              trace_ids=self.trace_ids[mask],
                              app_encoder=self.app_encoder,
                              category_encoder=self.category_encoder)


def windows_from_traces(traces: TraceSet,
                        config: Optional[WindowConfig] = None,
                        app_encoder: Optional[LabelEncoder] = None,
                        category_encoder: Optional[LabelEncoder] = None,
                        ) -> LabeledWindows:
    """Window every trace and assemble the labelled matrix.

    Encoders may be passed in so train and test sets share label ids
    (mandatory when evaluating a trained model on a later capture).
    """
    with obs.span("dataset.windows"):
        return _windows_from_traces(traces, config, app_encoder,
                                    category_encoder)


def _windows_from_traces(traces: TraceSet,
                         config: Optional[WindowConfig] = None,
                         app_encoder: Optional[LabelEncoder] = None,
                         category_encoder: Optional[LabelEncoder] = None,
                         ) -> LabeledWindows:
    X_parts: List[np.ndarray] = []
    app_names: List[str] = []
    category_names: List[str] = []
    trace_ids: List[int] = []
    for index, trace in enumerate(traces):
        if trace.label is None or trace.category is None:
            raise ValueError(f"trace {index} is unlabelled")
        features = extract_features(trace, config)
        if len(features) == 0:
            continue
        X_parts.append(features)
        app_names.extend([trace.label] * len(features))
        category_names.extend([trace.category] * len(features))
        trace_ids.extend([index] * len(features))
    if not X_parts:
        raise ValueError("no non-empty traces to window")
    if app_encoder is None:
        app_encoder = LabelEncoder().fit(app_names)
    if category_encoder is None:
        category_encoder = LabelEncoder().fit(category_names)
    return LabeledWindows(
        X=np.vstack(X_parts),
        app_labels=app_encoder.transform(app_names),
        category_labels=category_encoder.transform(category_names),
        trace_ids=np.array(trace_ids, dtype=np.int64),
        app_encoder=app_encoder,
        category_encoder=category_encoder,
    )
