"""Fault transforms: deterministic corruptions of the columnar DCI stream.

Each transform is a pure function ``(trace, rng, **params) -> Trace``
over the four parallel columns, registered under a stable name via
:func:`register_fault`.  The contract every transform upholds (and
:func:`apply_plan` re-checks after each step, because a violated
contract would silently corrupt every downstream consumer):

* output timestamps are non-decreasing and non-negative — faults may
  drop, duplicate, or perturb records, never reorder them;
* ``tbs_bytes`` stays non-negative — a corrupt decode yields a garbage
  *value*, never an impossible one;
* all four columns keep equal length and trace metadata is preserved;
* every random draw comes from the ``rng`` parameter (the SEED001 lint
  rule enforces this), so output is a pure function of
  ``(input, plan, seed)``.

The shipped faults model the capture pathologies of §VII and the
related sniffer literature: i.i.d. and bursty DCI loss, CRC-corrupt
decodes, mid-session C-RNTI reassignment, sniffer clock skew/jitter,
whole-cell outage windows, and duplicated decodes.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List

import numpy as np

from ..lte.identifiers import CRNTI_MAX, CRNTI_MIN
from ..sniffer.trace import Trace

FaultFn = Callable[..., Trace]

_REGISTRY: Dict[str, FaultFn] = {}


class FaultInvariantError(ValueError):
    """A transform broke the fault-layer contract (a bug, not bad data)."""


def register_fault(name: str) -> Callable[[FaultFn], FaultFn]:
    """Class a function as the implementation of fault ``name``."""
    def decorator(fn: FaultFn) -> FaultFn:
        if name in _REGISTRY:
            raise ValueError(f"duplicate fault name {name!r}")
        _REGISTRY[name] = fn
        return fn
    return decorator


def fault_names() -> List[str]:
    """Registered fault names, sorted."""
    return sorted(_REGISTRY)


def get_fault(name: str) -> FaultFn:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown fault {name!r}; known: "
                         f"{fault_names()}") from None


def fault_param_names(name: str) -> List[str]:
    """The keyword parameters fault ``name`` accepts."""
    signature = inspect.signature(get_fault(name))
    return [param.name for param in signature.parameters.values()
            if param.kind is inspect.Parameter.KEYWORD_ONLY]


def validate_spec(spec, position: int = 0) -> None:
    """Check one FaultSpec against the registry (name + param names)."""
    allowed = set(fault_param_names(spec.name))   # raises on unknown name
    unknown = sorted(set(spec.kwargs()) - allowed)
    if unknown:
        raise ValueError(
            f"fault #{position} ({spec.name!r}) has unknown params "
            f"{unknown}; accepted: {sorted(allowed)}")


# -- shared helpers ----------------------------------------------------------------


def _rebuild(trace: Trace, times: np.ndarray, rntis: np.ndarray,
             dirs: np.ndarray, tbs: np.ndarray) -> Trace:
    """A new trace over the given columns, metadata carried over."""
    return Trace.from_arrays(times, rntis, dirs, tbs, validate=False,
                             **trace.metadata())


def _kept(trace: Trace, keep: np.ndarray) -> Trace:
    """The subset of records selected by the boolean ``keep`` mask."""
    return _rebuild(trace, trace.times_s[keep], trace.rntis[keep],
                    trace.directions[keep], trace.tbs_bytes[keep])


def _check_rate(rate: float, name: str) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name}: rate must be in [0, 1]: {rate}")


def _check_positive(value: float, name: str, param: str) -> None:
    if value <= 0:
        raise ValueError(f"{name}: {param} must be positive: {value}")


# -- the shipped faults ------------------------------------------------------------


@register_fault("capture_loss")
def capture_loss(trace: Trace, rng: np.random.Generator, *,
                 rate: float) -> Trace:
    """Drop each record independently with probability ``rate``.

    Models the sniffer's steady-state blind-decode miss rate (antenna
    placement, SNR) — the i.i.d. component of capture loss.
    """
    _check_rate(rate, "capture_loss")
    if not len(trace):
        return trace
    return _kept(trace, rng.random(len(trace)) >= rate)


@register_fault("burst_loss")
def burst_loss(trace: Trace, rng: np.random.Generator, *,
               rate: float, burst_s: float = 0.5) -> Trace:
    """Drop records inside exponentially distributed outage bursts.

    A two-state (good/bad) channel: bursts last ``burst_s`` seconds on
    average and are spaced so the long-run fraction of time spent in a
    burst is ``rate`` — correlated loss, the pattern real sniffers show
    when they lose PDCCH lock for whole subframe runs.
    """
    _check_rate(rate, "burst_loss")
    _check_positive(burst_s, "burst_loss", "burst_s")
    n = len(trace)
    if n == 0 or rate == 0.0:
        return trace
    times = trace.times_s
    if rate == 1.0:
        return _kept(trace, np.zeros(n, dtype=bool))
    start, end = float(times[0]), float(times[-1])
    # Clamped to a finite horizon: below rate ~ 1e-12 the exact mean
    # gap overflows float64 in the cumsum below, and any gap measured
    # in tens of thousands of years already means "no burst in this
    # trace" for every representable capture.
    mean_gap = min(burst_s * (1.0 - rate) / rate, 1e12)
    starts_list: List[np.ndarray] = []
    ends_list: List[np.ndarray] = []
    cursor = start
    # Draw alternating (gap, burst) interval batches until the trace is
    # covered; the loop is deterministic because every draw comes from
    # ``rng`` in a fixed order.
    while cursor <= end:
        batch = max(8, int((end - cursor) / (mean_gap + burst_s)) + 8)
        gaps = rng.exponential(mean_gap, batch)
        bursts = rng.exponential(burst_s, batch)
        edges = cursor + np.cumsum(
            np.stack([gaps, bursts], axis=1).reshape(-1))
        starts_list.append(edges[0::2])
        ends_list.append(edges[1::2])
        cursor = float(edges[-1])
    burst_starts = np.concatenate(starts_list)
    burst_ends = np.concatenate(ends_list)
    slot = np.searchsorted(burst_starts, times, side="right") - 1
    in_burst = (slot >= 0) & (times < burst_ends[np.maximum(slot, 0)])
    return _kept(trace, ~in_burst)


@register_fault("corrupt_decode")
def corrupt_decode(trace: Trace, rng: np.random.Generator, *,
                   rate: float) -> Trace:
    """Replace a fraction of decodes with CRC-corrupt garbage.

    A failed CRC yields a uniformly random 16-bit "RNTI" and a
    nonsensical transport-block size — the noise OWL-style trackers
    must reject.  Corrupted TBS values are drawn from ``[0, max(tbs)]``
    so the stream stays physically plausible (never negative).
    """
    _check_rate(rate, "corrupt_decode")
    n = len(trace)
    if n == 0 or rate == 0.0:
        return trace
    corrupt = rng.random(n) < rate
    count = int(np.count_nonzero(corrupt))
    if count == 0:
        return trace
    rntis = trace.rntis.copy()
    tbs = trace.tbs_bytes.copy()
    rntis[corrupt] = rng.integers(CRNTI_MIN, CRNTI_MAX + 1, count)
    tbs[corrupt] = rng.integers(0, max(int(tbs.max()), 1) + 1, count)
    return _rebuild(trace, trace.times_s, rntis, trace.directions, tbs)


@register_fault("rnti_churn")
def rnti_churn(trace: Trace, rng: np.random.Generator, *,
               interval_s: float = 5.0) -> Trace:
    """Reassign every live RNTI at exponentially spaced churn events.

    Models mid-session RRC reconnects (idle transitions, eNB-initiated
    releases): from each event time on, every distinct RNTI still
    carrying traffic maps to a fresh C-RNTI.  Record count, timing and
    sizes are untouched — only the identity column churns, which is
    exactly the failure the identity mapper's re-binding path absorbs.
    """
    _check_positive(interval_s, "rnti_churn", "interval_s")
    n = len(trace)
    if n == 0:
        return trace
    times = trace.times_s
    start, end = float(times[0]), float(times[-1])
    event_times: List[float] = []
    cursor = start
    while True:
        cursor += float(rng.exponential(interval_s))
        if cursor >= end:
            break
        event_times.append(cursor)
    if not event_times:
        return trace
    rntis = trace.rntis.astype(np.int64)
    for event in event_times:
        lo = int(np.searchsorted(times, event, side="left"))
        tail = rntis[lo:]
        old_values = np.unique(tail)          # sorted → deterministic
        if not len(old_values):
            continue
        fresh = rng.integers(CRNTI_MIN, CRNTI_MAX + 1, len(old_values))
        rntis[lo:] = fresh[np.searchsorted(old_values, tail)]
    return _rebuild(trace, times, rntis.astype(trace.rntis.dtype),
                    trace.directions, trace.tbs_bytes)


@register_fault("clock_skew")
def clock_skew(trace: Trace, rng: np.random.Generator, *,
               skew: float = 0.0, jitter_s: float = 0.0) -> Trace:
    """Stretch the timeline by ``1 + skew`` and add bounded jitter.

    Models an unsynchronised sniffer clock: a constant rate error plus
    per-record measurement noise.  Monotonicity is restored with a
    running maximum (a sniffer's log is append-only, so observed
    timestamps can never run backwards) and the origin is clamped at
    zero.
    """
    if skew <= -1.0:
        raise ValueError(f"clock_skew: skew must be > -1: {skew}")
    if jitter_s < 0:
        raise ValueError(f"clock_skew: jitter_s must be >= 0: {jitter_s}")
    n = len(trace)
    if n == 0 or (skew == 0.0 and jitter_s == 0.0):
        return trace
    times = trace.times_s
    origin = float(times[0])
    warped = origin + (times - origin) * (1.0 + skew)
    if jitter_s > 0.0:
        warped = warped + rng.normal(0.0, jitter_s, n)
    warped = np.maximum.accumulate(np.maximum(warped, 0.0))
    return _rebuild(trace, warped, trace.rntis, trace.directions,
                    trace.tbs_bytes)


@register_fault("cell_outage")
def cell_outage(trace: Trace, rng: np.random.Generator, *,  # repro: noqa[SEED002] — deterministic transform; rng kept for signature uniformity
                start_s: float, duration_s: float) -> Trace:
    """Drop every record in the window ``[start_s, start_s + duration_s)``.

    A deterministic whole-cell blackout (sniffer restart, retune,
    handover away and back) — no randomness involved, but the ``rng``
    parameter keeps the transform signature uniform.
    """
    _check_positive(duration_s, "cell_outage", "duration_s")
    if start_s < 0:
        raise ValueError(f"cell_outage: start_s must be >= 0: {start_s}")
    if not len(trace):
        return trace
    times = trace.times_s
    keep = (times < start_s) | (times >= start_s + duration_s)
    return _kept(trace, keep)


@register_fault("duplicate_decode")
def duplicate_decode(trace: Trace, rng: np.random.Generator, *,
                     rate: float) -> Trace:
    """Emit a fraction of records twice, in place.

    Blind decoders fed overlapping search spaces double-report some
    DCIs; duplicates appear immediately after their original, so the
    stream stays time-ordered.
    """
    _check_rate(rate, "duplicate_decode")
    n = len(trace)
    if n == 0 or rate == 0.0:
        return trace
    repeats = np.where(rng.random(n) < rate, 2, 1)
    return _rebuild(trace,
                    np.repeat(trace.times_s, repeats),
                    np.repeat(trace.rntis, repeats),
                    np.repeat(trace.directions, repeats),
                    np.repeat(trace.tbs_bytes, repeats))


# -- application -------------------------------------------------------------------


def _check_invariants(trace: Trace, fault_name: str) -> None:
    """Re-assert the fault-layer contract after one transform."""
    times = trace.times_s
    if not (len(times) == len(trace.rntis) == len(trace.directions)
            == len(trace.tbs_bytes)):
        raise FaultInvariantError(
            f"fault {fault_name!r} produced unequal column lengths")
    if len(times) == 0:
        return
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise FaultInvariantError(
            f"fault {fault_name!r} reordered or negated timestamps")
    if np.any(trace.tbs_bytes < 0):
        raise FaultInvariantError(
            f"fault {fault_name!r} emitted a negative TBS")


def apply_plan(trace: Trace, plan, item_seed: int = 0) -> Trace:
    """Apply every fault of ``plan`` to one trace, in order.

    ``item_seed`` individualises the random stream per trace (callers
    pass the trace's own simulation seed), so a campaign of traces does
    not share one loss pattern while remaining bit-reproducible.  A
    ``None`` or no-op plan returns the input unchanged — the identity
    the differential test suite pins.
    """
    if plan is None or plan.is_noop:
        return trace
    plan.validate()
    out = trace
    for index, spec in enumerate(plan.faults):
        fn = get_fault(spec.name)
        out = fn(out, plan.rng_for(index, item_seed), **spec.kwargs())
        _check_invariants(out, spec.name)
    return out
