"""Seeded synthetic-trace generators for the property/differential suite.

The fault layer's invariants are quantified over *arbitrary* traces,
not just simulator output, so the property harness needs cheap random
trace generators whose every draw is a pure function of an explicit
``seed`` parameter (the SEED001 lint rule holds this module to that).
Three shapes cover the structures the faults interact with:

* :func:`synthetic_trace` — uniform arrival times, several RNTIs, both
  directions: the generic case;
* :func:`bursty_trace` — app-like on/off bursts separated by silences
  longer than the burst-detection threshold, which exercises the
  capture-gap invalidation path;
* :func:`synthetic_trace_set` — a small labelled TraceSet for
  dataset-level checks.
"""

from __future__ import annotations

import numpy as np

from ..lte.identifiers import CRNTI_MIN
from ..sniffer.trace import Trace, TraceSet


def synthetic_trace(seed: int, n_records: int = 200,
                    duration_s: float = 20.0, n_rntis: int = 3,
                    tbs_max: int = 5000, label: str = "app",
                    category: str = "cat") -> Trace:
    """A random but fully seed-determined trace."""
    rng = np.random.default_rng(seed)
    n = max(0, int(n_records))
    times = np.sort(rng.uniform(0.0, duration_s, n))
    palette = CRNTI_MIN + rng.integers(0, 40_000, max(1, n_rntis))
    rntis = palette[rng.integers(0, len(palette), n)]
    directions = rng.integers(0, 2, n)
    tbs = rng.integers(0, tbs_max + 1, n)
    return Trace.from_arrays(times, rntis, directions, tbs, validate=False,
                             label=label, category=category, operator="Lab",
                             cell="cell-0")


def bursty_trace(seed: int, n_bursts: int = 6, burst_records: int = 40,
                 burst_s: float = 0.8, silence_s: float = 3.0,
                 tbs_max: int = 5000, label: str = "app",
                 category: str = "cat") -> Trace:
    """On/off traffic: dense bursts separated by long silences."""
    rng = np.random.default_rng(seed)
    parts = []
    start = 0.0
    for _ in range(max(1, n_bursts)):
        parts.append(np.sort(rng.uniform(start, start + burst_s,
                                         max(1, burst_records))))
        start += burst_s + silence_s
    times = np.concatenate(parts)
    n = len(times)
    rntis = np.full(n, CRNTI_MIN + int(rng.integers(0, 40_000)))
    directions = rng.integers(0, 2, n)
    tbs = rng.integers(0, tbs_max + 1, n)
    return Trace.from_arrays(times, rntis, directions, tbs, validate=False,
                             label=label, category=category, operator="Lab",
                             cell="cell-0")


def synthetic_trace_set(seed: int, n_traces: int = 4,
                        **kwargs) -> TraceSet:
    """A labelled TraceSet of :func:`synthetic_trace` outputs."""
    traces = TraceSet()
    for index in range(max(1, n_traces)):
        traces.add(synthetic_trace(seed + 7919 * index,
                                   label=f"app-{index % 3}", **kwargs))
    return traces
