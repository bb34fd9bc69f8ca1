#!/usr/bin/env python
"""Benchmark guard: streaming data-plane ingest and window-close latency.

Measures the two service-level numbers the streaming attack plane is
accountable for (ROADMAP: "a measured claim, not a slogan"):

* **windowizer ingest** — sustained records/s draining a large synthetic
  DCI stream through ``StreamingWindowizer`` in fixed-size chunks, with
  the output asserted ``np.array_equal`` to one-shot
  ``extract_features`` and the ring's high-water mark asserted bounded
  (a small fraction of the stream: the windowizer must not buffer the
  trace);
* **service close latency** — end-to-end records/s through
  ``StreamService`` (windowize + forest descent + fusion) over
  simulator-collected traces, plus the p99 wall-clock latency of the
  ingest calls that close windows (the per-verdict service latency an
  online attacker experiences).

Results land in ``BENCH_stream.json`` at the repo root, then guards run:

* both throughputs must clear conservative absolute floors (far below
  the measured values, so only a real regression trips them on slow
  shared runners);
* neither throughput may regress by more than 2x against the committed
  ``BENCH_stream.json``;
* p99 close latency must stay under a generous absolute ceiling, and
  the ring's high-water mark under ``MAX_RING_FRACTION`` of the stream.

Run via ``make bench-stream`` or
``PYTHONPATH=src python benchmarks/bench_stream.py``.
"""

import contextlib
import time

import harness

OUT = harness.REPO_ROOT / "BENCH_stream.json"

ROUNDS = 3

# Windowizer workload: a dense synthetic stream, chunked as `serve` does.
N_RECORDS = 200_000
SPAN_S = 400.0
CHUNK_RECORDS = 256
MIN_INGEST_RECORDS_PER_S = 150_000.0
MAX_RING_FRACTION = 0.05   # high-water mark vs total records

# Service workload: simulator traces through the full online pipeline.
SERVE_APPS = ("YouTube", "WhatsApp", "Skype")
SERVE_TRACES_PER_APP = 2
SERVE_DURATION_S = 30.0
MIN_SERVICE_RECORDS_PER_S = 30_000.0
MAX_CLOSE_P99_S = 0.100

GUARDS = (
    harness.floor("windowizer_ingest.records_per_s",
                  MIN_INGEST_RECORDS_PER_S),
    harness.regression("windowizer_ingest.records_per_s"),
    harness.ceiling("windowizer_ingest.ring_high_water_records",
                    MAX_RING_FRACTION * N_RECORDS),
    harness.floor("service.records_per_s", MIN_SERVICE_RECORDS_PER_S),
    harness.regression("service.records_per_s"),
    harness.ceiling("service.close_p99_s", MAX_CLOSE_P99_S),
)


def _synthetic_columns():
    import numpy as np

    rng = np.random.default_rng(7)
    times = np.sort(rng.uniform(0.0, SPAN_S, size=N_RECORDS))
    rntis = rng.integers(0x100, 0x140, size=N_RECORDS).astype(np.int64)
    directions = rng.integers(0, 2, size=N_RECORDS).astype(np.int64)
    tbs = rng.integers(100, 8000, size=N_RECORDS).astype(np.int64)
    return times, rntis, directions, tbs


def _bench_windowizer():
    import numpy as np

    from repro.core.features import WindowConfig, extract_features
    from repro.sniffer.trace import Trace
    from repro.stream import StreamingWindowizer

    trace = Trace.from_arrays(*_synthetic_columns())
    config = WindowConfig()
    expected = extract_features(trace, config)

    def drain():
        windowizer = StreamingWindowizer(config)
        rows = []
        for chunk in trace.iter_chunks(CHUNK_RECORDS):
            closed = windowizer.ingest(*chunk)
            if len(closed):
                rows.append(closed.rows)
        final = windowizer.finish()
        if len(final):
            rows.append(final.rows)
        return np.concatenate(rows, axis=0), windowizer

    streamed, windowizer = drain()
    if not np.array_equal(streamed, expected):
        raise RuntimeError("streaming windowizer diverged from "
                           "extract_features")
    best, _ = harness.best_of({"drain": lambda _: drain()}, ROUNDS)
    return (len(trace) / best["drain"], windowizer.ring_high_water,
            windowizer.ring_nbytes)


def _bench_service():
    import numpy as np

    from repro.core.dataset import collect_traces, windows_from_traces
    from repro.core.fingerprint import HierarchicalFingerprinter
    from repro.stream import OnlineClassifier, StreamService

    traces = collect_traces(list(SERVE_APPS),
                            traces_per_app=SERVE_TRACES_PER_APP,
                            duration_s=SERVE_DURATION_S, seed=9)
    model = HierarchicalFingerprinter(n_trees=16, max_depth=12)
    model.fit(windows_from_traces(traces))
    sources = [(f"cell-{index}", trace)
               for index, trace in enumerate(traces.traces)]
    n_records = sum(len(trace) for _, trace in sources)

    best, reports = harness.best_of(
        {"service": lambda service: service.run()}, ROUNDS,
        setup=lambda _: contextlib.nullcontext(StreamService(
            model, sources, chunk_records=CHUNK_RECORDS)))

    # p99 wall latency of window-closing ingest calls (the per-verdict
    # latency), measured against the classifier stage directly so each
    # close event is timed individually.
    latencies = []
    classifier = OnlineClassifier(model)
    for name, trace in sources:
        for chunk in trace.iter_chunks(CHUNK_RECORDS):
            started = time.perf_counter()
            verdicts = classifier.ingest(name, *chunk)
            elapsed = time.perf_counter() - started
            if verdicts:
                latencies.append(elapsed)
        started = time.perf_counter()
        verdicts = classifier.finish(name)
        if verdicts:
            latencies.append(time.perf_counter() - started)
    ranked = np.sort(np.asarray(latencies))
    position = max(0, int(np.ceil(0.99 * len(ranked))) - 1)
    return (n_records / best["service"], reports["service"][-1].windows,
            float(ranked[position]))


def main() -> int:
    ingest_rps, ring_high_water, ring_nbytes = _bench_windowizer()
    service_rps, windows, close_p99_s = _bench_service()

    print(f"windowizer ingest: {ingest_rps:,.0f} records/s "
          f"(ring high-water {ring_high_water} of {N_RECORDS} records)")
    print(f"service: {service_rps:,.0f} records/s, {windows} windows, "
          f"close p99 {close_p99_s * 1e3:.2f} ms")
    return harness.record(
        OUT,
        "Streaming data plane, best of "
        f"{ROUNDS}: StreamingWindowizer draining "
        f"{N_RECORDS} synthetic records in "
        f"{CHUNK_RECORDS}-record chunks (output asserted "
        "np.array_equal to one-shot extract_features, "
        "ring memory bounded), and StreamService "
        "end-to-end (windowize + forest descent + fusion) "
        "over simulator traces with the p99 wall latency "
        "of window-closing ingest calls.",
        {"n_records": N_RECORDS, "span_s": SPAN_S,
         "chunk_records": CHUNK_RECORDS,
         "serve_apps": list(SERVE_APPS),
         "serve_traces_per_app": SERVE_TRACES_PER_APP,
         "serve_duration_s": SERVE_DURATION_S, "rounds": ROUNDS},
        {"windowizer_ingest": {"records_per_s": ingest_rps,
                               "ring_high_water_records": ring_high_water,
                               "ring_nbytes": ring_nbytes},
         "service": {"records_per_s": service_rps,
                     "windows_closed": windows,
                     "close_p99_s": close_p99_s}},
        GUARDS)


if __name__ == "__main__":
    harness.run(main)
