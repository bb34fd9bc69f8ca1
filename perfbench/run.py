"""End-to-end benchmark of the LTE app-fingerprinting attack pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 20 --trace 0

Workloads are ``campaign``, ``serve`` and ``correlate`` (see
``workloads.py``).  The process pins itself to one worker, no trace
cache and one BLAS/OpenMP thread, clears every ``REPRO_*`` variable,
imports the program five times (once itself, four times in a fresh
interpreter) and sets the workload up three times (``setup_s`` is the
median import plus the median set-up), then repeats timed passes until
``--seconds`` have passed.  Each pass is followed by a verdict round
that times single verdict-producing calls.

The host this was defined on is shared, and its speed drifts by up to
±40 % over seconds to minutes (identical passes, no steal time, no
garbage collection).  So the host's speed is sampled with a fixed
reference kernel that runs no program code, before and after every
set-up, pass step and verdict round, and end-to-end times are reported
at reference speed: each interval's measured time × ``REFERENCE_S`` /
the mean kernel time around it.  A change to the program moves the
numbers; a slow phase of the host hardly does.  The raw times and the
speed samples are printed in the ``#`` line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the
first half of the time untraced and the second half with the per-layer
wrappers of ``tracing.py`` installed, and reports the per-layer metrics
(self times and counts per traced pass; ``trace.overhead`` compares the
two halves).  Spans are written to ``.bench_build/perfbench/``.

After the timed phase the outputs are checked: every pass must produce
the same digest, the digest must match ``digests.json`` where that file
pins the seed, and each workload's quality floors and independent
recomputations must hold.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only if every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import tracing

_STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
DIGESTS = BENCH_DIR / "digests.json"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5

#: Run in a fresh interpreter: seconds to import the workloads, and with
#: them numpy and the program, as the runner itself does at start.
IMPORT_PROBE = ("import sys, time; started = time.perf_counter(); "
                "sys.path[:0] = sys.argv[1:]; import workloads; "
                "print(time.perf_counter() - started)")

#: ``peak_rss_mb`` is read after this many passes (and their verdict
#: rounds), so it measures a fixed amount of work whatever the speed;
#: every run makes at least this many passes.
RSS_PASSES = 2

#: Wall time of :func:`reference_kernel` on an uncontended core of the
#: 2-vCPU machine this benchmark was defined on.
REFERENCE_S = 0.025
CALIBRATION_REPEATS = 4

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")

#: End-to-end metrics (tracing off) and their units.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "pass_s": "s",
    "records_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer self times: metric -> span name (see tracing.WRAPS).
LAYER_TIMES: Dict[str, str] = {
    "lte.self_s": "lte",
    "apps.self_s": "apps",
    "sniffer.decode_s": "sniffer.decode",
    "sniffer.identity_s": "sniffer.identity",
    "sniffer.group_s": "sniffer.group",
    "sniffer.track_s": "sniffer.track",
    "runtime.self_s": "runtime",
    "core.dataset_s": "core.dataset",
    "core.features_s": "core.features",
    "core.history_s": "core.history",
    "core.volume_s": "core.volume",
    "core.correlation_s": "core.correlation",
    "ml.fit_s": "ml.fit",
    "ml.predict_s": "ml.predict",
    "ml.dtw_batch_s": "ml.dtw_batch",
    "ml.dtw_scalar_s": "ml.dtw_scalar",
    "ml.logistic_s": "ml.logistic",
    "stream.windowizer_s": "stream.windowizer",
    "stream.online_s": "stream.online",
    "stream.service_s": "stream.service",
    "stream.fusion_s": "stream.fusion",
    "scan.self_s": "scan",
}

#: Per-layer counts: metric -> program counter in repro.obs.
OBS_COUNTS: Dict[str, str] = {
    "lte.ttis": "sim.ttis",
    "lte.grants": "sim.grants",
    "sniffer.decoded": "sniffer.decoder.decoded",
    "sniffer.bindings_learned": "sniffer.mapper.mappings_learned",
    "runtime.items": "runtime.parallel.items",
    "runtime.cache_hits": "runtime.cache.hits",
    "core.windows_invalidated": "features.windows_invalidated",
    "ml.trees_fit": "ml.forest.trees_fit",
}

#: Per-layer counts the benchmark's wrappers observe.
TRACE_COUNTS = ("apps.events", "core.windows", "ml.rows_predicted",
                "ml.dtw_cells", "ml.dtw_pairs", "stream.records",
                "stream.windows_closed", "scan.findings")

#: Per-layer high-water marks the wrappers observe (not per pass).
TRACE_MAXIMA: Dict[str, str] = {
    "stream.ring_high_water": "count",
    "stream.backlog_max": "count",
    "stream.close_lag_p99_s": "s",
}

PER_LAYER: Dict[str, str] = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in OBS_COUNTS},
    **{name: "count" for name in TRACE_COUNTS},
    **TRACE_MAXIMA,
    "lte.grants_per_tti": "ratio",
    "sniffer.decode_yield": "ratio",
    "runtime.spill_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}


def hermetic_environment() -> None:
    """Pin the process before numpy or the program is imported."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    scratch = WORK_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work.

    It runs no program code, so no change to the program can move it; it
    only tracks how fast the host is running this process right now.
    """
    import numpy as np

    started = time.perf_counter()
    values = np.arange(256, dtype=np.float64)
    table = {}
    total = 0.0
    for i in range(6000):
        ordered = np.sort(values[::-1] * 1.0001)
        total += float(ordered[i % 256])
        table[i % 257] = (total, i)
        for j in range(8):
            total += j * 0.5
    return time.perf_counter() - started


def host_speed() -> float:
    """``REFERENCE_S`` over the kernel's median time (1.0 at reference)."""
    return REFERENCE_S / statistics.median(
        reference_kernel() for _ in range(CALIBRATION_REPEATS))


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the workloads."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(BENCH_DIR),
         str(ROOT / "src")],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=120)
    return float(out.stdout)


@dataclass
class Phase:
    """One run of timed passes.

    ``pass_s`` and ``scaled_latencies`` are at reference speed: each
    timed interval (a pass step or a verdict round) is scaled by the mean
    of the host-speed samples taken just before and just after it.
    """

    pass_s: List[float] = field(default_factory=list)
    raw_pass_s: List[float] = field(default_factory=list)
    records: List[int] = field(default_factory=list)
    ops: int = 0
    latencies: List[float] = field(default_factory=list)
    scaled_latencies: List[float] = field(default_factory=list)
    speeds: List[float] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def measure(workload, seconds: float, tracer=None) -> Phase:
    """Closed loop: one pass, then its verdict round, until time is up.

    At least ``RSS_PASSES`` passes are made.  The host's speed is sampled
    before the first pass and after every pass step and every verdict
    round.
    """
    speed = host_speed()
    phase = Phase(speeds=[speed])
    started = time.perf_counter()
    while True:
        raw = scaled = 0.0
        for step in workload.pass_steps():
            root = tracer.begin("pass") if tracer is not None else None
            begun = time.perf_counter()
            step()
            elapsed = time.perf_counter() - begun
            if tracer is not None:
                tracer.end(root)
            after = host_speed()
            raw += elapsed
            scaled += elapsed * (speed + after) / 2
            speed = after
            phase.speeds.append(after)
        result = workload.summarize()
        root = tracer.begin("verdicts") if tracer is not None else None
        latencies, verdict_text = workload.verdict_round()
        if tracer is not None:
            tracer.end(root)
        after = host_speed()
        round_speed = (speed + after) / 2
        speed = after
        phase.speeds.append(after)
        phase.pass_s.append(scaled)
        phase.raw_pass_s.append(raw)
        phase.records.append(result.records)
        phase.ops += result.ops
        phase.latencies.extend(latencies)
        phase.scaled_latencies.extend(v * round_speed for v in latencies)
        phase.digests.append(hashlib.sha256(
            (result.canonical + "\n" + verdict_text).encode()).hexdigest())
        if len(phase.pass_s) == RSS_PASSES:
            phase.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if (len(phase.pass_s) >= RSS_PASSES
                and time.perf_counter() - started >= seconds):
            return phase


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, float]:
    """The end-to-end metrics, times at reference speed."""
    import numpy as np

    pass_s = statistics.median(phase.pass_s)
    p50 = np.percentile(np.asarray(phase.scaled_latencies), 50)
    return {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "records_per_s": statistics.median(phase.records) / pass_s,
        "verdict_p50_ms": float(p50) * 1e3,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def verdict_p99_ms(phases: List[Phase]) -> float:
    """The verdict-latency tail as measured (reported, not a metric).

    The tail is set by the host's worst moments: neither raw nor scaled
    it stayed within any allowed bound across runs, so it is printed in
    the ``#`` line with its sample count instead of being a metric.
    """
    import numpy as np

    samples = [value for phase in phases for value in phase.latencies]
    return float(np.percentile(np.asarray(samples), 99)) * 1e3


def per_layer(tracer, counters: Dict[str, int], untraced: Phase,
              traced: Phase, extra: Dict[str, float]) -> Dict[str, float]:
    passes = len(traced.pass_s)
    own = tracing.layer_self_times(tracer)
    wall = tracing.root_wall(tracer)
    metrics: Dict[str, float] = {}
    for metric, span in LAYER_TIMES.items():
        metrics[metric] = own.get(span, 0.0) / passes
    for metric, counter in OBS_COUNTS.items():
        metrics[metric] = counters.get(counter, 0) / passes
    for metric in TRACE_COUNTS:
        metrics[metric] = tracer.counts.get(metric, 0.0) / passes
    for metric in TRACE_MAXIMA:
        metrics[metric] = tracer.maxima.get(metric, 0.0)
    ttis = metrics["lte.ttis"]
    metrics["lte.grants_per_tti"] = (metrics["lte.grants"] / ttis
                                     if ttis else 0.0)
    captured = counters.get("sniffer.capture.captured", 0)
    metrics["sniffer.decode_yield"] = (
        counters.get("sniffer.decoder.decoded", 0) / captured
        if captured else 0.0)
    metrics["runtime.spill_bytes"] = float(extra.get("runtime.spill_bytes", 0))
    metrics["trace.wall_s"] = wall / passes
    attributed = sum(own.get(span, 0.0) for span in set(LAYER_TIMES.values()))
    metrics["trace.unattributed_s"] = (wall - attributed) / passes
    metrics["trace.overhead"] = (statistics.median(traced.pass_s)
                                 / statistics.median(untraced.pass_s) - 1.0)
    return metrics


def counter_delta(before: Dict[str, int],
                  after: Dict[str, int]) -> Dict[str, int]:
    return {name: value - before.get(name, 0)
            for name, value in after.items()}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "serve", "correlate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    hermetic_environment()

    import numpy as np
    from repro import obs, runtime

    import workloads

    obs.enable(False)
    runtime.configure(workers=1, cache_enabled=False)
    runtime.reset_stats()
    # Import time is one reading per process, so more are taken in fresh
    # interpreters and the median is used.
    import_times = [time.perf_counter() - _STARTED]
    import_speeds = [host_speed()]
    for _ in range(IMPORT_REPEATS - 1):
        import_times.append(import_seconds())
        import_speeds.append(host_speed())

    workload = workloads.make(args.workload, args.seed)
    setup_times = []
    extra: Dict[str, float] = {}
    speeds = [import_speeds[-1]]
    for _ in range(SETUP_REPEATS):
        begun = time.perf_counter()
        extra = workload.setup()
        setup_times.append(time.perf_counter() - begun)
        speeds.append(host_speed())
    raw_setup_s = (statistics.median(import_times)
                   + statistics.median(setup_times))
    setup_s = statistics.median(
        elapsed * speed for elapsed, speed
        in zip(import_times, import_speeds)) + statistics.median(
        elapsed * (before + after) / 2 for elapsed, before, after
        in zip(setup_times, speeds, speeds[1:]))

    tracer = None
    if args.trace:
        untraced = measure(workload, args.seconds / 2)
        obs.enable(True)
        before = obs.snapshot()["counters"]
        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
        try:
            traced = measure(workload, args.seconds / 2, tracer)
        finally:
            installation.uninstall()
            counters = counter_delta(before, obs.snapshot()["counters"])
            obs.enable(False)
        for target in installation.missing:
            print(f"# trace: wrap target missing, its time is unattributed: "
                  f"{target}")
        phases = [untraced, traced]
        metrics = per_layer(tracer, counters, untraced, traced, extra)
        units = PER_LAYER
    else:
        phases = [measure(workload, args.seconds)]
        metrics = end_to_end(phases[0], setup_s)
        units = END_TO_END

    errors = workload.check()
    digests = sorted({d for phase in phases for d in phase.digests})
    if len(digests) != 1:
        errors.append(f"passes disagree: {len(digests)} distinct digests")
    pinned = json.loads(DIGESTS.read_text()).get(args.workload, {})
    expected = pinned.get(str(args.seed))
    if expected is not None and digests != [expected]:
        errors.append(f"digest {digests} != pinned {expected}")
    passes = sum(len(phase.pass_s) for phase in phases)
    stats = runtime.stats()
    simulations = (SETUP_REPEATS * workload.setup_simulations
                   + passes * workload.pass_simulations)
    if stats.simulations != simulations or stats.cache.hits != 0:
        errors.append(f"runtime ran {stats.simulations} simulations with "
                      f"{stats.cache.hits} cache hits; expected "
                      f"{simulations} and 0")

    environment = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "passes": passes,
        "raw_setup_s": raw_setup_s,
        "raw_import_s": [round(v, 4) for v in import_times],
        "raw_setups_s": [round(v, 4) for v in setup_times],
        "raw_pass_s": [round(v, 4) for p in phases for v in p.raw_pass_s],
        "host_speed": [round(v, 3) for p in phases for v in p.speeds],
        "verdict_samples": sum(len(p.latencies) for p in phases),
        "verdict_p99_ms": verdict_p99_ms(phases),
        "digest": digests[0] if len(digests) == 1 else digests,
        "quality": getattr(workload, "quality", {}),
        "errors": errors,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK_DIR / f"{stem}.json").write_text(json.dumps(
        {"environment": environment, "metrics": metrics}, indent=2))
    if tracer is not None:
        tracer.save(WORK_DIR / f"{stem}-spans.npz")
    print("# " + json.dumps(environment, sort_keys=True))
    for error in errors:
        print(f"# check failed: {error}")
    attempted = sum(phase.ops for phase in phases)
    print(json.dumps({
        "correct": not errors, "attempted": attempted,
        "failed": attempted if errors else 0,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
