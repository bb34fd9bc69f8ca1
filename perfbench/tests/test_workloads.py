"""Smoke-size runs of every workload, and the runner's metric contract."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

SMOKE = {
    "campaign": workloads.CampaignSize(
        train_per_app=1, capture_s=3.0, n_trees=4, visit_s=4.0,
        verdict_repeats=1, min_macro_f=0.0, min_history_success=0.0),
    "serve": workloads.ServeSize(
        n_cells=2, ues_per_cell=2, shards=2,
        model_traces_per_app=1, model_capture_s=3.0, n_trees=4,
        replays=2),
    "correlate": workloads.CorrelateSize(
        pairs_per_app=1, capture_s=8.0, shortlist=4, sample_cells=4),
}


@pytest.fixture(autouse=True, scope="module")
def serial_uncached():
    from repro import runtime

    with runtime.overrides(workers=1, cache_enabled=False):
        yield


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_passes_its_output_check(name):
    workload = workloads.make(name, seed=3, size=SMOKE[name])
    workload.setup()
    digests = []
    for _ in range(2):
        for step in workload.pass_steps():
            step()
        result = workload.summarize()
        latencies, verdict_text = workload.verdict_round()
        assert result.records > 0 and result.ops > 0 and latencies
        digests.append((result.canonical, verdict_text))
    assert digests[0] == digests[1], "passes must be deterministic"
    assert workload.check() == []


def test_replayed_trace_is_time_shifted_copies():
    import numpy as np
    from repro.sniffer.trace import Trace

    trace = Trace.from_arrays(np.array([0.0, 0.5]), np.array([70, 71]),
                              np.array([0, 1]), np.array([10, 20]))
    copies = workloads.replayed(trace, 3, 2.0)
    assert copies.times_s.tolist() == [0.0, 0.5, 2.0, 2.5, 4.0, 4.5]
    assert copies.rntis.tolist() == [70, 71] * 3


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_runner():
    spec = _benchmark()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.WORKLOADS)


def test_metric_names_and_units_are_well_formed():
    spec = _benchmark()
    names = [m["name"] for group in ("end_to_end", "per_layer")
             for m in spec[group]]
    assert len(names) == len(set(names))
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
                                metric["name"])
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower" and setup["unit"] == "s"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_metric_is_emitted_with_its_unit():
    phase = run.Phase(pass_s=[1.0, 2.0], records=[10, 30], ops=4,
                      latencies=[0.001, 0.002, 0.003],
                      scaled_latencies=[0.0005, 0.001, 0.0015],
                      digests=["d", "d"], peak_rss_mb=50.0)
    metrics = run.end_to_end(phase, 0.2)
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["pass_s"] == 1.5 and metrics["setup_s"] == 0.2
    assert metrics["verdict_p50_ms"] == 1.0
    assert run.verdict_p99_ms([phase]) == pytest.approx(2.98)
    assert metrics["records_per_s"] == 20 / 1.5
    assert metrics["peak_rss_mb"] == 50.0
    tracer = tracing.Tracer()
    root = tracer.begin("pass")
    tracer.end(root)
    metrics = run.per_layer(tracer, {"sim.ttis": 4, "sim.grants": 6},
                            phase, phase, {"runtime.spill_bytes": 7})
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["lte.grants_per_tti"] == 1.5
    assert metrics["runtime.spill_bytes"] == 7.0
    assert metrics["trace.overhead"] == 0.0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_one_result_line(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "correlate",
         "--seed", "0", "--seconds", "0.01", "--trace", trace],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "digests.json").write_text("{}")
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "serve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
