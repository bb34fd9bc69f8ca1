PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast test-faults test-scan bench bench-features \
	bench-smoke bench-lint bench-sim bench-infer bench-stream \
	clean-cache lint report

## Tier-1: full test suite (what CI runs).
test:
	$(PYTHON) -m pytest -x -q

## Quick subset: unit layers only (skip integration + benchmarks).
test-fast:
	$(PYTHON) -m pytest tests/core tests/ml tests/lte tests/apps \
		tests/sniffer tests/operators -q

## Fault-injection subsystem: property/differential invariants, plan +
## cache semantics, and the burst-loss degradation integration test.
test-faults:
	$(PYTHON) -m pytest tests/faults tests/properties \
		tests/integration/test_fault_degradation.py \
		tests/runtime/test_cache.py tests/runtime/test_cache_npz.py -q

## Attack scanner: detector findings vs the table driver results they
## run (with golden driver tables), golden reports, schema/baseline
## units (including the baseline core shared with lint), the
## batch-vs-stream parity suite, and the Hypothesis scan invariants
## (what the CI scan job runs).
test-scan:
	$(PYTHON) -m pytest tests/scan tests/test_baseline.py \
		tests/properties/test_scan_invariants.py -q

## Component micro-benchmarks with timing enabled (slow; writes results/).
bench:
	$(PYTHON) -m pytest benchmarks/test_component_speed.py -q

## Columnar data-plane benchmarks only: feature extraction, trace
## filters, tree fit, NPZ persistence (cf. BENCH_columnar.json).
bench-features:
	$(PYTHON) -m pytest benchmarks/test_component_speed.py -q \
		-k "feature or filter or tree_fit or npz"

## Smoke run of the same benchmarks with timing assertions off — catches
## runtime-layer regressions (import errors, broken fan-out, cache bugs)
## without slowing tier-1.  Same thing `lte-fingerprint bench` runs.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_component_speed.py -q \
		--benchmark-disable -p no:cacheprovider

## Static analysis: the repo's determinism / numeric-safety /
## parallel-safety / obs-coverage ruleset (repro.analysis).  Exits
## non-zero on findings; CI runs exactly this.
lint:
	$(PYTHON) -m repro.cli lint src

## Full-repo lint wall time (cold target < 2 s, no >2x regression
## against the committed BENCH_lint.json); writes BENCH_lint.json.
bench-lint:
	$(PYTHON) benchmarks/bench_lint.py

## Simulator benchmark: TTI-loop grants/s on a 2048-UE cell, per-TTI
## cost across cell sizes for each lane, and the sharded city scaling
## sweep; writes BENCH_simulator.json and fails below the grants/s
## floor or above a per-TTI ceiling.
bench-sim:
	$(PYTHON) benchmarks/bench_simulator.py

## Inference-plane benchmark: flattened forest predict vs the object
## descent, the small-batch forest lane sweep and the batched DTW
## similarity matrix vs its scalar reference; writes
## BENCH_inference.json and fails below the floors.
bench-infer:
	$(PYTHON) benchmarks/bench_inference.py

## Streaming data-plane benchmark: sustained windowizer ingest (output
## asserted bit-identical to extract_features, ring memory bounded) and
## end-to-end service throughput with p99 window-close latency; writes
## BENCH_stream.json and fails below the floors or above the ceilings.
bench-stream:
	$(PYTHON) benchmarks/bench_stream.py

## Drop every entry from the on-disk trace cache.
clean-cache:
	$(PYTHON) -m repro.cli cache --clear

## Render the JSONL run manifests written by --obs-out
## (override the file with `make report OBS_OUT=path/to/runs.jsonl`).
OBS_OUT ?= runs.jsonl
report:
	$(PYTHON) -m repro.cli report $(OBS_OUT)
