"""Command-line interface: ``lte-fingerprint <command>``.

Commands mirror the framework's stages (Fig. 3) plus the experiment
harness:

* ``collect`` — capture labelled traces into a directory;
* ``train`` — train the hierarchical fingerprinter on a trace dir and
  report held-out window scores;
* ``classify`` — fingerprint a trace file with a freshly trained model;
* ``serve`` — run the streaming attack service (:mod:`repro.stream`)
  over NPZ/JSONL/CSV trace sources or a live city-sim feed, writing
  JSONL per-window verdicts, per-source trace verdicts, and fused
  multi-cell judgements;
* ``experiment`` — regenerate a paper table/figure by name;
* ``scan`` — run the attack scanner (:mod:`repro.scan`): every attack
  as a detector emitting confidence-scored findings into one text/JSON
  report, with suppression baselines and severity exit-code gating;
* ``cache`` — inspect or clear the on-disk trace cache;
* ``report`` — render JSONL run manifests written by ``--obs-out``;
* ``lint`` — run the repo's static-analysis ruleset (determinism,
  numeric safety, parallel/cache safety, obs coverage — see
  :mod:`repro.analysis`); exits non-zero on findings;
* ``list`` — show registered apps, operators, and experiments.

Exit codes follow one convention across subcommands: **2** for bad
input (missing/malformed files, unknown names — the ``--faults``
convention) and **1** for runtime failures (a stage raising after its
inputs validated).

Heavy commands take ``--workers`` (or ``REPRO_WORKERS``) to fan trace
simulation / forest fitting out over processes, ``--no-cache`` /
``--cache-dir`` to control the on-disk trace cache, and
``--obs-out PATH`` to enable observability collection (see
:mod:`repro.obs`) and append a run manifest line to ``PATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import List, Optional

from . import baseline, obs, runtime
from .apps import app_names
from .operators import PROFILES, get_profile


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    """Worker/cache knobs shared by the simulation-heavy commands."""
    group = parser.add_argument_group("runtime")
    group.add_argument("--workers", type=int, default=None,
                       help="parallel simulation/training processes "
                            "(default: REPRO_WORKERS or 1)")
    group.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk trace cache")
    group.add_argument("--cache-dir", type=Path, default=None,
                       help="trace cache directory "
                            "(default: REPRO_TRACE_CACHE_DIR or XDG cache)")
    group.add_argument("--obs-out", type=Path, default=None,
                       help="enable observability and append a JSONL run "
                            "manifest to this file (see 'repro report')")


def _load_fault_plan(args: argparse.Namespace):
    """Parse ``--faults PLAN.json`` (None when the flag is absent)."""
    path = getattr(args, "faults", None)
    if path is None:
        return None
    from .faults import FaultPlan

    return FaultPlan.from_file(path)


@contextlib.contextmanager
def _runtime_overrides(args: argparse.Namespace, fault_plan=None):
    """--workers/--no-cache/--cache-dir/--faults/--obs-out, scoped to one
    command, so a caller of :func:`main` keeps its own runtime and
    observability settings."""
    # --obs-out turns collection on *before* any pipeline component is
    # constructed: instruments are fetched at __init__ time.
    observe = (obs.override(True) if getattr(args, "obs_out", None)
               is not None else contextlib.nullcontext())
    plan = {} if fault_plan is None else {"fault_plan": fault_plan}
    with observe, runtime.overrides(
            workers=getattr(args, "workers", None),
            cache_enabled=False if getattr(args, "no_cache", False) else None,
            cache_dir=getattr(args, "cache_dir", None), **plan):
        yield


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lte-fingerprint",
        description="Reproduction of 'Targeted Privacy Attacks by "
                    "Fingerprinting Mobile Apps in LTE Radio Layer' "
                    "(DSN 2023)")
    sub = parser.add_subparsers(dest="command", required=True)

    collect = sub.add_parser("collect", help="capture labelled traces")
    collect.add_argument("--out", type=Path, required=True,
                         help="output directory for trace CSVs")
    collect.add_argument("--format", default="csv", choices=("csv", "npz"),
                         help="csv: one file per trace (interchange); "
                              "npz: one columnar archive (fast)")
    collect.add_argument("--operator", default="Lab",
                         help=f"environment ({', '.join(PROFILES)})")
    collect.add_argument("--apps", nargs="*", default=None,
                         help="apps to capture (default: all nine)")
    collect.add_argument("--traces", type=int, default=3,
                         help="traces per app")
    collect.add_argument("--duration", type=float, default=30.0,
                         help="seconds per trace")
    collect.add_argument("--seed", type=int, default=0)
    collect.add_argument("--background", type=int, default=0,
                         help="number of concurrent background apps")
    collect.add_argument("--faults", type=Path, default=None,
                         metavar="PLAN.json",
                         help="fault-injection plan applied to every "
                              "capture (see EXPERIMENTS.md)")
    _add_runtime_args(collect)

    train = sub.add_parser("train", help="train + evaluate on a trace dir")
    train.add_argument("--data", type=Path, required=True,
                       help="trace directory or .npz archive "
                            "(from 'collect')")
    train.add_argument("--trees", type=int, default=40)
    train.add_argument("--window-ms", type=float, default=100.0)
    train.add_argument("--seed", type=int, default=1)
    train.add_argument("--save-model", type=Path, default=None,
                       metavar="MODEL.json",
                       help="persist the fitted pipeline for "
                            "'serve --model' / offline reuse")
    _add_runtime_args(train)

    serve = sub.add_parser(
        "serve", help="run the streaming attack service (repro.stream)")
    source = serve.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", type=Path, nargs="+", default=None,
                        metavar="TRACE",
                        help="trace sources (.npz set archive / .jsonl "
                             "/ .csv), one feed per trace")
    source.add_argument("--sim", action="store_true",
                        help="stream a live city-sim feed instead of "
                             "recorded traces")
    model_src = serve.add_mutually_exclusive_group(required=True)
    model_src.add_argument("--model", type=Path, default=None,
                           metavar="MODEL.json",
                           help="fitted pipeline from 'train --save-model'")
    model_src.add_argument("--train-data", type=Path, default=None,
                           metavar="DIR",
                           help="trace directory/.npz to train a fresh "
                                "model from before serving")
    serve.add_argument("--out", type=Path, default=None,
                       metavar="VERDICTS.jsonl",
                       help="JSONL verdict stream (default: stdout "
                            "summary only)")
    serve.add_argument("--chunk-records", type=int, default=256,
                       help="records per ingest chunk")
    serve.add_argument("--trees", type=int, default=40,
                       help="forest size when training via --train-data")
    serve.add_argument("--sim-cells", type=int, default=3,
                       help="city-sim cell count (with --sim)")
    serve.add_argument("--sim-epochs", type=int, default=2,
                       help="city-sim epochs (with --sim)")
    serve.add_argument("--seed", type=int, default=0,
                       help="city-sim seed (with --sim)")
    _add_runtime_args(serve)

    classify = sub.add_parser("classify", help="fingerprint one trace")
    classify.add_argument("--data", type=Path, required=True,
                          help="training trace directory")
    classify.add_argument("--trace", type=Path, required=True,
                          help="trace CSV to classify")
    classify.add_argument("--trees", type=int, default=40)

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper table/figure")
    experiment.add_argument("name",
                            help="table3|table4|table5|table6|table7|"
                                 "table8|fig8|fig9|window|cost|"
                                 "countermeasures|fiveg|handover|"
                                 "robustness|ablation")
    experiment.add_argument("--scale", default="fast",
                            choices=("smoke", "fast", "full"))
    experiment.add_argument("--faults", type=Path, default=None,
                            metavar="PLAN.json",
                            help="fault-injection plan applied to every "
                                 "capture (see EXPERIMENTS.md)")
    _add_runtime_args(experiment)

    scan = sub.add_parser(
        "scan", help="run the attack scanner (repro.scan detectors)")
    scan.add_argument("--detectors", default=None, metavar="IDS",
                      help="comma-separated detector ids to run "
                           "(default: all; dependencies are pulled in)")
    scan.add_argument("--list-detectors", action="store_true",
                      help="print the registered detectors and exit")
    scan.add_argument("--scale", default="fast",
                      choices=("smoke", "fast", "full"),
                      help="campaign sizing (smoke: seconds, for CI)")
    scan.add_argument("--seed", type=int, default=None,
                      help="override every detector's seed (default: "
                           "each table driver's own seed)")
    scan.add_argument("--environments", default=None, metavar="NAMES",
                      help="comma-separated operator profiles for the "
                           "correlation sweep (default: all four)")
    scan.add_argument("--format", default="text",
                      choices=("text", "json"), dest="scan_format",
                      help="report format (json is the versioned "
                           "document repro.scan.report validates)")
    scan.add_argument("--out", type=Path, default=None,
                      metavar="REPORT",
                      help="also write the rendered report to a file")
    scan.add_argument("--baseline", type=Path, default=None,
                      help="suppression baseline (default: "
                           "scan-baseline.json when it exists)")
    scan.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline with the current "
                           "findings and exit 0")
    scan.add_argument("--fail-on", default="high", dest="fail_on",
                      choices=("never",) + tuple(
                          s for s in ("low", "medium", "high",
                                      "critical")),
                      help="exit 1 when an unsuppressed finding reaches "
                           "this severity (default: high)")
    scan.add_argument("--faults", type=Path, default=None,
                      metavar="PLAN.json",
                      help="fault-injection plan applied to every "
                           "capture (see EXPERIMENTS.md)")
    _add_runtime_args(scan)

    cache = sub.add_parser("cache", help="inspect / clear the trace cache")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached trace")
    cache.add_argument("--cache-dir", type=Path, default=None,
                       help="cache directory to operate on")

    report = sub.add_parser(
        "report", help="render run manifests written by --obs-out")
    report.add_argument("path", type=Path,
                        help="JSONL manifest file (from --obs-out)")
    report.add_argument("--last", type=int, default=None, metavar="N",
                        help="only render the last N runs")
    report.add_argument("--json", action="store_true",
                        help="emit raw JSON lines instead of tables")

    lint = sub.add_parser(
        "lint", help="run the static-analysis ruleset (repro.analysis)")
    lint.add_argument("paths", nargs="*", type=Path,
                      default=[Path("src")],
                      help="files/directories to lint (default: src)")
    lint.add_argument("--format", default="text",
                      choices=("text", "json", "sarif"),
                      dest="lint_format",
                      help="report format (text: human/CI logs; "
                           "json: versioned document for tooling; "
                           "sarif: SARIF 2.1.0 for code-scanning UIs)")
    lint.add_argument("--baseline", type=Path, default=None,
                      help="grandfathered-findings file (default: "
                           "lint-baseline.json when it exists)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline with the current "
                           "findings and exit 0")
    lint.add_argument("--select", default=None, metavar="IDS",
                      help="comma-separated rule ids to run "
                           "(default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")

    sub.add_parser("list", help="show apps, operators, experiments")
    return parser


def _cmd_collect(args: argparse.Namespace, manifest=None) -> int:
    from .core.dataset import collect_traces

    apps = args.apps or list(app_names())
    operator = get_profile(args.operator)
    traces = collect_traces(apps, operator=operator,
                            traces_per_app=args.traces,
                            duration_s=args.duration, seed=args.seed,
                            background_count=args.background)
    if args.format == "npz":
        out = args.out if args.out.suffix == ".npz" else args.out / "traces.npz"
        out.parent.mkdir(parents=True, exist_ok=True)
        traces.to_npz(out)
        print(f"saved {len(traces)} traces to {out}")
    else:
        traces.save(args.out)
        print(f"saved {len(traces)} traces to {args.out}")
    if manifest is not None:
        manifest.set_result({"traces": len(traces),
                             "records": sum(len(t) for t in traces)})
    return 0


def _load_dataset(path: Path):
    """The training set at ``--data``, or ``None`` after reporting why
    it is unusable: bad input, so the caller exits 2 (the --faults
    exit-code convention)."""
    from .sniffer.trace import TraceSet

    try:
        traces = TraceSet.load(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read traces from {path}: {exc}", file=sys.stderr)
        return None
    if not len(traces):
        print(f"no traces found in {path}", file=sys.stderr)
        return None
    return traces


def _training_windows(path: Path, traces, config=None):
    """The labelled windows of ``traces``, or ``None`` after reporting
    why they cannot train a model (an unlabelled trace): bad input, so
    the caller exits 2."""
    from .core.dataset import windows_from_traces

    try:
        return windows_from_traces(traces, config)
    except ValueError as exc:
        print(f"cannot train on {path}: {exc}", file=sys.stderr)
        return None


def _cmd_train(args: argparse.Namespace, manifest=None) -> int:
    from .core.features import WindowConfig
    from .core.fingerprint import HierarchicalFingerprinter
    from .ml.crossval import train_test_split
    from .ml.metrics import classification_report

    traces = _load_dataset(args.data)
    if traces is None:
        return 2
    config = WindowConfig(window_ms=args.window_ms)
    windows = _training_windows(args.data, traces, config)
    if windows is None:
        return 2
    X_train, X_test, y_train, y_test = train_test_split(
        windows.X, windows.app_labels, seed=args.seed)
    # Re-wrap the training split as a LabeledWindows for the pipeline.
    import numpy as np

    model = HierarchicalFingerprinter(window_config=config,
                                      n_trees=args.trees, seed=args.seed)
    subset = windows.subset(np.isin(np.arange(len(windows.X)),
                                    _train_indices(windows.X, X_train)))
    model.fit(subset)
    predictions = model.predict_apps(X_test)
    print(classification_report(y_test, predictions,
                                windows.app_encoder.classes_))
    if args.save_model is not None:
        from .core.fingerprint import save_fingerprinter

        args.save_model.parent.mkdir(parents=True, exist_ok=True)
        save_fingerprinter(model, args.save_model)
        print(f"saved model to {args.save_model}")
    if manifest is not None:
        from .ml.metrics import accuracy

        manifest.set_result({"test_windows": len(X_test),
                             "accuracy": accuracy(y_test, predictions)})
    return 0


def _train_indices(X_all, X_train) -> List[int]:
    """Recover training-row indices by identity of rows (shuffled split)."""
    import numpy as np

    view = {X_all[i].tobytes(): i for i in range(len(X_all))}
    return [view[row.tobytes()] for row in X_train if row.tobytes() in view]


def _cmd_classify(args: argparse.Namespace) -> int:
    from .core.fingerprint import HierarchicalFingerprinter
    from .sniffer.trace import Trace

    traces = _load_dataset(args.data)
    if traces is None:
        return 2
    windows = _training_windows(args.data, traces)
    if windows is None:
        return 2
    model = HierarchicalFingerprinter(n_trees=args.trees)
    model.fit(windows)
    try:
        target = Trace.from_csv(args.trace)
    except (FileNotFoundError, ValueError) as exc:
        print(f"cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    verdict = model.classify_trace(target)
    if verdict is None:
        print("trace too short to classify", file=sys.stderr)
        return 2
    print(verdict)
    if target.label:
        print(f"ground truth: {target.label} "
              f"({'correct' if target.label == verdict.app else 'WRONG'})")
    return 0


def _load_stream_sources(path: Path):
    """The serve sources of one file, by extension (.npz / .jsonl / .csv).

    A set archive (what ``collect --format npz`` writes) yields one
    source per trace, named ``stem[i]``; a one-trace archive, a JSONL
    or a CSV trace yields one source named ``stem``.  ``collect`` names
    every capture's user ``VICTIM_USER``, which would fuse separate
    captures into one victim, so a source with that user becomes its
    own victim, named like the source.  A trace with any other user
    fuses with that user's other sources across cells.
    """
    from .core.dataset import VICTIM_USER
    from .sniffer.trace import Trace, TraceSet

    if path.suffix == ".npz":
        traces = TraceSet.from_npz(path).traces
        names = ([path.stem] if len(traces) == 1 else
                 [f"{path.stem}[{index}]" for index in range(len(traces))])
    elif path.suffix == ".jsonl":
        traces, names = [Trace.from_jsonl(path)], [path.stem]
    elif path.suffix == ".csv":
        traces, names = [Trace.from_csv(path)], [path.stem]
    else:
        raise ValueError(f"unsupported trace format: {path.name} "
                         "(expected .npz, .jsonl, or .csv)")
    for name, trace in zip(names, traces):
        if trace.user == VICTIM_USER:
            trace.user = name
    return list(zip(names, traces))


def _serve_model(args: argparse.Namespace):
    """Resolve the serve pipeline: a saved model or a fresh training run."""
    from .core.fingerprint import load_fingerprinter

    if args.model is not None:
        return load_fingerprinter(args.model)
    from .core.dataset import windows_from_traces
    from .core.fingerprint import HierarchicalFingerprinter
    from .sniffer.trace import TraceSet

    traces = TraceSet.load(args.train_data)
    if not len(traces):
        raise ValueError(f"no traces found in {args.train_data}")
    model = HierarchicalFingerprinter(n_trees=args.trees)
    model.fit(windows_from_traces(traces))
    return model


def _serve_sources(args: argparse.Namespace):
    """Resolve the serve feeds: recorded traces or a live city-sim run."""
    if args.sim:
        from .lte.city import CityScenario, run_city

        scenario = CityScenario(n_cells=args.sim_cells,
                                epochs=args.sim_epochs, seed=args.seed)
        result = run_city(scenario)
        return [(cell_id, result.traces[cell_id])
                for cell_id in scenario.cell_ids()
                if cell_id in result.traces]
    return [source for path in args.data
            for source in _load_stream_sources(path)]


def _cmd_serve(args: argparse.Namespace, manifest=None) -> int:
    """Drain trace sources through the streaming attack service."""
    from .stream import StreamService

    if args.chunk_records <= 0:
        print(f"chunk-records must be positive: {args.chunk_records}",
              file=sys.stderr)
        return 2
    try:
        model = _serve_model(args)
        sources = _serve_sources(args)
        if not sources:
            raise ValueError("no non-empty sources to serve")
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
    service = StreamService(model, sources,
                            chunk_records=args.chunk_records,
                            out_path=args.out)
    report = service.run()
    print(f"sources:        {len(sources)}")
    print(f"records:        {report.records} "
          f"({report.dropped} direction-dropped)")
    print(f"windows closed: {report.windows}")
    print(f"ring high-water: {report.ring_high_water} records")
    print(f"close lag p99:  {report.lag_p99_s:.3f} s (event time)")
    for name, _ in sources:
        verdict = report.trace_verdicts.get(name)
        print(f"  {name}: {verdict if verdict else '(no windows)'}")
    for fused in report.fused:
        print(f"  fused {fused}")
    if args.out is not None:
        print(f"verdicts written to {args.out}")
    if manifest is not None:
        manifest.set_result({
            "sources": len(sources), "records": report.records,
            "windows": report.windows,
            "ring_high_water": report.ring_high_water,
            "lag_p99_s": report.lag_p99_s})
    return 0


_EXPERIMENTS = {
    "table3": ("table3_lab", "run"),
    "table4": ("table4_realworld", "run"),
    "table5": ("table5_history", "run"),
    "table6": ("table6_similarity", "run"),
    "table7": ("table7_correlation", "run"),
    "table8": ("table8_algorithms", "run"),
    "fig8": ("fig8_drift", "run"),
    "fig9": ("fig9_noise", "run"),
    "window": ("window_sweep", "run"),
    "cost": ("cost_model", "run"),
    "countermeasures": ("countermeasures", "run"),
    "fiveg": ("fiveg", "run"),
    "handover": ("handover", "run"),
    "robustness": ("robustness", "run"),
}


def _result_summary(result) -> dict:
    """Cheap manifest summary: the scalar fields of a result dataclass."""
    import dataclasses

    out = {}
    if dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            value = getattr(result, field.name)
            if isinstance(value, (str, int, float, bool)):
                out[field.name] = value
    mean_f = getattr(result, "mean_f", None)
    if callable(mean_f):
        try:
            out["mean_f"] = float(mean_f())
        except Exception:
            pass
    return out


def _cmd_experiment(args: argparse.Namespace, manifest=None) -> int:
    import importlib

    if args.name == "ablation":
        from .experiments import ablations

        print(ablations.run_hierarchy(args.scale).table())
        print()
        print(ablations.run_forest(args.scale).table())
        return 0
    if args.name not in _EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; known: "
              f"{sorted(_EXPERIMENTS) + ['ablation']}", file=sys.stderr)
        return 2
    module_name, func = _EXPERIMENTS[args.name]
    module = importlib.import_module(f".experiments.{module_name}",
                                     package="repro")
    result = getattr(module, func)(args.scale)
    print(result.table())
    if manifest is not None:
        summary = _result_summary(result)
        if summary:
            manifest.set_result(summary)
    return 0


def _parse_ids(text: Optional[str]) -> Optional[List[str]]:
    """A comma-separated id list (``--select``, ``--detectors``)."""
    if not text:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


class _BaselineFlow:
    """One tool's suppression baseline around one lint or scan run.

    Built before the run, so bad input exits 2 before any work: the
    file is ``--baseline``, else the tool's default when it exists;
    ``--update-baseline`` is refused on a partial run (it would drop
    every entry outside the selection); otherwise the baseline is
    loaded and validated.  Raises OSError / ValueError on bad input.
    """

    def __init__(self, args: argparse.Namespace, kind: str,
                 partial: Optional[str]) -> None:
        self.kind = kind
        self.update = args.update_baseline
        default = baseline.DEFAULT_PATHS[kind]
        self.path = args.baseline
        if self.path is None and default.exists():
            self.path = default
        self.counts = {}
        if self.update:
            if partial:
                raise ValueError(
                    f"--update-baseline rewrites the whole {kind} "
                    f"baseline; drop {partial} to update it")
            self.path = self.path or default
        elif self.path is not None:
            self.counts = baseline.load_baseline(self.path, kind)

    def write(self, findings) -> int:
        """``--update-baseline``: rewrite the file; exit code 0."""
        document = baseline.write_baseline(self.path, findings, self.kind)
        print(f"wrote {len(document['entries'])} entries to {self.path}")
        return 0

    def split(self, findings):
        """(new, baselined) findings."""
        return baseline.apply_baseline(findings, self.counts)


def _cmd_scan(args: argparse.Namespace, manifest=None) -> int:
    """Run the attack scanner; exit 1 when the severity gate trips."""
    from .scan import ScanConfig, all_detectors, run_scan, severity_rank
    from .scan import engine as engine_mod
    from .scan import report as report_mod

    if args.list_detectors:
        from .scan import DETECTOR_ORDER

        registry = all_detectors()
        for detector_id in DETECTOR_ORDER:
            cls = registry[detector_id]
            requires = (f" (requires {', '.join(cls.requires)})"
                        if cls.requires else "")
            print(f"{detector_id:22s} {cls.title}{requires}")
        return 0
    detectors = _parse_ids(args.detectors)
    try:
        environments = None
        if args.environments:
            environments = tuple(get_profile(name) for name
                                 in _parse_ids(args.environments))
        flow = _BaselineFlow(args, "scan",
                             "--detectors" if detectors is not None
                             else None)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        result = run_scan(detectors, ScanConfig(
            scale=args.scale, seed=args.seed, environments=environments))
    except ValueError as exc:
        # Bad selection (unknown detector id) is bad input, not a
        # runtime failure: the --faults exit-code convention.
        print(str(exc), file=sys.stderr)
        return 2
    if flow.update:
        return flow.write(result.findings)
    new, old = flow.split(result.findings)
    result = engine_mod.ScanResult(
        findings=tuple(new), detectors=result.detectors,
        baselined=len(old), baselined_findings=tuple(old),
        artifacts=result.artifacts)
    rendered = (report_mod.render_json(result)
                if args.scan_format == "json"
                else report_mod.render_text(result))
    print(rendered)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(rendered + "\n", encoding="utf-8")
    if manifest is not None:
        from .scan import max_severity

        manifest.set_result({
            "detectors": len(result.detectors),
            "findings": len(result.findings),
            "baselined": result.baselined,
            "max_severity": max_severity(result.findings) or "none"})
    if args.fail_on != "never":
        gate = severity_rank(args.fail_on)
        if any(severity_rank(f.severity) >= gate
               for f in result.findings):
            return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Report (or clear) the on-disk trace cache."""
    if args.cache_dir is not None:
        runtime.configure(cache_dir=args.cache_dir)
    cache = runtime.trace_cache()
    if cache is None:
        print("trace cache is disabled (REPRO_TRACE_CACHE=0)")
        return 0
    if args.clear:
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.directory}")
        return 0
    entries = cache.entries()
    total = sum(size for _, size, _ in entries)
    print(f"directory:   {cache.directory}")
    print(f"entries:     {len(entries)}")
    print(f"size:        {total / (1 << 20):.1f} MiB "
          f"(bound {cache.max_bytes / (1 << 20):.0f} MiB)")
    print(f"fingerprint: {cache.fingerprint[:16]}…")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render the run manifests appended by ``--obs-out``."""
    import json

    from .obs import manifest as manifest_mod

    if not args.path.exists():
        print(f"no manifest file at {args.path}", file=sys.stderr)
        return 2
    lines = manifest_mod.read_manifests(args.path)
    if not lines:
        print(f"no runs recorded in {args.path}", file=sys.stderr)
        return 2
    if args.last is not None:
        lines = lines[-args.last:]
    for index, line in enumerate(lines):
        if index:
            print()
        if args.json:
            print(json.dumps(line, sort_keys=True))
        else:
            print(manifest_mod.render_manifest(line))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analyser; exit 0 clean / 1 on new findings."""
    from .analysis import all_rules, lint_paths
    from .analysis import report as report_mod
    from .analysis.engine import LintResult

    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            print(f"{rule_id}  [{rule.family}] {rule.title}")
        return 0
    select = _parse_ids(args.select)
    try:
        flow = _BaselineFlow(args, "lint",
                             "--select" if select is not None else None)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        result = lint_paths(args.paths, select=select)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if flow.update:
        return flow.write(result.findings)
    new, old = flow.split(result.findings)
    baselined = len(old)
    result = LintResult(findings=new, files_scanned=result.files_scanned,
                        suppressed=result.suppressed)
    if args.lint_format == "json":
        print(report_mod.render_json(result, baselined=baselined))
    elif args.lint_format == "sarif":
        print(report_mod.render_sarif(result))
    else:
        print(report_mod.render_text(result, baselined=baselined))
    return 0 if result.ok else 1


def _cmd_list() -> int:
    print("apps:")
    for name in app_names():
        print(f"  {name}")
    print("operators:")
    for name in PROFILES:
        print(f"  {name}")
    print("experiments:")
    for name in sorted(_EXPERIMENTS) + ["ablation"]:
        print(f"  {name}")
    return 0


def _manifest_params(args: argparse.Namespace,
                     fault_plan=None) -> dict:
    """The run parameters recorded in a manifest line.

    A fault plan is recorded as its full document plus its fingerprint,
    so a manifest line is enough to re-derive the exact faulted dataset
    (the trace cache holds clean captures; the plan is applied after).
    """
    skip = {"command", "obs_out", "faults"}
    params = {key: value for key, value in sorted(vars(args).items())
              if key not in skip and value is not None}
    if fault_plan is not None:
        params["faults"] = fault_plan.as_dict()
        params["faults_fingerprint"] = fault_plan.fingerprint()
    return params


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .obs.manifest import run_scope

    args = _build_parser().parse_args(argv)
    if args.command in ("collect", "train", "experiment", "serve",
                        "scan"):
        try:
            fault_plan = _load_fault_plan(args)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        with _runtime_overrides(args, fault_plan), run_scope(
                args.command, _manifest_params(args, fault_plan),
                out=args.obs_out) as manifest:
            if args.command == "collect":
                return _cmd_collect(args, manifest)
            if args.command == "train":
                return _cmd_train(args, manifest)
            if args.command == "experiment":
                return _cmd_experiment(args, manifest)
            if args.command == "serve":
                return _cmd_serve(args, manifest)
            return _cmd_scan(args, manifest)
    if args.command == "classify":
        return _cmd_classify(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "list":
        return _cmd_list()
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
