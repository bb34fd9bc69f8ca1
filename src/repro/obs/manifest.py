"""JSONL run manifests: one line of provenance per experiment run.

A manifest line answers, months later, "what exactly produced this
table?": the command and its parameters, the code fingerprint (the
digest of every ``repro`` source file plus numpy that the trace cache
keys on), per-stage span wall times, and the final metric snapshot
(decoder/tracker/mapper/cache/parallel-map counters).  Lines are
appended, so one file accumulates a run history that ``repro report``
renders.

Schema (version 1) — one JSON object per line::

    {
      "schema": 1,
      "command":  "experiment",          # CLI command (or caller label)
      "params":   {...},                 # run parameters, JSON-safe
      "code_fingerprint": "<sha256>",    # repro source + numpy digest
      "started_unix": 1720000000.0,      # wall-clock start (epoch s)
      "wall_s":   12.34,                 # total run wall time
      "ok":       true,                  # false if the run raised
      "spans":    {name: {count, total_s, min_s, max_s}, ...},
      "metrics":  {"counters": {...}, "gauges": {...},
                   "histograms": {...}},
      "result":   {...}                  # optional final metric summary
    }
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Union

from . import enabled, registry

SCHEMA_VERSION = 1


class RunManifest:
    """Collects one run's provenance; :meth:`write` appends the line."""

    def __init__(self, command: str, params: Optional[dict] = None) -> None:
        self.command = command
        self.params = dict(params or {})
        # Provenance, not simulation state: a manifest records *when*
        # the run happened in the real world, which is the one place
        # wall clock is the right clock.
        self.started_unix = time.time()  # repro: noqa[DET001]
        self._t0 = time.perf_counter()
        self.result: Optional[dict] = None
        self.ok = True

    def set_result(self, result: dict) -> None:
        """Attach the run's final metric summary (e.g. mean F-score)."""
        self.result = dict(result)

    def as_dict(self) -> dict:
        from ..runtime import code_fingerprint

        snap = registry().snapshot()
        line = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "params": _json_safe(self.params),
            "code_fingerprint": code_fingerprint(),
            "started_unix": self.started_unix,
            "wall_s": time.perf_counter() - self._t0,
            "ok": self.ok,
            "spans": snap.pop("spans"),
            "metrics": snap,
        }
        if self.result is not None:
            line["result"] = _json_safe(self.result)
        return line

    def write(self, path: Union[str, Path]) -> dict:
        """Append this manifest as one JSONL line; returns the dict."""
        line = self.as_dict()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
        return line


def _json_safe(value):
    """Best-effort conversion to JSON-encodable structures."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@contextmanager
def run_scope(command: str, params: Optional[dict] = None,
              out: Optional[Union[str, Path]] = None
              ) -> Iterator[RunManifest]:
    """Scope one run: reset the registry, collect, append the manifest.

    The registry is reset on entry so the manifest describes *this*
    run, not the whole process; long-lived processes therefore get one
    clean line per scope.  When collection is disabled and ``out`` is
    ``None`` the scope is inert.  The manifest line is written even if
    the run raises (``ok: false``), so crashed runs leave evidence.
    """
    manifest = RunManifest(command, params)
    if enabled():
        registry().reset()
    try:
        yield manifest
    except BaseException:
        manifest.ok = False
        if out is not None:
            manifest.write(out)
        raise
    if out is not None:
        manifest.write(out)


def read_manifests(path: Union[str, Path]) -> List[dict]:
    """Parse a JSONL manifest file, skipping torn, blank and foreign
    lines (a JSON value that is not an object with a ``schema`` and a
    ``command``)."""
    out: List[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:
                continue
            if isinstance(line, dict) and "schema" in line \
                    and "command" in line:
                out.append(line)
    return out


def render_manifest(line: dict) -> str:
    """Human-readable rendering of one manifest line (CLI ``report``)."""
    from ..experiments.common import format_table

    parts: List[str] = []
    started = time.strftime("%Y-%m-%d %H:%M:%S",
                            time.localtime(line.get("started_unix", 0)))
    params = line.get("params", {})
    param_text = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    parts.append(f"run: {line.get('command', '?')}"
                 f"{(' (' + param_text + ')') if param_text else ''}")
    parts.append(f"  started:     {started}")
    parts.append(f"  wall time:   {line.get('wall_s', 0.0):.3f} s")
    parts.append(f"  ok:          {line.get('ok', True)}")
    fingerprint = line.get("code_fingerprint", "")
    if fingerprint:
        parts.append(f"  fingerprint: {fingerprint[:16]}…")
    spans = line.get("spans", {})
    if spans:
        rows = [[name, stats.get("count", 0), stats.get("total_s", 0.0),
                 stats.get("min_s", 0.0), stats.get("max_s", 0.0)]
                for name, stats in sorted(spans.items())]
        parts.append("")
        parts.append(format_table(
            ["span", "count", "total_s", "min_s", "max_s"], rows))
    counters = line.get("metrics", {}).get("counters", {})
    if counters:
        parts.append("")
        parts.append(format_table(
            ["counter", "value"],
            [[name, value] for name, value in sorted(counters.items())]))
    gauges = line.get("metrics", {}).get("gauges", {})
    if gauges:
        parts.append("")
        parts.append(format_table(
            ["gauge", "value"],
            [[name, value] for name, value in sorted(gauges.items())]))
    result = line.get("result")
    if result:
        parts.append("")
        parts.append(format_table(
            ["result", "value"],
            [[name, value] for name, value in sorted(result.items())]))
    return "\n".join(parts)
