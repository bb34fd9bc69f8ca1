"""The benchmark's three workloads: ``campaign``, ``serve``, ``correlate``.

Each workload is an object built from a seed.  :meth:`setup` turns the
seed into the program's inputs (and does any training the workload
treats as set-up); :meth:`pass_steps` lists the steps of one timed pass
(the runner samples the host's speed between steps, so a long pass is
cut into a few); :meth:`summarize`
reads the pass's outputs back (untimed); :meth:`verdict_round` times the
single calls that each produce one verdict; :meth:`check` holds the
outputs to quality floors and to a second, independent computation.

Every pass of one workload on one seed must produce the same outputs,
so the runner digests each pass and compares the digests.

* ``campaign`` — batch attacks I + II under the T-Mobile profile:
  labelled captures for all nine apps, windows, hierarchical forest
  fit, classification of held-out captures, then the 12-visit history
  attack over three zones (handover + IMSI catcher).
* ``serve`` — a sharded city simulation and a small trained model are
  set-up; the timed pass replays the city feeds through
  ``StreamService.run`` in 256-record chunks, driven by one closed-loop
  client (the next chunk goes in only after the previous returned).
* ``correlate`` — conversation pairs are set-up; the timed pass fits
  the correlation attack, scores the all-pairs similarity matrix and
  takes logistic verdicts on the top-scoring shortlist.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.apps import app_names, category_of
from repro.core.correlation import CorrelationAttack, similarity_matrix
from repro.core.dataset import (PairSpec, collect_pairs, collect_traces,
                                windows_from_traces)
from repro.core.features import N_FEATURES
from repro.core.fingerprint import HierarchicalFingerprinter
from repro.core.history import (HistoryAttack, evaluate_findings,
                                segment_episodes)
from repro.experiments.common import Scale
from repro.experiments.table5_history import build_visits
from repro.experiments.table6_similarity import conversational_apps
from repro.lte.city import CityScenario, run_city
from repro.ml.base import LabelEncoder
from repro.ml.metrics import per_class_scores
from repro.operators.profiles import LAB, TMOBILE
from repro.scan.adapters import profile_findings
from repro.sniffer.trace import Trace
from repro.stream.online import OnlineClassifier
from repro.stream.service import StreamService, interleave_chunks

#: Records per chunk fed to the stream plane (one closed-loop request).
CHUNK_RECORDS = 256

#: History script: gap between visits, and the gap that splits episodes.
VISIT_GAP_S = 20.0
EPISODE_GAP_S = 10.0

#: The city runs two epochs of one second.  Offered load is well above
#: a 50-PRB cell's capacity: every cell is saturated, so record density
#: hardly depends on the seed.
CITY_EPOCHS = 2
CITY_EPOCH_S = 1.0
CITY_REQUEST_BYTES = 400_000
CITY_REQUEST_RATE_HZ = 4.0


@dataclass(frozen=True)
class PassResult:
    """What one timed pass did, read back after the timer stopped."""

    records: int        # DCI records the pass processed
    ops: int            # operations attempted in the pass
    canonical: str      # canonical text of the pass's outputs


def _verdict_text(verdict) -> Optional[list]:
    if verdict is None:
        return None
    return [verdict.app, verdict.category, repr(verdict.confidence),
            verdict.window_count]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- campaign -----------------------------------------------------------------


@dataclass(frozen=True)
class CampaignSize:
    train_per_app: int = 2
    capture_s: float = 5.0
    n_trees: int = 16
    visit_s: float = 6.0
    verdict_repeats: int = 10
    #: Quality floors checked on every run (window macro-F, history).
    min_macro_f: float = 0.35
    min_history_success: float = 0.25


class Campaign:
    """Batch attacks I + II: captures → forest → history timeline."""

    name = "campaign"

    def __init__(self, seed: int, size: CampaignSize = CampaignSize()):
        self.seed = seed
        self.size = size
        self.setup_simulations = 0
        self.pass_simulations = len(app_names()) * (size.train_per_app + 1)

    def setup(self) -> dict:
        base = 11 + 7919 * self.seed
        self.apps = list(app_names())
        self.train_seed, self.test_seed = base, base + 5000
        self.model_seed, self.history_seed = base + 1, base + 2
        scale = Scale(name="bench", traces_per_app=self.size.train_per_app,
                      trace_duration_s=self.size.capture_s,
                      n_trees=self.size.n_trees, pairs_per_app=1,
                      history_visit_s=self.size.visit_s, drift_test_days=1)
        self.visits = build_visits(scale, gap_s=VISIT_GAP_S)
        self.app_encoder = LabelEncoder().fit(self.apps)
        self.category_encoder = LabelEncoder().fit(
            [category_of(app).value for app in self.apps])
        return {}

    def pass_steps(self):
        return [self._collect_train, self._collect_test, self._fingerprint,
                self._history]

    def _collect_train(self) -> None:
        self.train = collect_traces(
            self.apps, operator=TMOBILE,
            traces_per_app=self.size.train_per_app,
            duration_s=self.size.capture_s, seed=self.train_seed)

    def _collect_test(self) -> None:
        self.test = collect_traces(
            self.apps, operator=TMOBILE, traces_per_app=1,
            duration_s=self.size.capture_s, seed=self.test_seed)

    def _fingerprint(self) -> None:
        # Encoders cover every app, so a capture too short to hold one
        # window cannot drop its app from the label space.
        self.windows = windows_from_traces(
            self.train, app_encoder=self.app_encoder,
            category_encoder=self.category_encoder)
        self.model = HierarchicalFingerprinter(
            n_trees=self.size.n_trees, seed=self.model_seed).fit(self.windows)
        self.verdicts = self.model.classify_traces(list(self.test))

    def _history(self) -> None:
        self.attack = HistoryAttack(self.model, operator=TMOBILE,
                                    episode_gap_s=EPISODE_GAP_S)
        self.findings = self.attack.run(self.visits, seed=self.history_seed)
        self.summary = evaluate_findings(self.findings, self.visits)

    def summarize(self) -> PassResult:
        captures = list(self.train) + list(self.test)
        records = (sum(len(trace) for trace in captures)
                   + sum(sniffer.total_records
                         for sniffer in self.attack.sniffers.values()))
        self.episodes = [
            episode
            for sniffer in self.attack.sniffers.values()
            for episode in segment_episodes(
                sniffer.trace_for_tmsi(self.attack.victim_tmsi),
                min_gap_s=EPISODE_GAP_S)]
        canonical = json.dumps({
            "verdicts": [_verdict_text(v) for v in self.verdicts],
            "timeline": [[f.zone, repr(f.start_s), repr(f.end_s),
                          f.predicted_app, f.predicted_category,
                          repr(f.confidence), f.true_app, f.correct]
                         for f in self.findings],
            "summary": self.summary}, sort_keys=True)
        return PassResult(records=records,
                          ops=len(captures) + len(self.visits),
                          canonical=canonical)

    def verdict_round(self) -> Tuple[List[float], str]:
        """Single-trace verdicts: one capture or history episode per call."""
        inputs = list(self.test) + self.episodes + list(self.train)
        latencies: List[float] = []
        verdicts = []
        for _ in range(self.size.verdict_repeats):
            verdicts = []
            for trace in inputs:
                start = time.perf_counter()
                verdict = self.model.classify_trace(trace)
                latencies.append(time.perf_counter() - start)
                verdicts.append(verdict)
        self.single_verdicts = verdicts
        return latencies, json.dumps([_verdict_text(v) for v in verdicts])

    def check(self) -> List[str]:
        errors: List[str] = []
        test_windows = windows_from_traces(
            self.test, app_encoder=self.windows.app_encoder,
            category_encoder=self.windows.category_encoder)
        scores = per_class_scores(
            test_windows.app_labels,
            self.model.predict_apps(test_windows.X),
            n_classes=self.windows.app_encoder.n_classes)
        macro_f = float(np.mean([score.f_score for score in scores]))
        self.quality = {"macro_f": macro_f,
                        "history_success": self.summary["success_rate"]}
        if macro_f < self.size.min_macro_f:
            errors.append(f"macro-F {macro_f:.3f} below floor "
                          f"{self.size.min_macro_f}")
        if self.summary["success_rate"] < self.size.min_history_success:
            errors.append(f"history success {self.summary['success_rate']:.3f}"
                          f" below floor {self.size.min_history_success}")
        single = self.single_verdicts[:len(self.verdicts)]
        if ([_verdict_text(v) for v in single]
                != [_verdict_text(v) for v in self.verdicts]):
            errors.append("classify_traces disagrees with classify_trace")
        return errors


# -- serve --------------------------------------------------------------------


@dataclass(frozen=True)
class ServeSize:
    n_cells: int = 8
    ues_per_cell: int = 4
    shards: int = 4
    model_traces_per_app: int = 2
    model_capture_s: float = 4.0
    n_trees: int = 16
    #: Each city feed is replayed this many times, back to back.
    replays: int = 20


def replayed(trace: Trace, replays: int, period_s: float) -> Trace:
    """``trace`` repeated ``replays`` times, each copy ``period_s`` later."""
    count = len(trace)
    shifts = np.repeat(np.arange(replays, dtype=np.float64) * period_s, count)
    return Trace.from_arrays(
        np.tile(trace.times_s, replays) + shifts,
        np.tile(trace.rntis, replays), np.tile(trace.directions, replays),
        np.tile(trace.tbs_bytes, replays), validate=False, cell=trace.cell,
        user=trace.user)


class Serve:
    """Online attack service draining replayed city feeds."""

    name = "serve"

    def __init__(self, seed: int, size: ServeSize = ServeSize()):
        self.seed = seed
        self.size = size
        self.setup_simulations = len(app_names()) * size.model_traces_per_app
        self.pass_simulations = 0

    def setup(self) -> dict:
        size = self.size
        scenario = CityScenario(n_cells=size.n_cells,
                                ues_per_cell=size.ues_per_cell,
                                epochs=CITY_EPOCHS, epoch_s=CITY_EPOCH_S,
                                mean_request_bytes=CITY_REQUEST_BYTES,
                                request_rate_hz=CITY_REQUEST_RATE_HZ,
                                seed=7 + 7919 * self.seed)
        city = run_city(scenario, shards=size.shards)
        train = collect_traces(list(app_names()), operator=LAB,
                               traces_per_app=size.model_traces_per_app,
                               duration_s=size.model_capture_s,
                               seed=23 + 7919 * self.seed)
        self.model = HierarchicalFingerprinter(
            n_trees=size.n_trees, seed=24 + 7919 * self.seed).fit(
                windows_from_traces(train))
        # Compile the forests' node tables now, not in the first chunk.
        self.model.predict_apps(np.zeros((1, N_FEATURES)))
        period_s = CITY_EPOCHS * CITY_EPOCH_S + 1.0
        self.feeds = [(cell, replayed(trace, size.replays, period_s))
                      for cell, trace in sorted(city.traces.items())
                      if len(trace)]
        self.chunks = list(interleave_chunks(
            [trace for _, trace in self.feeds], CHUNK_RECORDS))
        return {"runtime.spill_bytes": city.spilled_bytes}

    def pass_steps(self):
        return [self._drain]

    def _drain(self) -> None:
        self.report = StreamService(self.model, self.feeds,
                                    chunk_records=CHUNK_RECORDS).run()

    def summarize(self) -> PassResult:
        report = self.report
        canonical = json.dumps({
            "records": report.records, "windows": report.windows,
            "lag_p99_s": repr(report.lag_p99_s),
            "trace_verdicts": {name: _verdict_text(verdict) for name, verdict
                               in report.trace_verdicts.items()},
            "findings": [finding.as_dict() for finding in report.findings],
        }, sort_keys=True)
        return PassResult(records=report.records, ops=len(self.chunks),
                          canonical=canonical)

    def verdict_round(self) -> Tuple[List[float], str]:
        """Per-chunk ingest; window-closing calls are the latency samples."""
        classifier = OnlineClassifier(self.model)
        names = [name for name, _ in self.feeds]
        latencies: List[float] = []
        digest = hashlib.sha256()
        calls = [(names[index], chunk) for index, chunk in self.chunks]
        calls += [(name, None) for name in names]
        for name, chunk in calls:
            start = time.perf_counter()
            if chunk is None:
                verdicts = classifier.finish(name)
            else:
                verdicts = classifier.ingest(name, *chunk)
            elapsed = time.perf_counter() - start
            if verdicts:
                latencies.append(elapsed)
                for verdict in verdicts:
                    digest.update(repr((verdict.source, verdict.index,
                                        verdict.win_start_s, verdict.app_id,
                                        verdict.lag_s)).encode())
        self.online_verdicts = {name: classifier.trace_verdict(name)
                                for name in names}
        return latencies, digest.hexdigest()

    def check(self) -> List[str]:
        errors: List[str] = []
        names = [name for name, _ in self.feeds]
        batch = self.model.classify_traces([trace for _, trace in self.feeds])
        for name, verdict in zip(names, batch):
            streamed = self.report.trace_verdicts.get(name)
            if _verdict_text(streamed) != _verdict_text(verdict):
                errors.append(f"{name}: streamed verdict {streamed} != "
                              f"batch verdict {verdict}")
            online = self.online_verdicts.get(name)
            if _verdict_text(online) != _verdict_text(verdict):
                errors.append(f"{name}: per-chunk verdict {online} != "
                              f"batch verdict {verdict}")
        streamed = sorted(f.fingerprint() for f in self.report.findings)
        batched = sorted(f.fingerprint()
                         for f in profile_findings(self.model, self.feeds))
        if not streamed or streamed != batched:
            errors.append("streamed findings differ from batch findings")
        return errors


# -- correlate ----------------------------------------------------------------


@dataclass(frozen=True)
class CorrelateSize:
    #: Genuine conversations per app; each brings two unrelated ones.
    pairs_per_app: int = 2
    capture_s: float = 40.0
    shortlist: int = 32
    sample_cells: int = 16


class Correlate:
    """Correlation attack: fit, all-pairs matrix, shortlist verdicts."""

    name = "correlate"

    def __init__(self, seed: int, size: CorrelateSize = CorrelateSize()):
        self.seed = seed
        self.size = size
        self.setup_simulations = (3 * len(conversational_apps())
                                  * size.pairs_per_app)
        self.pass_simulations = 0

    def setup(self) -> dict:
        base = 53 + 7919 * self.seed
        specs: List[PairSpec] = []
        for app_index, (app, kind) in enumerate(conversational_apps()):
            for pair in range(self.size.pairs_per_app):
                for offset in (0, 1000, 2000):
                    specs.append(PairSpec(
                        app_name=app, kind=kind, operator=LAB,
                        duration_s=self.size.capture_s,
                        seed=base + 331 * app_index + 17 * pair + offset))
        collected = collect_pairs(specs)
        # Negatives are users who each hold a real conversation on the
        # same app, with somebody else (the hard kind, as in Table VII).
        self.positives = [collected[i] for i in range(0, len(collected), 3)]
        self.negatives = [(collected[i + 1][0], collected[i + 2][0])
                          for i in range(0, len(collected), 3)]
        self.legs = [leg for pair in collected for leg in pair]
        self.attack_seed = base
        return {}

    def pass_steps(self):
        return [self._correlate]

    def _correlate(self) -> None:
        self.attack = CorrelationAttack(seed=self.attack_seed).fit(
            self.positives, self.negatives)
        self.matrix = similarity_matrix(self.legs)
        rows, cols = np.triu_indices(len(self.legs), k=1)
        order = np.argsort(-self.matrix[rows, cols],
                           kind="stable")[:self.size.shortlist]
        self.shortlist = [(int(rows[k]), int(cols[k])) for k in order]
        self.decisions = self.attack.decision_scores(
            [(self.legs[i], self.legs[j]) for i, j in self.shortlist])

    def summarize(self) -> PassResult:
        canonical = json.dumps({
            "matrix": _digest(self.matrix.tobytes().hex()),
            "shortlist": self.shortlist,
            "decisions": [repr(float(v)) for v in self.decisions]})
        return PassResult(
            records=sum(len(leg) for leg in self.legs),
            ops=len(self.positives) + len(self.negatives)
            + len(self.shortlist), canonical=canonical)

    def verdict_round(self) -> Tuple[List[float], str]:
        """One logistic verdict per shortlisted pair."""
        latencies: List[float] = []
        scores = []
        for i, j in self.shortlist:
            start = time.perf_counter()
            score = self.attack.decision_scores([(self.legs[i],
                                                  self.legs[j])])
            latencies.append(time.perf_counter() - start)
            scores.append(repr(float(score[0])))
        return latencies, json.dumps(scores)

    def check(self) -> List[str]:
        errors: List[str] = []
        rng = np.random.default_rng(self.seed)
        n = len(self.legs)
        reference = CorrelationAttack()
        for _ in range(self.size.sample_cells):
            i, j = sorted(int(v) for v in rng.integers(0, n, size=2))
            scalar = reference.similarity(self.legs[i], self.legs[j])
            if self.matrix[i, j] != scalar:
                errors.append(f"matrix cell ({i}, {j}) = "
                              f"{self.matrix[i, j]!r} != scalar {scalar!r}")
        positive = float(np.mean(self.attack.decision_scores(self.positives)))
        negative = float(np.mean(self.attack.decision_scores(self.negatives)))
        self.quality = {"positive_score": positive,
                        "negative_score": negative}
        if positive <= negative:
            errors.append(f"positives score {positive:.3f} <= negatives "
                          f"{negative:.3f}")
        return errors


WORKLOADS = {cls.name: cls for cls in (Campaign, Serve, Correlate)}


def make(name: str, seed: int, size=None):
    """A workload by name, at the benchmark size unless ``size`` is given."""
    cls = WORKLOADS[name]
    return cls(seed) if size is None else cls(seed, size)
