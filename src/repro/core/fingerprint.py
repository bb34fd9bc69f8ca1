"""Attack I: mobile-app fingerprinting via hierarchical classification.

The paper "first identif[ies] the class of the application and then
identif[ies] individual apps subsequently" (§III-E ❹) with Random
Forest (§VI).  :class:`HierarchicalFingerprinter` implements that:

* **stage 1** — a category forest (streaming / messaging / VoIP) over
  the per-window features;
* **stage 2** — one per-category forest that separates the three apps
  inside each class;
* **trace verdicts** — per-window predictions are majority-voted into
  a per-trace verdict with a confidence score, which is what the
  history attack consumes.

A flat 9-way mode is included for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..ml.forest import RandomForest, predict_proba_joint
from ..sniffer.trace import Trace
from .dataset import LabeledWindows
from .features import WindowConfig, extract_features


@dataclass(frozen=True)
class TraceVerdict:
    """The fingerprinting verdict for one captured trace."""

    app: str                   # predicted app name
    category: str              # predicted category name
    confidence: float          # fraction of windows voting for the app
    window_count: int          # windows the verdict is based on

    def __str__(self) -> str:
        return (f"{self.app} [{self.category}] "
                f"({self.confidence:.0%} of {self.window_count} windows)")


class HierarchicalFingerprinter:
    """Category-then-app Random Forest pipeline."""

    def __init__(self, window_config: Optional[WindowConfig] = None,
                 n_trees: int = 40, max_depth: Optional[int] = 14,
                 min_samples_leaf: int = 2, seed: int = 1,
                 hierarchical: bool = True) -> None:
        self.window_config = window_config or WindowConfig()
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.hierarchical = hierarchical
        self._category_model: Optional[RandomForest] = None
        self._app_models: Dict[int, RandomForest] = {}
        self._flat_model: Optional[RandomForest] = None
        self._windows: Optional[LabeledWindows] = None

    def _make_forest(self, seed_offset: int) -> RandomForest:
        return RandomForest(n_trees=self.n_trees, max_depth=self.max_depth,
                            min_samples_leaf=self.min_samples_leaf,
                            seed=self.seed + seed_offset)

    # -- training ---------------------------------------------------------------

    def fit(self, windows: LabeledWindows) -> "HierarchicalFingerprinter":
        """Train on a labelled window dataset."""
        with obs.span("fingerprint.fit"):
            self._windows = windows
            if not self.hierarchical:
                self._flat_model = self._make_forest(0)
                self._flat_model.fit(windows.X, windows.app_labels)
                return self
            self._category_model = self._make_forest(0)
            self._category_model.fit(
                windows.X, windows.category_labels,
                n_classes=windows.category_encoder.n_classes)
            self._app_models = {}
            for category_id in range(windows.category_encoder.n_classes):
                mask = windows.category_labels == category_id
                if not mask.any():
                    continue
                model = self._make_forest(1 + category_id)
                model.fit(windows.X[mask], windows.app_labels[mask],
                          n_classes=windows.app_encoder.n_classes)
                self._app_models[category_id] = model
        return self

    @property
    def is_fitted(self) -> bool:
        return self._flat_model is not None or self._category_model is not None

    def _require_fit(self) -> LabeledWindows:
        if self._windows is None or not self.is_fitted:
            raise RuntimeError("fingerprinter is not fitted")
        return self._windows

    # -- window-level prediction ----------------------------------------------------

    def predict_categories(self, X: np.ndarray) -> np.ndarray:
        """Stage-1 category ids per window."""
        windows = self._require_fit()
        if not self.hierarchical:
            apps = self._flat_model.predict(X)
            return windows.app_of_category[apps]
        return self._category_model.predict(X)

    def predict_apps(self, X: np.ndarray) -> np.ndarray:
        """Final app ids per window (stage 1 + stage 2).

        Routing is *soft*: the app posterior marginalises over the
        stage-1 category posterior, ``P(app) = Σ_c P(c) · P(app | c)``,
        so a near-tie at the category stage cannot hard-fail an entire
        window the way argmax routing would.  All forests descend
        together (:func:`predict_proba_joint`).
        """
        windows = self._require_fit()
        with obs.span("fingerprint.predict"):
            if not self.hierarchical:
                return self._flat_model.predict(X)
            category_proba, *app_probas = predict_proba_joint(
                [self._category_model, *self._app_models.values()], X)
            scores = np.zeros((len(X), windows.app_encoder.n_classes))
            for category_id, app_proba in zip(self._app_models,
                                              app_probas):
                scores += (category_proba[:, category_id:category_id + 1]
                           * app_proba)
            return np.argmax(scores, axis=1)

    # -- trace-level verdicts ----------------------------------------------------------

    def _verdict_from_votes(self, app_votes: np.ndarray) -> TraceVerdict:
        """Majority-vote one trace's per-window app ids into a verdict."""
        windows = self._require_fit()
        counts = np.bincount(app_votes,
                             minlength=windows.app_encoder.n_classes)
        app_id = int(np.argmax(counts))
        app_name = windows.app_encoder.classes_[app_id]
        category_id = int(windows.app_of_category[app_id])
        category = windows.category_encoder.classes_[category_id]
        return TraceVerdict(app=app_name, category=category,
                            confidence=float(counts[app_id]
                                             / len(app_votes)),
                            window_count=len(app_votes))

    def classify_trace(self, trace: Trace) -> Optional[TraceVerdict]:
        """Fingerprint one captured trace; ``None`` if it has no windows."""
        self._require_fit()
        X = extract_features(trace, self.window_config)
        if len(X) == 0:
            return None
        return self._verdict_from_votes(self.predict_apps(X))

    def classify_traces(self, traces) -> List[Optional[TraceVerdict]]:
        """Fingerprint a collection of traces with one batched predict.

        All traces' windows are stacked into a single feature matrix
        and classified in one forest descent, then the votes are split
        back per trace — per-window predictions are row-independent,
        so every verdict is identical to ``classify_trace`` called
        trace by trace, at a fraction of the prediction cost.
        """
        self._require_fit()
        features = [extract_features(trace, self.window_config)
                    for trace in traces]
        window_counts = [len(X) for X in features]
        stacked = [X for X in features if len(X)]
        if not stacked:
            return [None] * len(features)
        votes = self.predict_apps(np.concatenate(stacked, axis=0))
        verdicts: List[Optional[TraceVerdict]] = []
        cursor = 0
        for count in window_counts:
            if count == 0:
                verdicts.append(None)
                continue
            verdicts.append(
                self._verdict_from_votes(votes[cursor:cursor + count]))
            cursor += count
        return verdicts


def save_fingerprinter(model: HierarchicalFingerprinter, path) -> None:
    """Persist a fitted fingerprinting pipeline to one JSON file.

    The paper releases its trained model alongside the dataset; this is
    the equivalent artefact: stage-1/stage-2 forests, label encoders,
    and windowing configuration, all in plain JSON.
    """
    import json
    from pathlib import Path

    from ..ml.persistence import forest_to_dict

    windows = model._require_fit()
    if not model.hierarchical:
        raise ValueError("only hierarchical pipelines are persisted")
    payload = {
        "kind": "hierarchical-fingerprinter",
        "window_ms": model.window_config.window_ms,
        "stride_ms": model.window_config.stride_ms,
        "direction": (int(model.window_config.direction)
                      if model.window_config.direction is not None
                      else None),
        "apps": windows.app_encoder.classes_,
        "categories": windows.category_encoder.classes_,
        "app_of_category": [int(v) for v in windows.app_of_category],
        "category_model": forest_to_dict(model._category_model),
        "app_models": {str(k): forest_to_dict(v)
                       for k, v in model._app_models.items()},
    }
    Path(path).write_text(json.dumps(payload))


#: Header keys of a saved fingerprinter: the JSON types each admits
#: (booleans never) and how an error names them.
_HEADER = {
    "direction": ((int, type(None)), "an integer or null"),
    "window_ms": ((int, float), "a number"),
    "stride_ms": ((int, float, type(None)), "a number or null"),
    "apps": (list, "a list of strings"),
    "categories": (list, "a list of strings"),
    "category_model": (dict, "an object"),
    "app_models": (dict, "an object"),
}


def load_fingerprinter(path) -> HierarchicalFingerprinter:
    """Load a pipeline saved by :func:`save_fingerprinter`."""
    import json
    from pathlib import Path

    import numpy as np

    from ..lte.dci import Direction
    from ..ml.base import LabelEncoder
    from ..ml.persistence import forest_from_dict
    from .dataset import LabeledWindows

    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) \
            or payload.get("kind") != "hierarchical-fingerprinter":
        raise ValueError("not a serialised fingerprinter")
    for key, (kinds, what) in _HEADER.items():
        if key not in payload:
            raise ValueError(f"fingerprinter header lacks {key!r}")
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, kinds) or (
                isinstance(value, list)
                and not all(isinstance(item, str) for item in value)):
            raise ValueError(f"fingerprinter header {key!r} must be "
                             f"{what}, got {value!r:.60}")
    direction = (Direction(payload["direction"])
                 if payload["direction"] is not None else None)
    model = HierarchicalFingerprinter(
        window_config=WindowConfig(window_ms=payload["window_ms"],
                                   stride_ms=payload["stride_ms"],
                                   direction=direction))
    app_encoder = LabelEncoder().fit(payload["apps"])
    category_encoder = LabelEncoder().fit(payload["categories"])
    # A stub LabeledWindows carries the encoders; feature matrices are
    # not needed for inference.
    model._windows = LabeledWindows(
        X=np.empty((0, 0)), app_labels=np.empty(0, dtype=np.int64),
        category_labels=np.empty(0, dtype=np.int64),
        trace_ids=np.empty(0, dtype=np.int64),
        app_encoder=app_encoder, category_encoder=category_encoder)
    model._category_model = forest_from_dict(payload["category_model"])
    model._app_models = {int(k): forest_from_dict(v)
                         for k, v in payload["app_models"].items()}
    return model
