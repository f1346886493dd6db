"""The four cross-project prediction routes.

``cpdp_pure`` trains directly on a source with the same metric schema.
``ifs_min`` keeps only the metrics the two schemas share. ``ifs_our`` is
``ifs_min`` over the profiles: it lifts both projects into the 16-indicator
profile space, where the schemas always match, so the raw schemas may differ
arbitrarily. All three align the two projects with ``intersect_features``
and train through one path. ``mix`` fuses the pure and profile predictions
with a defective-if-either rule.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from cpdp_ifs.corpus import Project, intersect_features
from cpdp_ifs.learner import LearnerParams, Model, apply_threshold, predict_proba, train
from cpdp_ifs.preprocess import PreprocessConfig, preprocess_matrix
from cpdp_ifs.profiles import characterize_project
from cpdp_ifs.stats import ConfusionMatrix, prf


class Method(str, enum.Enum):
    CPDP_PURE = "cpdp_pure"
    IFS_OUR = "ifs_our"
    IFS_MIN = "ifs_min"
    MIX = "mix"


@dataclass(frozen=True)
class PredictionOutcome:
    """One source-to-target run: predictions, their confusion counts and the scores of those."""

    source_name: str
    target_name: str
    method: Method
    predicted: np.ndarray
    confusion: ConfusionMatrix
    model: Model | None = None
    precision: float = field(init=False)
    recall: float = field(init=False)
    f_measure: float = field(init=False)

    def __post_init__(self) -> None:
        predicted = np.asarray(self.predicted, dtype=np.int8)
        if not np.all((predicted == 0) | (predicted == 1)):
            raise ValueError("predictions must be binary")
        predicted.setflags(write=False)
        object.__setattr__(self, "predicted", predicted)
        for name, score in zip(("precision", "recall", "f_measure"), prf(self.confusion)):
            object.__setattr__(self, name, score)


class RunMemo:
    """One run's stage results that depend on one project alone, each
    computed once: later callers of a key wait for the first, also across
    threads. A ``ValueError`` is kept and raised again for every caller, so
    each pair still reports the first error of its own stages."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._slots: dict[Hashable, tuple[threading.Lock, list]] = {}

    def get(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        with self._lock:
            lock, result = self._slots.setdefault(key, (threading.Lock(), []))
        with lock:
            if not result:
                try:
                    result[:] = [compute(), None]
                except ValueError as exc:
                    result[:] = [None, exc]
        value, error = result
        if error is not None:
            raise error.with_traceback(None)
        return value


def _train_and_classify(
    method: Method,
    source: Project,
    target: Project,
    preprocessing: PreprocessConfig,
    params: LearnerParams,
    memo: RunMemo,
) -> PredictionOutcome:
    # Both sides are aligned on the canonical names they share, in the
    # source's order. Each side is transformed against its own column
    # statistics, so no scaling leaks between them. A project's matrix over
    # the same columns is prepared once, whichever side of a pair it is on.
    columns, source_cols, target_cols = intersect_features(source, target)

    def prepare(side: Project, cols: tuple[int, ...]) -> np.ndarray:
        # Every column in order is the matrix itself; a fancy index would copy it.
        matrix = side.matrix if cols == tuple(range(side.n_features)) else side.matrix[:, cols]
        return preprocess_matrix(matrix, preprocessing)

    source_ready, target_ready = (
        memo.get(("prepared", method, side.name, columns), lambda: prepare(side, cols))
        for side, cols in ((source, source_cols), (target, target_cols))
    )
    model = memo.get(
        ("model", method, source.name, columns),
        lambda: train(
            source_ready, source.labels,
            [source.schema.feature_names[i] for i in source_cols], params,
        ),
    )
    predicted = apply_threshold(predict_proba(model, target_ready), model.params.decision_threshold)
    return PredictionOutcome(
        source_name=source.name,
        target_name=target.name,
        method=method,
        predicted=predicted,
        confusion=ConfusionMatrix.from_predictions(target.labels, predicted),
        model=model,
    )


def _require_distinct(source: Project, target: Project) -> None:
    if source.name == target.name:
        raise ValueError("source and target must be distinct projects")


def run_cpdp_pure(
    source: Project,
    target: Project,
    preprocessing: PreprocessConfig = PreprocessConfig(),
    params: LearnerParams = LearnerParams(),
    memo: RunMemo | None = None,
) -> PredictionOutcome:
    """Train on the source metrics directly; schemas must match exactly.

    Target columns are aligned to the source's canonical feature order, so
    column layout in the files does not matter.
    """
    _require_distinct(source, target)
    if set(source.schema.canonical_names()) != set(target.schema.canonical_names()):
        raise ValueError("feature sets differ; use an IFS method")
    return _train_and_classify(
        Method.CPDP_PURE, source, target, preprocessing, params, memo or RunMemo()
    )


def run_ifs_min(
    source: Project,
    target: Project,
    preprocessing: PreprocessConfig = PreprocessConfig(),
    params: LearnerParams = LearnerParams(),
    memo: RunMemo | None = None,
) -> PredictionOutcome:
    """Restrict both projects to their shared metrics, then train directly."""
    _require_distinct(source, target)
    return _train_and_classify(
        Method.IFS_MIN, source, target, preprocessing, params, memo or RunMemo()
    )


def run_ifs_our(
    source: Project,
    target: Project,
    preprocessing: PreprocessConfig = PreprocessConfig(),
    params: LearnerParams = LearnerParams(),
    memo: RunMemo | None = None,
) -> PredictionOutcome:
    """Profile both projects into the 16 indicators, then train on those.

    The preprocessing config is applied to each project's raw metrics before
    profiling; the indicator columns are then normalized (never log
    filtered, since several indicators are signed) on the way into training.
    """
    _require_distinct(source, target)
    memo = memo or RunMemo()
    source, target = (
        memo.get(("profile", p.name, preprocessing), lambda: characterize_project(p, preprocessing))
        for p in (source, target)
    )
    indicator_config = PreprocessConfig(log_filter=False, normalize=preprocessing.normalize)
    return _train_and_classify(Method.IFS_OUR, source, target, indicator_config, params, memo)


def run_mix(
    pure_outcome: PredictionOutcome,
    profile_outcome: PredictionOutcome,
    target_labels: np.ndarray,
) -> PredictionOutcome:
    """Fuse a pure and a profile run: defective when either says defective.

    The two runs may come from different sources but must score the same
    target.
    """
    if pure_outcome.method is not Method.CPDP_PURE:
        raise ValueError("first argument must be a cpdp_pure outcome")
    if profile_outcome.method is not Method.IFS_OUR:
        raise ValueError("second argument must be an ifs_our outcome")
    if pure_outcome.target_name != profile_outcome.target_name:
        raise ValueError("mix requires outcomes for the same target")
    if pure_outcome.predicted.shape != profile_outcome.predicted.shape:
        raise ValueError("mix requires predictions over the same instances")
    labels = np.asarray(target_labels, dtype=np.int8)
    if labels.shape != pure_outcome.predicted.shape:
        raise ValueError("target labels must align with the predictions")

    fused = np.maximum(pure_outcome.predicted, profile_outcome.predicted)
    return PredictionOutcome(
        source_name=f"{pure_outcome.source_name}+{profile_outcome.source_name}",
        target_name=pure_outcome.target_name,
        method=Method.MIX,
        predicted=fused,
        confusion=ConfusionMatrix.from_predictions(labels, fused),
    )


@dataclass(frozen=True)
class PairPlan:
    """One source/target pair that a method will run."""

    source_name: str
    target_name: str
    method: Method


def enumerate_pairs(projects: Sequence[Project], method: Method) -> tuple[PairPlan, ...]:
    """All ordered source/target pairs a method applies to.

    Pure prediction pairs projects within one data set family (shared
    schema); the IFS methods pair projects across families. ``mix`` is not
    enumerable: it is derived from the pure and profile results per target.
    """
    names = [p.name for p in projects]
    if len(set(names)) != len(names):
        raise ValueError("project names must be unique")
    if method is Method.MIX:
        raise ValueError("mix pairs are derived from cpdp_pure and ifs_our results")

    plans = []
    for source in projects:
        for target in projects:
            if source.name == target.name:
                continue
            same_family = source.dataset_family == target.dataset_family
            if method is Method.CPDP_PURE and not same_family:
                continue
            if method in (Method.IFS_OUR, Method.IFS_MIN) and same_family:
                continue
            plans.append(PairPlan(source.name, target.name, method))
    return tuple(plans)
