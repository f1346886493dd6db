"""Ridge-regularized logistic regression trained with damped Newton steps.

Training is fully deterministic: zero initialization, no sampling, and a
step-halving line search on the penalized negative log-likelihood. The tiny
default ridge keeps the normal equations solvable on separable or collinear
inputs without noticeably biasing the fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

_GRADIENT_FLOOR = 1e-10
_MAX_HALVINGS = 60
_PROB_FLOOR = 1e-12


class DegenerateTrainingError(ValueError):
    """Training data admits no two-class fit (e.g. one class only)."""


@dataclass(frozen=True)
class LearnerParams:
    """Ridge, stopping rule and decision threshold of the logistic learner."""

    ridge: float = 1e-8
    max_iterations: int = 200
    tolerance: float = 1e-8
    decision_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError("ridge must be finite and non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError("decision_threshold must lie strictly between 0 and 1")


@dataclass(frozen=True)
class TrainingMeta:
    """How a fit ended: Newton steps taken, final log-likelihood, convergence."""

    iterations: int
    final_log_likelihood: float
    converged: bool
    objective_history: tuple[float, ...]


@dataclass(frozen=True)
class Model:
    """A fitted logistic model: one weight per feature plus an intercept."""

    weights: np.ndarray
    intercept: float
    feature_names: tuple[str, ...]
    params: LearnerParams
    meta: TrainingMeta

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.shape[0] != len(self.feature_names):
            raise ValueError("one weight per feature name is required")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _expit(eta: float | np.ndarray) -> float | np.ndarray:
    """The logistic function ``1/(1 + exp(-eta))``, elementwise.

    The exponential is the C library's, taken through :func:`math.exp`, so
    every value equals ``scipy.special.expit`` bit for bit; numpy's own
    vectorized ``exp`` rounds differently in the last bit for some inputs,
    which would move fitted weights. ``exp`` overflow gives 0.
    """
    arr = np.asarray(eta, dtype=float)
    negated = (-arr).ravel().tolist()
    try:
        exps = np.fromiter(map(math.exp, negated), float, len(negated))
    except OverflowError:
        exps = np.fromiter(map(_exp_or_inf, negated), float, len(negated))
    # ``[()]`` makes a 0-d result a numpy scalar, as scipy returns it.
    return (1.0 / (1.0 + exps.reshape(arr.shape)))[()]


def _objective_at(
    eta: np.ndarray, w: np.ndarray, y: np.ndarray, ridge: float, mask: np.ndarray
) -> tuple[float, float]:
    """The penalized objective given the linear predictor ``eta = design @ w``."""
    # log(1 + e^eta) via logaddexp stays finite for large |eta|
    log_lik = float(y @ eta - np.logaddexp(0.0, eta).sum())
    penalty = 0.5 * ridge * float(((mask * w) ** 2).sum())
    return -log_lik + penalty, log_lik


def _gradient_at(
    prob: np.ndarray, w: np.ndarray, design: np.ndarray, y: np.ndarray, ridges: np.ndarray
) -> np.ndarray:
    """The penalized gradient given the fitted probabilities ``_expit(design @ w)``
    and each parameter's ridge, zero for the intercept."""
    return design.T @ (prob - y) + ridges * w


def _solve_newton(hessian: np.ndarray, gradient: np.ndarray, identity: np.ndarray) -> np.ndarray:
    jitter = 0.0
    for _ in range(8):
        try:
            return np.linalg.solve(hessian + jitter * identity, gradient)
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
    raise DegenerateTrainingError("degenerate training set: singular normal equations")


def train(
    matrix: np.ndarray,
    labels: np.ndarray,
    feature_names: Sequence[str],
    params: LearnerParams = LearnerParams(),
) -> Model:
    """Fit the model by minimizing -loglik + (ridge/2)*||weights||^2.

    The intercept is never penalized. Raises
    :class:`DegenerateTrainingError` when only one class is present.
    """
    X = np.asarray(matrix, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2:
        raise ValueError("training matrix must be two-dimensional")
    m, n = X.shape
    if y.shape != (m,):
        raise ValueError(f"label count {y.shape} does not match {m} training rows")
    if len(feature_names) != n:
        raise ValueError(f"{len(feature_names)} feature names for {n} columns")
    if not np.all(np.isfinite(X)):
        raise ValueError("training matrix contains non-finite values")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be binary")
    if np.all(y == y[0]):
        raise DegenerateTrainingError("degenerate training set: all labels belong to one class")

    X1 = np.hstack([np.ones((m, 1)), X])
    # Built once per fit: the penalty mask, the ridges and the Hessian's terms.
    mask = np.ones(n + 1)
    mask[0] = 0.0  # the intercept is never penalized
    ridges = params.ridge * mask
    ridge_diagonal = np.diag(ridges)
    identity = np.eye(n + 1)

    w = np.zeros(n + 1)
    eta = X1 @ w
    current, log_lik = _objective_at(eta, w, y, params.ridge, mask)
    history = [current]
    converged = False
    iterations = 0

    for _ in range(params.max_iterations):
        # ``eta`` is ``X1 @ w``: the accepted candidate's linear predictor.
        prob = _expit(eta)
        gradient = _gradient_at(prob, w, X1, y, ridges)
        if float(np.abs(gradient).max()) < _GRADIENT_FLOOR:
            converged = True
            break
        weight = prob * (1.0 - prob)
        hessian = (X1 * weight[:, None]).T @ X1 + ridge_diagonal
        direction = _solve_newton(hessian, gradient, identity)

        iterations += 1
        step = 1.0
        accepted = None
        for _ in range(_MAX_HALVINGS):
            candidate = w - step * direction
            candidate_eta = X1 @ candidate
            value, cand_log_lik = _objective_at(candidate_eta, candidate, y, params.ridge, mask)
            if value <= current:
                accepted = (candidate, candidate_eta, value, cand_log_lik)
                break
            step *= 0.5
        if accepted is None:
            # No descent representable at machine precision; stop here.
            break
        w, eta, value, log_lik = accepted
        history.append(value)
        improvement = current - value
        current = value
        if improvement < params.tolerance:
            converged = True
            break

    meta = TrainingMeta(
        iterations=iterations,
        final_log_likelihood=log_lik,
        converged=converged,
        objective_history=tuple(history),
    )
    return Model(
        weights=w[1:].copy(),
        intercept=float(w[0]),
        feature_names=tuple(feature_names),
        params=params,
        meta=meta,
    )


def predict_proba(model: Model, features: np.ndarray) -> float | np.ndarray:
    """Defect probability for one instance (1-D) or a matrix of instances.

    Outputs are clipped away from exact 0 and 1 so downstream log odds stay
    finite.
    """
    arr = np.asarray(features, dtype=float)
    n = len(model.feature_names)
    if arr.ndim == 1:
        if arr.shape[0] != n:
            raise ValueError(f"expected {n} feature values, got {arr.shape[0]}")
        eta = float(arr @ model.weights) + model.intercept
        return float(np.clip(_expit(eta), _PROB_FLOOR, 1.0 - _PROB_FLOOR))
    if arr.ndim == 2:
        if arr.shape[1] != n:
            raise ValueError(f"expected {n} feature columns, got {arr.shape[1]}")
        eta = arr @ model.weights + model.intercept
        return np.clip(_expit(eta), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    raise ValueError("features must be a vector or a matrix")


def apply_threshold(probabilities: float | np.ndarray, threshold: float) -> int | np.ndarray:
    """Predict 1 exactly when the probability reaches the decision threshold."""
    if np.isscalar(probabilities):
        return int(probabilities >= threshold)
    return (probabilities >= threshold).astype(np.int8)


def coefficient_magnitudes(model: Model) -> tuple[tuple[str, float], ...]:
    """(feature name, |weight|) pairs in the model's feature order."""
    return tuple((name, abs(float(w))) for name, w in zip(model.feature_names, model.weights))


def save_model(model: Model, path: str | Path) -> None:
    payload = {
        "weights": [float(w) for w in model.weights],
        "intercept": model.intercept,
        "feature_names": list(model.feature_names),
        "params": asdict(model.params),
        "meta": asdict(model.meta),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_model(path: str | Path) -> Model:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return Model(
        weights=np.array(payload["weights"], dtype=float),
        intercept=float(payload["intercept"]),
        feature_names=tuple(payload["feature_names"]),
        params=LearnerParams(**payload["params"]),
        meta=TrainingMeta(
            iterations=payload["meta"]["iterations"],
            final_log_likelihood=payload["meta"]["final_log_likelihood"],
            converged=payload["meta"]["converged"],
            objective_history=tuple(payload["meta"]["objective_history"]),
        ),
    )
