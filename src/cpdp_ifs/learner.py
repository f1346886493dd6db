"""Ridge-regularized logistic regression trained with damped Newton steps.

Training is fully deterministic: zero initialization, no sampling, and a
step-halving line search on the penalized negative log-likelihood. The tiny
default ridge keeps the normal equations solvable on separable or collinear
inputs without noticeably biasing the fit. Prediction takes a matrix, one
row per instance; one instance is a one-row matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from cpdp_ifs.config import LearnerParams
from cpdp_ifs.corpus import DataError

_GRADIENT_FLOOR = 1e-10
_MAX_HALVINGS = 60
_PROB_FLOOR = 1e-12


class TrainingMeta(NamedTuple):
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


def _expit(eta: np.ndarray) -> np.ndarray:
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
    return 1.0 / (1.0 + exps.reshape(arr.shape))


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
    raise DataError("degenerate training set: singular normal equations")


def train(
    matrix: np.ndarray,
    labels: np.ndarray,
    feature_names: Sequence[str],
    params: LearnerParams = LearnerParams(),
) -> Model:
    """Fit the model by minimizing -loglik + (ridge/2)*||weights||^2.

    The intercept is never penalized. Raises :class:`DataError` when only
    one class is present or the normal equations stay singular.
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
        raise DataError("training matrix contains non-finite values")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be binary")
    if np.all(y == y[0]):
        raise DataError("degenerate training set: all labels belong to one class")

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


def predict_proba(model: Model, features: np.ndarray) -> np.ndarray:
    """Defect probability of each row of a matrix of instances.

    Outputs are clipped away from exact 0 and 1 so downstream log odds stay
    finite.
    """
    arr = np.asarray(features, dtype=float)
    n = len(model.feature_names)
    if arr.ndim != 2:
        raise ValueError("features must be a matrix, one row per instance")
    if arr.shape[1] != n:
        raise ValueError(f"expected {n} feature columns, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise DataError("feature matrix contains non-finite values")
    eta = arr @ model.weights + model.intercept
    return np.clip(_expit(eta), _PROB_FLOOR, 1.0 - _PROB_FLOOR)


def apply_threshold(probabilities: np.ndarray, threshold: float) -> np.ndarray:
    """Predict 1 exactly when the probability reaches the decision threshold."""
    return (probabilities >= threshold).astype(np.int8)


def save_model(model: Model, path: str | Path) -> None:
    payload = {
        "weights": [float(w) for w in model.weights],
        "intercept": model.intercept,
        "feature_names": list(model.feature_names),
        "params": asdict(model.params),
        "meta": model.meta._asdict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
