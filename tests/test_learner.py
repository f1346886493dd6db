import math
import re

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cpdp_ifs import learner
from cpdp_ifs.learner import (
    DegenerateTrainingError,
    LearnerParams,
    Model,
    TrainingMeta,
    _expit,
    _gradient_at,
    _objective_at,
    apply_threshold,
    coefficient_magnitudes,
    load_model,
    predict_proba,
    save_model,
    train,
)

from oracles import _reference_mask, grid_logistic_oracle, reference_newton_fit


def objective(w, design, y, ridge):
    """(objective, log-likelihood) of -loglik + (ridge/2)*||weights||^2."""
    return _objective_at(design @ w, w, y, ridge, _reference_mask(w.size))


def gradient(w, design, y, ridge):
    return _gradient_at(_expit(design @ w), w, design, y, ridge * _reference_mask(w.size))


def identity_model(weights, intercept=0.0, **params):
    weights = np.asarray(weights, dtype=float)
    names = tuple(f"f{i}" for i in range(weights.size))
    meta = TrainingMeta(iterations=0, final_log_likelihood=0.0, converged=True,
                        objective_history=(0.0,))
    return Model(weights=weights, intercept=intercept, feature_names=names,
                 params=LearnerParams(**params), meta=meta)


class TestLearnerParams:
    def test_defaults(self):
        params = LearnerParams()
        assert params.ridge == 1e-8
        assert params.max_iterations == 200
        assert params.tolerance == 1e-8
        assert params.decision_threshold == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ridge": -1.0},
            {"max_iterations": 0},
            {"tolerance": 0.0},
            {"decision_threshold": 0.0},
            {"decision_threshold": 1.0},
            {"ridge": float("nan")},
            {"ridge": float("inf")},
            {"tolerance": float("nan")},
            {"tolerance": float("inf")},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LearnerParams(**kwargs)


class TestTrain:
    def test_separable_case_classified_correctly(self):
        X = np.array([[-1.0], [-2.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = train(X, y, ["x"])
        predicted = apply_threshold(predict_proba(model, X), model.params.decision_threshold)
        assert np.array_equal(predicted, [0, 0, 1, 1])
        assert model.meta.converged

    def test_single_class_rejected(self):
        X = np.array([[1.0], [2.0]])
        with pytest.raises(DegenerateTrainingError, match="degenerate training set"):
            train(X, np.array([1, 1]), ["x"])

    def test_objective_history_non_increasing(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 4))
        y = (X @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(size=60) > 0).astype(int)
        model = train(X, y, list("abcd"))
        history = model.meta.objective_history
        assert all(later <= earlier + 1e-12 for earlier, later in zip(history, history[1:]))

    def test_two_point_ridge_matches_grid_oracle(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        params = LearnerParams(ridge=1e-2)
        model = train(X, y, ["x"], params)
        oracle_b, oracle_w = grid_logistic_oracle([0.0, 1.0], [0, 1], ridge=1e-2)
        assert abs(model.intercept - oracle_b) < 1e-3
        assert abs(model.weights[0] - oracle_w) < 1e-3

    def test_random_problems_match_grid_oracle(self):
        rng = np.random.default_rng(33)
        for ridge in (1e-2, 0.1):
            xs = rng.normal(size=18)
            ys = (xs + rng.normal(scale=0.8, size=18) > 0).astype(int)
            if ys.min() == ys.max():
                ys[0] = 1 - ys[0]
            model = train(xs[:, None], ys, ["x"], LearnerParams(ridge=ridge))
            oracle_b, oracle_w = grid_logistic_oracle(list(xs), list(ys), ridge=ridge)
            assert abs(model.intercept - oracle_b) < 1e-3
            assert abs(model.weights[0] - oracle_w) < 1e-3

    def test_gradient_near_zero_at_optimum(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] - X[:, 1] + rng.normal(scale=0.5, size=50) > 0).astype(int)
        # tiny tolerance forces iteration down to the gradient floor
        params = LearnerParams(ridge=0.05, tolerance=1e-14)
        model = train(X, y, list("abc"), params)
        w = np.concatenate([[model.intercept], model.weights])
        design = np.hstack([np.ones((50, 1)), X])
        assert np.max(np.abs(gradient(w, design, y.astype(float), params.ridge))) < 1e-6

    def test_perturbing_optimum_increases_objective(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0.2).astype(int)
        params = LearnerParams(ridge=0.1)
        model = train(X, y, ["a", "b"], params)
        w = np.concatenate([[model.intercept], model.weights])
        design = np.hstack([np.ones((40, 1)), X])
        base, _ = objective(w, design, y.astype(float), params.ridge)
        for _ in range(10):
            nudge = rng.normal(scale=1e-3, size=w.size)
            value, _ = objective(w + nudge, design, y.astype(float), params.ridge)
            assert value >= base - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 5))
        y = rng.integers(0, 2, size=30)
        y[0], y[1] = 0, 1
        first = train(X, y, list("abcde"))
        second = train(X, y, list("abcde"))
        assert np.array_equal(first.weights, second.weights)
        assert first.intercept == second.intercept

    def test_collinear_features_survive_via_ridge(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        model = train(X, y, ["a", "b"])
        assert np.all(np.isfinite(model.weights))

    @given(st.data())
    def test_bitwise_equal_to_reference_newton_loop(self, data):
        m = data.draw(st.integers(2, 30), label="rows")
        n = data.draw(st.integers(1, 4), label="columns")
        X = data.draw(arrays(float, (m, n), elements=st.floats(-50.0, 50.0)), label="X")
        kind = data.draw(st.sampled_from(["random", "separable", "collinear"]), label="kind")
        if kind == "collinear":
            X = np.hstack([X, 2.0 * X[:, :1] - X[:, -1:]])
        if kind == "separable":
            y = (X[:, 0] > np.median(X[:, 0])).astype(np.int8)
        else:
            y = data.draw(arrays(np.int8, m, elements=st.integers(0, 1)), label="y")
        assume(0 < int(y.sum()) < m)
        params = LearnerParams(
            ridge=data.draw(st.sampled_from([0.0, 1e-8, 1e-3, 0.5]), label="ridge"),
            max_iterations=data.draw(st.sampled_from([1, 2, 200]), label="max_iterations"),
            tolerance=data.draw(st.sampled_from([1e-8, 1e-3]), label="tolerance"),
        )
        names = [f"f{i}" for i in range(X.shape[1])]
        try:
            want = reference_newton_fit(
                X, y, params.ridge, params.max_iterations, params.tolerance
            )
        except ValueError as exc:
            with pytest.raises(DegenerateTrainingError, match=re.escape(str(exc))):
                train(X, y, names, params)
            return
        model = train(X, y, names, params)
        weights, intercept, history, iterations, converged, log_lik = want
        assert model.weights.tobytes() == weights.tobytes()
        assert np.float64(model.intercept).tobytes() == np.float64(intercept).tobytes()
        assert np.array(model.meta.objective_history).tobytes() == np.array(history).tobytes()
        assert model.meta.iterations == iterations
        assert model.meta.converged == converged
        assert model.meta.final_log_likelihood == log_lik

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            train(np.ones((3, 2)), np.array([0, 1]), ["a", "b"])
        with pytest.raises(ValueError):
            train(np.ones((2, 2)), np.array([0, 1]), ["a"])
        with pytest.raises(ValueError):
            train(np.array([[np.inf, 1.0], [0.0, 1.0]]), np.array([0, 1]), ["a", "b"])
        with pytest.raises(ValueError, match="binary"):
            train(np.ones((2, 1)), np.array([0, 2]), ["a"])


# exp(-eta) overflows below eta = -709.78, where expit becomes 0; just above
# that, expit is subnormal. The -760..-700 band straddles both.
ETA_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.floats(-760.0, 760.0),
    st.floats(-760.0, -700.0),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, -709.8, -745.2, -746.0, 709.8]),
)


class TestExpit:
    @given(ETA_VALUES)
    def test_scalar_bitwise_equal_scipy(self, eta):
        got, want = _expit(eta), scipy.special.expit(eta)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @given(
        arrays(
            float,
            array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=20),
            elements=ETA_VALUES,
        )
    )
    def test_array_bitwise_equal_scipy(self, eta):
        got, want = _expit(eta), scipy.special.expit(eta)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_seeded_sweep_bitwise_equal_scipy(self):
        # numpy's vectorized exp differs from the C library's in the last bit
        # for about 2% of these values.
        rng = np.random.default_rng(9)
        for scale in (1.0, 40.0, 760.0):
            eta = rng.uniform(-scale, scale, (200, 100))
            assert _expit(eta).tobytes() == scipy.special.expit(eta).tobytes(), scale

    def test_one_probability_vector_per_newton_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(learner, "_expit", lambda eta: calls.append(1) or _expit(eta))
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + rng.normal(size=60) > 0).astype(float)
        model = train(X, y, ("a", "b", "c"))
        assert model.meta.iterations >= 3
        assert len(calls) <= model.meta.iterations + 1


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            m, n = int(rng.integers(5, 40)), int(rng.integers(1, 6))
            design = np.hstack([np.ones((m, 1)), rng.normal(size=(m, n))])
            y = rng.integers(0, 2, size=m).astype(float)
            ridge = float(rng.choice([0.0, 1e-4, 0.3]))
            w = rng.normal(scale=1.5, size=n + 1)
            analytic = gradient(w, design, y, ridge)
            numeric = np.empty_like(analytic)
            h = 1e-6
            for k in range(w.size):
                step = np.zeros_like(w)
                step[k] = h
                above, _ = objective(w + step, design, y, ridge)
                below, _ = objective(w - step, design, y, ridge)
                numeric[k] = (above - below) / (2.0 * h)
            scale = max(float(np.linalg.norm(analytic)), 1e-8)
            assert float(np.linalg.norm(analytic - numeric)) / scale < 1e-5

    def test_train_runs_the_checked_objective_and_gradient(self, monkeypatch):
        # The finite differences above check _objective_at and _gradient_at;
        # train must run them.
        calls: list[str] = []
        for name in ("_objective_at", "_gradient_at"):
            real = getattr(learner, name)
            monkeypatch.setattr(
                learner, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
            )
        rng = np.random.default_rng(5)
        design = np.hstack([np.ones((30, 1)), rng.normal(size=(30, 2))])
        y = (design[:, 1] + rng.normal(size=30) > 0).astype(float)
        model = train(design[:, 1:], y, ("a", "b"), LearnerParams(ridge=0.1))
        assert model.meta.iterations >= 2
        # One gradient per Newton step, plus one when the fit ends on the
        # gradient floor; this fit ends on the tolerance.
        assert calls.count("_gradient_at") >= model.meta.iterations
        assert calls.count("_objective_at") >= 2 + model.meta.iterations


class TestPredictProba:
    def test_zero_model_gives_half(self):
        model = identity_model([0.0, 0.0])
        assert predict_proba(model, np.array([3.0, -4.0])) == 0.5

    def test_saturation_clipped(self):
        model = identity_model([1.0], intercept=50.0)
        p = predict_proba(model, np.array([10.0]))
        assert p > 1.0 - 1e-6
        assert p <= 1.0 - 1e-12

    def test_lower_clip(self):
        model = identity_model([1.0], intercept=-80.0)
        assert predict_proba(model, np.array([0.0])) >= 1e-12

    def test_two_point_model_probability_matches_oracle(self):
        X = np.array([[0.0], [1.0]])
        model = train(X, np.array([0, 1]), ["x"], LearnerParams(ridge=1e-2))
        oracle_b, oracle_w = grid_logistic_oracle([0.0, 1.0], [0, 1], ridge=1e-2)
        ours = predict_proba(model, np.array([0.5]))
        oracle = 1.0 / (1.0 + math.exp(-(oracle_b + oracle_w * 0.5)))
        assert abs(ours - oracle) < 1e-3

    def test_matrix_and_vector_agree(self):
        model = identity_model([0.5, -0.25], intercept=0.1)
        matrix = np.array([[1.0, 2.0], [3.0, -1.0]])
        batched = predict_proba(model, matrix)
        assert batched.shape == (2,)
        for i in range(2):
            assert batched[i] == predict_proba(model, matrix[i])

    def test_wrong_width_rejected(self):
        model = identity_model([0.5, -0.25])
        with pytest.raises(ValueError, match="feature"):
            predict_proba(model, np.array([1.0]))
        with pytest.raises(ValueError, match="feature"):
            predict_proba(model, np.ones((2, 3)))


class TestClassify:
    def test_threshold_boundary_inclusive(self):
        # feature value 0 gives probability exactly 0.5
        model = identity_model([1.0])
        logit = lambda p: math.log(p / (1.0 - p))
        probabilities = predict_proba(model, np.array([[logit(0.4)], [0.0], [logit(0.6)]]))
        predictions = apply_threshold(probabilities, model.params.decision_threshold)
        assert list(predictions) == [0, 1, 1]

    def test_high_threshold_suppresses_all(self):
        model = identity_model([1.0], decision_threshold=0.999)
        probabilities = predict_proba(model, np.array([[0.0], [1.0], [2.0]]))
        predictions = apply_threshold(probabilities, model.params.decision_threshold)
        assert list(predictions) == [0, 0, 0]

    def test_explicit_threshold_overrides_params(self):
        model = identity_model([1.0])
        probability = predict_proba(model, np.array([1.0]))
        assert apply_threshold(probability, 0.9) == 0
        assert apply_threshold(probability, 0.5) == 1

    def test_separable_example(self):
        X = np.array([[-1.0], [-2.0], [1.0], [2.0]])
        model = train(X, np.array([0, 0, 1, 1]), ["x"])
        predicted = apply_threshold(predict_proba(model, X), model.params.decision_threshold)
        assert list(predicted) == [0, 0, 1, 1]


class TestCoefficientMagnitudes:
    def test_absolute_values_in_order(self):
        model = identity_model([-2.0, 0.5])
        assert coefficient_magnitudes(model) == (("f0", 2.0), ("f1", 0.5))

    def test_zero_model(self):
        model = identity_model([0.0, 0.0, 0.0])
        assert all(value == 0.0 for _, value in coefficient_magnitudes(model))

    def test_planted_indicator_dominates(self):
        # profiled feature space built directly: independent columns, label
        # driven by the "mean" column alone
        from cpdp_ifs.profiles import INDICATOR_NAMES

        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(300, len(INDICATOR_NAMES)))
        mean_idx = INDICATOR_NAMES.index("mean")
        labels = (matrix[:, mean_idx] > 0.0).astype(int)
        model = train(matrix, labels, INDICATOR_NAMES, LearnerParams(ridge=0.1))
        magnitudes = dict(coefficient_magnitudes(model))
        top = max(magnitudes, key=magnitudes.get)
        assert top == "mean"


class TestPersistence:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 3))
        y = (X[:, 0] > 0).astype(int)
        model = train(X, y, ["a", "b", "c"], LearnerParams(ridge=0.01))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.intercept == model.intercept
        assert loaded.feature_names == model.feature_names
        assert loaded.params == model.params
        assert loaded.meta.objective_history == model.meta.objective_history
