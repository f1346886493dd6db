"""Acceptance gate: the eight release criteria, one reported line each.

Every criterion prints PASS, FAIL, or SKIP in the terminal summary (the
``acceptance criteria`` section emitted by conftest). Tolerances are pinned
here and must not be loosened.
"""

import contextlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from cpdp_ifs.config import LearnerParams, Method, PreprocessConfig
from cpdp_ifs.corpus import FeatureSchema, Project, dpr
from cpdp_ifs.learner import (
    _expit,
    _gradient_at,
    apply_threshold,
    predict_proba,
    train,
)
from cpdp_ifs.predictors import (
    PredictionOutcome,
    enumerate_pairs,
    run_cpdp_pure,
    run_ifs_min,
    run_ifs_our,
    run_mix,
)
from cpdp_ifs.preprocess import preprocess_matrix, zscore
from cpdp_ifs.profiles import INDICATOR_NAMES, characterize_instance, characterize_project
from cpdp_ifs.stats import (
    ConfusionMatrix,
    cliffs_delta,
    wilcoxon_signed_rank,
)

from oracles import (
    _reference_mask,
    _reference_objective,
    grid_logistic_oracle,
    mc_random_baseline,
    wilcoxon_exact_oracle,
)
from synth import planted_project

CRITERIA = (
    "criterion 1: Cliff's delta golden values",
    "criterion 2: signed-rank golden p-values",
    "criterion 3: DPR golden value",
    "criterion 4: pair enumeration counts",
    "criterion 5: property suites",
    "criterion 6: oracle equivalence",
    "criterion 7: end-to-end smoke",
    "criterion 8: full-data reproduction (optional)",
)

RESULTS: dict[str, str] = {}
_RANK = {"PASS": 0, "SKIP": 1, "FAIL": 2}


def _record(label: str, status: str) -> None:
    current = RESULTS.get(label)
    if current is None or _RANK[status] > _RANK[current]:
        RESULTS[label] = status


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException as exc:
        _record(label, "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL")
        raise
    else:
        _record(label, "PASS")


# Best per-target f-measures for the two mapping strategies, no-transfer
# setting, 8 targets.
PURE_OUR = np.array([0.45, 0.50, 0.28, 0.50, 0.47, 0.51, 0.32, 0.32])
PURE_MIN = np.array([0.37, 0.52, 0.26, 0.31, 0.39, 0.10, 0.30, 0.13])
# The same comparison in the transfer-assisted setting.
TCA_OUR = np.array([0.37, 0.48, 0.37, 0.57, 0.58, 0.56, 0.34, 0.39])
TCA_MIN = np.array([0.35, 0.46, 0.35, 0.16, 0.26, 0.19, 0.14, 0.35])
# Best per-target f-measures of the two settings over all 11 targets.
SETTING_PURE = np.array([0.46, 0.50, 0.34, 0.50, 0.47, 0.42, 0.32, 0.33, 0.59, 0.65, 0.44])
SETTING_TCA = np.array([0.50, 0.53, 0.35, 0.57, 0.61, 0.59, 0.34, 0.39, 0.49, 0.63, 0.37])


def test_criterion_1_effect_size_goldens():
    with criterion(CRITERIA[0]):
        assert cliffs_delta(PURE_OUR, PURE_MIN) == 0.5
        assert cliffs_delta(TCA_OUR, TCA_MIN) == 0.78125
        assert cliffs_delta(SETTING_PURE, SETTING_TCA) == pytest.approx(-27.0 / 121.0)
        assert round(cliffs_delta(SETTING_PURE, SETTING_TCA), 3) == -0.223


def test_criterion_2_signed_rank_goldens():
    with criterion(CRITERIA[1]):
        asymptotic = wilcoxon_signed_rank(TCA_OUR, TCA_MIN, method="asymptotic")
        assert abs(asymptotic.p_value - 0.012) <= 0.002
        exact = wilcoxon_signed_rank(TCA_OUR, TCA_MIN, method="exact")
        assert exact.p_value == 2.0 / 256.0
        pure = wilcoxon_signed_rank(PURE_OUR, PURE_MIN)
        assert 0.02 <= pure.p_value <= 0.05


def test_criterion_3_dpr_golden():
    with criterion(CRITERIA[2]):
        assert abs(dpr(0.223, 0.464) - 0.48) <= 0.01


def _stub_project(name: str, family: str) -> Project:
    schema = FeatureSchema(feature_names=("m",), label_column="bug")
    return Project(
        name=name,
        dataset_family=family,
        schema=schema,
        matrix=np.array([[1.0], [2.0]]),
        labels=np.array([0, 1]),
    )


def test_criterion_4_enumeration_counts():
    with criterion(CRITERIA[3]):
        trio = [_stub_project(f"p{i}", "one") for i in range(3)]
        assert len(enumerate_pairs(trio, Method.CPDP_PURE)) == 6

        eleven = (
            [_stub_project(f"a{i}", "fam_a") for i in range(3)]
            + [_stub_project(f"b{i}", "fam_b") for i in range(3)]
            + [_stub_project(f"c{i}", "fam_c") for i in range(5)]
        )
        assert len(enumerate_pairs(eleven, Method.CPDP_PURE)) == 32  # 6 + 6 + 20


def test_criterion_5a_characterization_invariants():
    with criterion(CRITERIA[4]):
        rng = np.random.default_rng(500)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            values = rng.normal(0.0, 1.0 + 9.0 * rng.random(), size=n)
            row = characterize_instance(values)
            shuffled = characterize_instance(rng.permutation(values))
            assert np.array_equal(row, shuffled)
            profile = dict(zip(INDICATOR_NAMES, row))
            assert profile["min"] <= profile["first_quartile"]
            assert profile["first_quartile"] <= profile["median"]
            assert profile["median"] <= profile["third_quartile"]
            assert profile["third_quartile"] <= profile["max"]


def test_criterion_5b_normalization_invariants():
    with criterion(CRITERIA[4]):
        rng = np.random.default_rng(501)
        for _ in range(50):
            matrix = rng.normal(0.0, 5.0, size=(int(rng.integers(2, 60)), int(rng.integers(1, 12))))
            z = zscore(matrix)
            again = zscore(z)
            assert np.allclose(again, z, atol=1e-10)
            assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
            scale = float(rng.uniform(0.5, 3.0))
            shift = float(rng.uniform(-5.0, 5.0))
            affine = zscore(scale * matrix + shift)
            assert np.allclose(affine, z, atol=1e-9)


def test_criterion_5c_intersection_equals_pure_on_same_schema():
    with criterion(CRITERIA[4]):
        rng = np.random.default_rng(502)
        for round_index in range(25):
            n_features = int(rng.integers(2, 12))
            names = tuple(f"m{i}" for i in range(n_features))
            source = planted_project(
                rng, f"s{round_index}", "fam", n_features,
                int(rng.integers(30, 120)), feature_names=names,
            )
            target = planted_project(
                rng, f"t{round_index}", "fam", n_features,
                int(rng.integers(20, 90)), feature_names=names,
            )
            pure = run_cpdp_pure(source, target)
            narrowed = run_ifs_min(source, target)
            assert np.array_equal(pure.predicted, narrowed.predicted)
            assert pure.model.weights.tobytes() == narrowed.model.weights.tobytes()
            assert pure.model.intercept == narrowed.model.intercept


def _outcome(method: Method, predicted: np.ndarray, actual: np.ndarray) -> PredictionOutcome:
    predicted = predicted.astype(np.int8)
    return PredictionOutcome(
        source_name="s", target_name="t", method=method, predicted=predicted,
        confusion=ConfusionMatrix.from_predictions(actual, predicted),
    )


def test_criterion_5d_mix_recall_dominance():
    with criterion(CRITERIA[4]):
        rng = np.random.default_rng(503)
        for _ in range(200):
            m = int(rng.integers(3, 50))
            actual = rng.integers(0, 2, size=m)
            pure = _outcome(Method.CPDP_PURE, rng.integers(0, 2, size=m), actual)
            profile = _outcome(Method.IFS_OUR, rng.integers(0, 2, size=m), actual)
            fused = run_mix(pure, profile, actual)
            assert fused.recall >= max(pure.recall, profile.recall)


def test_criterion_5e_gradient_matches_finite_differences():
    with criterion(CRITERIA[4]):
        rng = np.random.default_rng(504)
        step = 1e-6
        for _ in range(20):
            m = int(rng.integers(10, 40))
            k = int(rng.integers(1, 5))
            design = np.column_stack([np.ones(m), rng.normal(size=(m, k))])
            y = rng.integers(0, 2, size=m).astype(float)
            w = rng.normal(scale=0.8, size=k + 1)
            ridge = float(rng.uniform(0.0, 0.5))
            ridges = ridge * _reference_mask(w.size)
            analytic = _gradient_at(_expit(design @ w), w, design, y, ridges)
            numeric = np.empty_like(analytic)
            for j in range(w.size):
                bumped = w.copy()
                bumped[j] += step
                high, _ = _reference_objective(bumped, design, y, ridge)
                bumped[j] -= 2.0 * step
                low, _ = _reference_objective(bumped, design, y, ridge)
                numeric[j] = (high - low) / (2.0 * step)
            scale = max(float(np.linalg.norm(analytic)), 1.0)
            assert float(np.linalg.norm(analytic - numeric)) / scale < 1e-5


def test_criterion_5f_exact_vs_asymptotic_agreement():
    with criterion(CRITERIA[4]):
        # The normal approximation deviates from the exact tail mass by up to
        # ~0.04 near the center of the null distribution at this sample size,
        # so the paired samples carry a location shift: agreement is asserted
        # where the test actually rejects.
        rng = np.random.default_rng(505)
        compared = 0
        for _ in range(200):
            x = rng.normal(0.0, 1.0, size=12)
            y = x + rng.normal(1.1, 0.55, size=12)
            diffs = np.abs(y - x)
            if len(np.unique(np.round(diffs, 12))) != 12:
                continue  # tie-free draws only
            exact = wilcoxon_signed_rank(x, y, method="exact")
            asymptotic = wilcoxon_signed_rank(x, y, method="asymptotic")
            assert abs(exact.p_value - asymptotic.p_value) <= 0.02
            compared += 1
        assert compared >= 190


def test_criterion_6_learner_grid_oracle():
    with criterion(CRITERIA[5]):
        xs = [0.0, 1.0]
        ys = [0, 1]
        params = LearnerParams(ridge=1e-2)
        model = train(np.array(xs).reshape(-1, 1), np.array(ys), ("x",), params)
        oracle_b, oracle_w = grid_logistic_oracle(xs, ys, ridge=1e-2)
        assert abs(model.intercept - oracle_b) < 1e-3
        assert abs(model.weights[0] - oracle_w) < 1e-3

        rng = np.random.default_rng(506)
        for _ in range(5):
            m = int(rng.integers(8, 25))
            xs = list(rng.normal(0.0, 2.0, size=m))
            ys = [int(x + rng.normal(0, 1.5) > 0) for x in xs]
            if len(set(ys)) < 2:
                continue
            ridge = float(rng.choice([1e-2, 0.1]))
            model = train(
                np.array(xs).reshape(-1, 1), np.array(ys), ("x",), LearnerParams(ridge=ridge)
            )
            oracle_b, oracle_w = grid_logistic_oracle(xs, ys, ridge=ridge)
            assert abs(model.intercept - oracle_b) < 1e-3
            assert abs(model.weights[0] - oracle_w) < 1e-3


def test_criterion_6_wilcoxon_enumeration_oracle():
    with criterion(CRITERIA[5]):
        rng = np.random.default_rng(507)
        for _ in range(150):
            n = int(rng.integers(1, 13))
            x = rng.normal(0.0, 2.0, size=n)
            y = x + rng.normal(0.3, 1.0, size=n)
            if rng.random() < 0.4:
                x = np.round(x, 1)
                y = np.round(y, 1)
            if np.all(x == y):
                continue
            result = wilcoxon_signed_rank(x, y, method="exact")
            oracle_stat, oracle_p = wilcoxon_exact_oracle(x, y)
            assert result.statistic == oracle_stat
            assert result.p_value == oracle_p


def test_criterion_7_end_to_end_smoke():
    with criterion(CRITERIA[6]):
        started = time.monotonic()
        rng = np.random.default_rng(508)
        source = planted_project(rng, "wide", "fam_w", 30, 300, signal=3.0)
        target = planted_project(rng, "narrow", "fam_n", 7, 200, signal=3.0)
        outcome = run_ifs_our(source, target)

        assert outcome.method is Method.IFS_OUR
        assert outcome.predicted.shape == (target.n_instances,)
        assert np.all((outcome.predicted == 0) | (outcome.predicted == 1))
        profiled_target = preprocess_matrix(
            characterize_project(target).matrix, PreprocessConfig(log_filter=False)
        )
        probabilities = predict_proba(outcome.model, profiled_target)
        assert np.all((probabilities > 0) & (probabilities < 1))
        assert np.array_equal(
            apply_threshold(probabilities, outcome.model.params.decision_threshold),
            outcome.predicted,
        )
        cm = outcome.confusion
        assert cm.tp + cm.fp + cm.tn + cm.fn == target.n_instances
        assert 0.0 <= outcome.f_measure <= 1.0

        ratio = float(np.mean(target.labels))
        baseline = mc_random_baseline(list(target.labels), ratio, n_draws=1000, seed=3)
        assert outcome.f_measure > float(np.mean(baseline))
        assert time.monotonic() - started < 10.0


# Best reported per-target f-measures for the profile route, keyed by the
# lowercased target name. The reproduction tolerance is a band, not equality:
# the exact indicator list and classifier numerics of the reported runs are
# not recoverable.
FULL_DATA_EXPECTED = {
    "ant": 0.45,
    "xalan": 0.50,
    "camel": 0.28,
    "eclipse": 0.50,
    "equinox": 0.47,
    "lucene": 0.51,
    "mylyn": 0.32,
    "pde": 0.32,
}


def test_criterion_8_full_data_reproduction():
    with criterion(CRITERIA[7]):
        data_dir = os.environ.get("CPDP_IFS_DATA_DIR")
        if not data_dir:
            pytest.skip("CPDP_IFS_DATA_DIR not set; full-data reproduction skipped")

        from cpdp_ifs.config import load_config
        from cpdp_ifs.experiment import run_plan

        config = load_config(Path(data_dir) / "config.json")
        for needed in (Method.IFS_OUR, Method.IFS_MIN):
            assert needed in config.methods, f"config must enable {needed.value}"
        bundle = run_plan(config)

        best: dict[tuple[str, str], float] = {
            (o.method.value, o.target_name.lower()): o.f_measure for o in bundle.best
        }
        our_scores = []
        min_scores = []
        for target, expected in FULL_DATA_EXPECTED.items():
            key = ("ifs_our", target)
            assert key in best, f"no ifs_our result for target {target!r}"
            assert abs(best[key] - expected) <= 0.10, (
                f"{target}: ifs_our best f {best[key]:.3f} vs expected {expected:.2f}"
            )
            our_scores.append(best[key])
            min_scores.append(best[("ifs_min", target)])

        assert sum(our_scores) > sum(min_scores)
        assert cliffs_delta(our_scores, min_scores) > 0.0
