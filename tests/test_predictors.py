import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

from cpdp_ifs.corpus import FeatureSchema, NoCommonMetricsError, Project
from cpdp_ifs.learner import DegenerateTrainingError
from cpdp_ifs.predictors import (
    Method,
    PredictionOutcome,
    RunMemo,
    enumerate_pairs,
    run_cpdp_pure,
    run_ifs_min,
    run_ifs_our,
    run_mix,
)
from cpdp_ifs.preprocess import PreprocessConfig
from cpdp_ifs.profiles import INDICATOR_NAMES, characterize_project
from cpdp_ifs.stats import ConfusionMatrix, prf

from oracles import mc_random_baseline
from synth import planted_project


def project_of(name, family, names, matrix, labels):
    schema = FeatureSchema(feature_names=tuple(names), label_column="bug")
    return Project(name=name, dataset_family=family, schema=schema,
                   matrix=np.asarray(matrix, dtype=float), labels=np.asarray(labels))


def outcome_of(method, predicted, actual, source="s", target="t"):
    predicted = np.asarray(predicted, dtype=np.int8)
    return PredictionOutcome(
        source_name=source, target_name=target, method=method, predicted=predicted,
        confusion=ConfusionMatrix.from_predictions(np.asarray(actual), predicted),
    )


@pytest.fixture(scope="module")
def same_schema_pair():
    rng = np.random.default_rng(40)
    names = tuple(f"m{i}" for i in range(9))
    source = planted_project(rng, "src", "fam", 9, 140, feature_names=names)
    target = planted_project(rng, "tgt", "fam", 9, 110, feature_names=names)
    return source, target


class TestRunCpdpPure:
    def test_valid_run_same_schema(self, same_schema_pair):
        source, target = same_schema_pair
        outcome = run_cpdp_pure(source, target)
        assert outcome.method is Method.CPDP_PURE
        assert outcome.source_name == "src"
        assert outcome.target_name == "tgt"
        assert outcome.predicted.shape == (target.n_instances,)
        assert outcome.confusion.total == target.n_instances
        assert 0.0 <= outcome.f_measure <= 1.0

    def test_metrics_consistent_with_confusion(self, same_schema_pair):
        outcome = run_cpdp_pure(*same_schema_pair)
        assert (outcome.precision, outcome.recall, outcome.f_measure) == prf(outcome.confusion)

    def test_target_column_order_is_irrelevant(self, same_schema_pair):
        source, target = same_schema_pair
        order = [4, 0, 7, 2, 8, 1, 5, 3, 6]
        shuffled = project_of(
            "tgt", "fam",
            [target.schema.feature_names[i] for i in order],
            target.matrix[:, order], target.labels,
        )
        base = run_cpdp_pure(source, target)
        moved = run_cpdp_pure(source, shuffled)
        assert np.array_equal(base.predicted, moved.predicted)
        assert base.model.weights.tobytes() == moved.model.weights.tobytes()
        assert base.model.intercept == moved.model.intercept

    def test_schema_mismatch_rejected(self):
        a = project_of("a", "f1", ["x", "y"], [[1, 2], [3, 4], [5, 6]], [0, 1, 0])
        b = project_of("b", "f2", ["x", "z"], [[1, 2], [3, 4], [5, 6]], [0, 1, 0])
        with pytest.raises(ValueError, match="feature sets differ; use an IFS method"):
            run_cpdp_pure(a, b)

    def test_same_project_rejected(self, same_schema_pair):
        source, _ = same_schema_pair
        with pytest.raises(ValueError, match="distinct"):
            run_cpdp_pure(source, source)

    def test_single_class_source_fails_cleanly(self, same_schema_pair):
        _, target = same_schema_pair
        names = target.schema.feature_names
        source = project_of("mono", "fam", names,
                            np.ones((4, len(names))) * np.arange(1, 5)[:, None],
                            [0, 0, 0, 0])
        with pytest.raises(DegenerateTrainingError):
            run_cpdp_pure(source, target)

    def test_above_random_baseline_on_shared_distribution(self):
        rng = np.random.default_rng(41)
        names = tuple(f"m{i}" for i in range(10))
        source = planted_project(rng, "s", "f", 10, 200, signal=2.0, feature_names=names)
        target = planted_project(rng, "t", "f", 10, 150, signal=2.0, feature_names=names)
        outcome = run_cpdp_pure(source, target)
        ratio = float(np.mean(target.labels))
        baseline = mc_random_baseline(list(target.labels), ratio, n_draws=1000, seed=1)
        assert outcome.f_measure > float(np.mean(baseline))


class TestRunIfsMin:
    def test_identical_schemas_bitwise_equal_to_pure(self, same_schema_pair):
        source, target = same_schema_pair
        pure = run_cpdp_pure(source, target)
        narrowed = run_ifs_min(source, target)
        assert narrowed.method is Method.IFS_MIN
        assert np.array_equal(pure.predicted, narrowed.predicted)
        assert pure.confusion == narrowed.confusion
        assert pure.f_measure == narrowed.f_measure
        assert pure.model.weights.tobytes() == narrowed.model.weights.tobytes()
        assert pure.model.intercept == narrowed.model.intercept

    def test_overlapping_schemas_use_common_columns(self):
        rng = np.random.default_rng(42)
        source = planted_project(rng, "s", "f1", 6, 120,
                                 feature_names=("loc", "cbo", "a0", "a1", "a2", "a3"))
        target = planted_project(rng, "t", "f2", 5, 100,
                                 feature_names=("b0", "loc", "b1", "cbo", "b2"))
        outcome = run_ifs_min(source, target)
        assert outcome.model.feature_names == ("loc", "cbo")

    def test_disjoint_schemas_rejected(self):
        a = project_of("a", "f1", ["x"], [[1], [2], [3]], [0, 1, 0])
        b = project_of("b", "f2", ["y"], [[1], [2], [3]], [0, 1, 0])
        with pytest.raises(NoCommonMetricsError, match="no common metrics"):
            run_ifs_min(a, b)


class TestRunIfsOur:
    def test_cross_schema_run(self):
        rng = np.random.default_rng(43)
        source = planted_project(rng, "s", "f1", 30, 160, signal=2.0)
        target = planted_project(rng, "t", "f2", 7, 120, signal=2.0)
        outcome = run_ifs_our(source, target)
        assert outcome.method is Method.IFS_OUR
        assert outcome.model.feature_names == INDICATOR_NAMES
        assert outcome.predicted.shape == (target.n_instances,)

    def test_single_feature_source_still_runs(self):
        rng = np.random.default_rng(44)
        source = planted_project(rng, "s", "f1", 1, 80)
        target = planted_project(rng, "t", "f2", 5, 60)
        outcome = run_ifs_our(source, target)
        assert outcome.predicted.shape == (target.n_instances,)

    def test_renamed_duplicate_data_predicts_like_self_profile(self):
        rng = np.random.default_rng(45)
        source = planted_project(rng, "s", "f1", 8, 100)
        twin = project_of(
            "twin", "f2",
            tuple(f"other_{i}" for i in range(8)),
            source.matrix, source.labels,
        )
        outcome = run_ifs_our(source, twin)
        self_outcome = run_ifs_our(twin, renamed_copy(source, "self", "f3"))
        assert np.array_equal(outcome.predicted, self_outcome.predicted)

    @pytest.mark.parametrize(
        "preprocessing", [PreprocessConfig(), PreprocessConfig(log_filter=True, normalize=False)]
    )
    def test_is_ifs_min_over_the_profiles(self, preprocessing):
        rng = np.random.default_rng(47)
        source = planted_project(rng, "s", "f1", 12, 90, signal=2.0)
        target = planted_project(rng, "t", "f2", 5, 70, signal=2.0)
        ours = run_ifs_our(source, target, preprocessing)
        indicator_config = PreprocessConfig(log_filter=False, normalize=preprocessing.normalize)
        minimal = run_ifs_min(
            characterize_project(source, preprocessing),
            characterize_project(target, preprocessing),
            indicator_config,
        )
        assert ours.predicted.tobytes() == minimal.predicted.tobytes()
        assert ours.model.weights.tobytes() == minimal.model.weights.tobytes()
        assert ours.model.intercept == minimal.model.intercept

    def test_beats_random_baseline_with_planted_signal(self):
        rng = np.random.default_rng(46)
        source = planted_project(rng, "s", "f1", 30, 300, signal=3.0)
        target = planted_project(rng, "t", "f2", 7, 200, signal=3.0)
        outcome = run_ifs_our(source, target)
        ratio = float(np.mean(target.labels))
        baseline = mc_random_baseline(list(target.labels), ratio, n_draws=1000, seed=2)
        assert outcome.f_measure > float(np.mean(baseline))


def renamed_copy(project, name, family):
    return project_of(
        name, family,
        tuple(f"{family}_{i}" for i in range(project.n_features)),
        project.matrix, project.labels,
    )


class TestRunMix:
    def test_or_truth_table(self):
        actual = [1, 0, 1]
        pure = outcome_of(Method.CPDP_PURE, [1, 0, 0], actual)
        profile = outcome_of(Method.IFS_OUR, [0, 0, 1], actual)
        fused = run_mix(pure, profile, np.array(actual))
        assert list(fused.predicted) == [1, 0, 1]
        assert fused.method is Method.MIX
        assert fused.model is None
        assert fused.source_name == "s+s"

    def test_both_negative_stays_negative(self):
        actual = [0, 1]
        pure = outcome_of(Method.CPDP_PURE, [0, 0], actual)
        profile = outcome_of(Method.IFS_OUR, [0, 0], actual)
        fused = run_mix(pure, profile, np.array(actual))
        assert list(fused.predicted) == [0, 0]

    def test_metrics_recomputed(self):
        actual = np.array([1, 1, 0, 0])
        pure = outcome_of(Method.CPDP_PURE, [1, 0, 0, 1], actual)
        profile = outcome_of(Method.IFS_OUR, [0, 1, 0, 0], actual)
        fused = run_mix(pure, profile, actual)
        assert (fused.confusion.tp, fused.confusion.fp) == (2, 1)
        assert (fused.precision, fused.recall, fused.f_measure) == prf(fused.confusion)

    def test_recall_dominance_on_random_pairs(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            m = int(rng.integers(3, 40))
            actual = rng.integers(0, 2, size=m)
            a = rng.integers(0, 2, size=m)
            b = rng.integers(0, 2, size=m)
            pure = outcome_of(Method.CPDP_PURE, a, actual)
            profile = outcome_of(Method.IFS_OUR, b, actual)
            fused = run_mix(pure, profile, actual)
            assert fused.recall >= max(pure.recall, profile.recall)

    def test_wrong_component_methods_rejected(self):
        actual = [0, 1]
        profile = outcome_of(Method.IFS_OUR, [0, 1], actual)
        with pytest.raises(ValueError, match="cpdp_pure"):
            run_mix(profile, profile, np.array(actual))
        pure = outcome_of(Method.CPDP_PURE, [0, 1], actual)
        with pytest.raises(ValueError, match="ifs_our"):
            run_mix(pure, pure, np.array(actual))

    def test_target_mismatch_rejected(self):
        pure = outcome_of(Method.CPDP_PURE, [0, 1], [0, 1], target="t1")
        profile = outcome_of(Method.IFS_OUR, [0, 1], [0, 1], target="t2")
        with pytest.raises(ValueError, match="same target"):
            run_mix(pure, profile, np.array([0, 1]))

    def test_length_mismatch_rejected(self):
        pure = outcome_of(Method.CPDP_PURE, [0, 1], [0, 1])
        profile = outcome_of(Method.IFS_OUR, [0, 1, 1], [0, 1, 1])
        with pytest.raises(ValueError, match="same instances"):
            run_mix(pure, profile, np.array([0, 1]))


def family_fixture(sizes):
    projects = []
    for family, count in sizes.items():
        for k in range(count):
            projects.append(project_of(
                f"{family}_p{k}", family, ["m"], [[1.0], [2.0]], [0, 1],
            ))
    return projects


class TestEnumeratePairs:
    def test_single_family_of_three(self):
        plans = enumerate_pairs(family_fixture({"a": 3}), Method.CPDP_PURE)
        assert len(plans) == 6

    def test_single_project_empty_plan(self):
        assert enumerate_pairs(family_fixture({"a": 1}), Method.CPDP_PURE) == ()

    def test_within_family_total_for_three_families(self):
        projects = family_fixture({"a": 3, "b": 3, "c": 5})
        plans = enumerate_pairs(projects, Method.CPDP_PURE)
        assert len(plans) == 32  # 6 + 6 + 20

    def test_cross_family_total_for_three_families(self):
        projects = family_fixture({"a": 3, "b": 3, "c": 5})
        for method in (Method.IFS_OUR, Method.IFS_MIN):
            plans = enumerate_pairs(projects, method)
            assert len(plans) == 78  # 3*8 + 3*8 + 5*6

    def test_no_self_or_cross_family_pairs_for_pure(self):
        projects = family_fixture({"a": 2, "b": 2})
        plans = enumerate_pairs(projects, Method.CPDP_PURE)
        for plan in plans:
            assert plan.source_name != plan.target_name
            assert plan.source_name.split("_")[0] == plan.target_name.split("_")[0]

    def test_ifs_pairs_are_cross_family_only(self):
        projects = family_fixture({"a": 2, "b": 2})
        plans = enumerate_pairs(projects, Method.IFS_OUR)
        assert len(plans) == 8
        for plan in plans:
            assert plan.source_name.split("_")[0] != plan.target_name.split("_")[0]

    def test_deterministic_order(self):
        projects = family_fixture({"a": 2, "b": 2})
        first = enumerate_pairs(projects, Method.IFS_MIN)
        second = enumerate_pairs(projects, Method.IFS_MIN)
        assert first == second
        assert first[0].source_name == "a_p0"

    def test_mix_not_enumerable(self):
        with pytest.raises(ValueError, match="derived"):
            enumerate_pairs(family_fixture({"a": 2}), Method.MIX)

    def test_duplicate_names_rejected(self):
        project = family_fixture({"a": 1})[0]
        with pytest.raises(ValueError, match="unique"):
            enumerate_pairs([project, project], Method.CPDP_PURE)


class TestPredictionOutcomeValidation:
    def test_non_binary_predictions_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            PredictionOutcome(
                source_name="s", target_name="t", method=Method.CPDP_PURE,
                predicted=np.array([0, 2]), confusion=ConfusionMatrix(1, 0, 1, 0),
            )

    def test_scores_come_from_the_confusion_counts(self):
        confusion = ConfusionMatrix(tp=2, fp=1, tn=0, fn=1)
        outcome = PredictionOutcome(
            source_name="s", target_name="t", method=Method.CPDP_PURE,
            predicted=np.array([1, 1, 1, 0]), confusion=confusion,
        )
        assert (outcome.precision, outcome.recall, outcome.f_measure) == prf(confusion)
        with pytest.raises(TypeError):
            PredictionOutcome(
                source_name="s", target_name="t", method=Method.CPDP_PURE,
                predicted=np.array([1]), confusion=confusion, f_measure=1.0,
            )


class TestRunMemo:
    def test_each_key_filled_once_under_contention(self):
        memo = RunMemo()
        lock = threading.Lock()
        calls: Counter = Counter()
        got: list = []

        def compute(key):
            with lock:
                calls[key] += 1
            time.sleep(0.001)
            if key % 3 == 0:
                raise ValueError(f"bad {key}")
            return 10 * key

        def worker():
            for key in range(12):
                try:
                    value = memo.get(key, lambda: compute(key))
                except ValueError as exc:
                    value = str(exc)
                with lock:
                    got.append((key, value))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert calls == Counter(range(12))
        expected = [(k, f"bad {k}" if k % 3 == 0 else 10 * k) for k in range(12)]
        assert sorted(got) == sorted(expected * 8)
