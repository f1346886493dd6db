import math

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpdp_ifs import stats
from cpdp_ifs.stats import (
    ComparisonResult,
    ConfusionMatrix,
    cliffs_delta,
    compare_paired,
    pearson,
    prf,
    sorted_quantiles,
    wilcoxon_signed_rank,
    _midranks,
    _student_t_two_sided_p,
)

from cpdp_ifs.corpus import DataError, dpr

from oracles import wilcoxon_exact_oracle

# Best per-target f-measures reported for the two mapping strategies in the
# no-transfer setting (8 targets).
PURE_OUR = np.array([0.45, 0.50, 0.28, 0.50, 0.47, 0.51, 0.32, 0.32])
PURE_MIN = np.array([0.37, 0.52, 0.26, 0.31, 0.39, 0.10, 0.30, 0.13])
# Same comparison in the transfer-assisted setting.
TCA_OUR = np.array([0.37, 0.48, 0.37, 0.57, 0.58, 0.56, 0.34, 0.39])
TCA_MIN = np.array([0.35, 0.46, 0.35, 0.16, 0.26, 0.19, 0.14, 0.35])
# Best per-target f-measures of the two settings over all 11 targets.
SETTING_PURE = np.array([0.46, 0.50, 0.34, 0.50, 0.47, 0.42, 0.32, 0.33, 0.59, 0.65, 0.44])
SETTING_TCA = np.array([0.50, 0.53, 0.35, 0.57, 0.61, 0.59, 0.34, 0.39, 0.49, 0.63, 0.37])


class TestConfusionMatrix:
    def test_from_predictions(self):
        actual = np.array([1, 1, 0, 0, 1, 0])
        predicted = np.array([1, 0, 0, 1, 1, 0])
        cm = ConfusionMatrix.from_predictions(actual, predicted)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)
        assert cm.tp + cm.fp + cm.tn + cm.fn == 6

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, tn=0, fn=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_predictions(np.array([1, 0]), np.array([1]))

    def test_non_binary_actual_rejected(self):
        # Counted before as fp=1, tn=1: a 2 is not a negative.
        with pytest.raises(ValueError, match="only 0 and 1"):
            ConfusionMatrix.from_predictions(np.array([2, 0]), np.array([1, 0]))

    def test_non_binary_predicted_rejected(self):
        # Counted before as two negatives.
        with pytest.raises(ValueError, match="only 0 and 1"):
            ConfusionMatrix.from_predictions(np.array([1, 0]), np.array([-1, 0.5]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="only 0 and 1"):
            ConfusionMatrix.from_predictions(np.array([1.0, np.nan]), np.array([1, 0]))

    def test_bool_and_float_arrays_accepted(self):
        actual = np.array([True, True, False, False, True, False])
        predicted = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        cm = ConfusionMatrix.from_predictions(actual, predicted)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)

    def test_empty_counts_nothing(self):
        cm = ConfusionMatrix.from_predictions(np.array([], dtype=np.int8), np.array([]))
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 0, 0, 0)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=40))
    def test_counts_match_masks(self, pairs):
        actual = np.array([a for a, _ in pairs], dtype=np.int8)
        predicted = np.array([p for _, p in pairs], dtype=np.int8)
        cm = ConfusionMatrix.from_predictions(actual, predicted)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (
            pairs.count((1, 1)), pairs.count((0, 1)), pairs.count((0, 0)), pairs.count((1, 0))
        )


# Finite values with ties, subnormals and extremes, where a different index
# or interpolation order would show in the bits. The helper takes sorted rows
# without -0.0, so each drawn row is sorted and its zeros made +0.0.
ORDER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestRowOrderStatistics:
    """On sorted rows, the helper is numpy's quantile, bit for bit."""

    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 4), st.integers(1, 70)),
            elements=ORDER_VALUES,
        ),
    )
    def test_matrices_match_numpy(self, rows):
        rows = np.sort(rows, axis=1) + 0.0
        with np.errstate(all="ignore"):
            got = sorted_quantiles(rows, (0.25, 0.75))
            for q, row in zip((0.25, 0.75), got):
                assert row.tobytes() == np.quantile(rows, q, axis=1).tobytes()

    @given(arrays(float, st.integers(1, 70), elements=ORDER_VALUES))
    def test_boxplot_quartiles_match_numpy(self, row):
        row = np.sort(row) + 0.0
        with np.errstate(all="ignore"):
            got = sorted_quantiles(row, (0.25, 0.5, 0.75))
            want = np.quantile(row, (0.25, 0.5, 0.75))
        assert got.tobytes() == want.tobytes()

    def test_one_value(self):
        # Every position is 0, the one value.
        row = np.array([2.5])
        assert sorted_quantiles(row, (0.0, 0.25, 0.5, 0.75, 1.0)).tolist() == [2.5] * 5

    def test_linear_rule(self):
        rows = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert sorted_quantiles(rows, (0.25, 0.5, 0.75))[:, 0].tolist() == [1.75, 2.5, 3.25]


class TestPrf:
    def test_perfect_prediction(self):
        assert prf(ConfusionMatrix(tp=10, fp=0, tn=3, fn=0)) == (1.0, 1.0, 1.0)

    def test_hand_case(self):
        precision, recall, f = prf(ConfusionMatrix(tp=2, fp=1, tn=0, fn=1))
        assert precision == pytest.approx(2.0 / 3.0)
        assert recall == pytest.approx(2.0 / 3.0)
        assert f == pytest.approx(2.0 / 3.0)

    def test_zero_over_zero_convention(self):
        assert prf(ConfusionMatrix(tp=0, fp=0, tn=4, fn=5)) == (0.0, 0.0, 0.0)
        assert prf(ConfusionMatrix(tp=0, fp=3, tn=4, fn=0)) == (0.0, 0.0, 0.0)
        assert prf(ConfusionMatrix(tp=0, fp=0, tn=4, fn=0)) == (0.0, 0.0, 0.0)


class TestDpr:
    def test_equal_ratios(self):
        assert dpr(0.3, 0.3) == 1.0

    def test_high_ratio_pair(self):
        assert round(dpr(0.195, 0.029), 2) == 6.72

    def test_low_ratio_pair(self):
        assert abs(dpr(0.223, 0.464) - 0.48) < 0.01

    def test_zero_target_rejected(self):
        with pytest.raises(DataError, match="DPR undefined"):
            dpr(0.2, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dpr(1.2, 0.5)


class TestCliffsDelta:
    def test_identical_samples(self):
        assert cliffs_delta([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_complete_dominance(self):
        assert cliffs_delta([10.0, 11.0], [1.0, 2.0]) == 1.0
        assert cliffs_delta([1.0, 2.0], [10.0, 11.0]) == -1.0

    def test_reported_pure_setting(self):
        assert cliffs_delta(PURE_OUR, PURE_MIN) == 0.5

    def test_reported_tca_setting(self):
        delta = cliffs_delta(TCA_OUR, TCA_MIN)
        assert delta == 50.0 / 64.0
        assert round(delta, 3) == 0.781

    def test_reported_setting_comparison(self):
        delta = cliffs_delta(SETTING_PURE, SETTING_TCA)
        assert delta == pytest.approx(-27.0 / 121.0)
        assert round(delta, 3) == -0.223

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cliffs_delta([], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            cliffs_delta([bad], [1.0])
        with pytest.raises(ValueError, match="finite"):
            cliffs_delta([1.0, 2.0], [0.5, bad])

    def test_extremes_compare_without_overflow(self):
        with np.errstate(all="raise"):
            assert cliffs_delta([1e308, -1e308], [-1e308, 1e308]) == 0.0
            assert cliffs_delta([1e308], [-1e308, 0.0]) == 1.0

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=15),
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=15),
    )
    def test_antisymmetry_and_bounds(self, x, y):
        d = cliffs_delta(x, y)
        assert -1.0 <= d <= 1.0
        assert d == -cliffs_delta(y, x)


class TestWilcoxonExactGoldens:
    def test_three_positive_differences(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert result.method_used == "exact"
        assert result.statistic == 6.0
        assert result.p_value == 0.25

    def test_five_identical_differences(self):
        x = np.array([3.0, 4.0, 5.0, 6.0, 7.0])
        result = wilcoxon_signed_rank(x, x - 2.0)
        assert result.p_value == 2.0 / 32.0

    def test_pure_setting_columns(self):
        result = wilcoxon_signed_rank(PURE_OUR, PURE_MIN)
        assert result.method_used == "exact"
        assert result.p_value == 0.03125
        assert 0.02 <= result.p_value <= 0.05

    def test_tca_setting_columns(self):
        result = wilcoxon_signed_rank(TCA_OUR, TCA_MIN)
        assert result.p_value == 2.0 / 256.0

    def test_zero_differences_dropped(self):
        result = wilcoxon_signed_rank([1.0, 5.0, 2.0, 3.0], [1.0, 5.0, 0.0, 0.0])
        assert result.n_effective == 2

    def test_all_zero_differences_rejected(self):
        with pytest.raises(DataError, match="degenerate pairing"):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            wilcoxon_signed_rank([1.0], [0.0], method="bogus")

    @pytest.mark.parametrize("method", ["exact", "asymptotic"])
    def test_differences_past_the_float_range_rejected(self, method):
        # Each overflowing difference would become inf and tie with the others.
        x = [1e308, -1e308, 0.5, 0.1, 0.7]
        y = [-1e308, 1e308, 0.25, 0.3, 0.2]
        with np.errstate(all="raise"):
            with pytest.raises(DataError, match="paired differences must lie within the float range"):
                wilcoxon_signed_rank(x, y, method=method)

    def test_exact_refuses_more_than_200_pairs_before_building_a_table(self, monkeypatch):
        monkeypatch.setattr(stats, "_exact_two_sided_p", lambda *args: pytest.fail("table built"))
        x, y = np.arange(1.0, 202.0), np.zeros(201)
        refusal = "at most 200 effective pairs, got 201; use method 'asymptotic'"
        with pytest.raises(DataError, match=refusal):
            wilcoxon_signed_rank(x, y, method="exact")
        for method in ("auto", "asymptotic"):
            assert wilcoxon_signed_rank(x, y, method=method).method_used == "asymptotic"

    def test_swap_preserves_p(self):
        p_forward = wilcoxon_signed_rank(PURE_OUR, PURE_MIN).p_value
        p_backward = wilcoxon_signed_rank(PURE_MIN, PURE_OUR).p_value
        assert p_forward == p_backward


class TestWilcoxonAsymptotic:
    def test_tca_setting_normal_approximation(self):
        result = wilcoxon_signed_rank(TCA_OUR, TCA_MIN, method="asymptotic")
        assert abs(result.p_value - 0.012) <= 0.002

    def test_pure_setting_in_reported_band(self):
        result = wilcoxon_signed_rank(PURE_OUR, PURE_MIN, method="asymptotic")
        assert 0.02 <= result.p_value <= 0.05

    def test_auto_switches_above_twelve(self):
        x = np.arange(1.0, 14.0)
        y = x - np.linspace(0.5, 1.5, 13)
        result = wilcoxon_signed_rank(x, y)
        assert result.method_used == "asymptotic"
        assert result.n_effective == 13

    def test_matches_scipy_normal_approximation(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 150:
            n = int(rng.integers(13, 40))
            x = rng.normal(size=n)
            y = x - rng.normal(0.3, 0.7, size=n)
            if rng.random() < 0.5:
                y = np.round(y, 1)  # force tied magnitudes
                x = np.round(x, 1)
            diffs = x - y
            if np.all(diffs == 0.0):
                continue
            ours = wilcoxon_signed_rank(x, y, method="asymptotic")
            ref = scipy.stats.wilcoxon(
                x, y, zero_method="wilcox", correction=False, alternative="two-sided",
                method="approx",
            )
            assert ours.p_value == pytest.approx(float(ref.pvalue), rel=1e-10, abs=1e-12)
            checked += 1


class TestWilcoxonOracleEquivalence:
    def test_hand_case_matches(self):
        main = wilcoxon_signed_rank([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        statistic, p_value = wilcoxon_exact_oracle([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert statistic == main.statistic
        assert p_value == main.p_value

    def test_oracle_size_cap(self):
        x = np.arange(16.0)
        with pytest.raises(ValueError, match="n too large"):
            wilcoxon_exact_oracle(x, x + 1.0)

    def test_bitwise_agreement_on_random_pairs(self):
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 200:
            n = int(rng.integers(1, 13))
            x = rng.normal(size=n)
            y = x - rng.normal(0.0, 1.0, size=n)
            if rng.random() < 0.4:
                x = np.round(x, 1)
                y = np.round(y, 1)  # tied and zero differences
            if np.all(x - y == 0.0):
                continue
            main = wilcoxon_signed_rank(x, y, method="exact")
            statistic, p_value = wilcoxon_exact_oracle(x, y)
            assert main.statistic == statistic
            assert main.p_value == p_value  # bit-for-bit, both sides exact
            checked += 1

    @given(
        st.lists(
            st.tuples(st.integers(-8, 8), st.integers(-8, 8)).filter(lambda t: t[0] != t[1]),
            min_size=1,
            max_size=10,
        )
    )
    def test_bitwise_agreement_property(self, pairs):
        x = np.array([float(a) for a, _ in pairs])
        y = np.array([float(b) for _, b in pairs])
        main = wilcoxon_signed_rank(x, y, method="exact")
        statistic, p_value = wilcoxon_exact_oracle(x, y)
        assert main.statistic == statistic
        assert main.p_value == p_value


class TestExactVersusAsymptotic:
    def test_tail_agreement_without_ties(self):
        # The normal approximation misses the exact tail mass by up to
        # ~0.04 near the center of the null distribution at n=12, so the
        # sampled pairs carry a location shift: the comparison is meaningful
        # where the test actually rejects.
        rng = np.random.default_rng(16)
        seen = 0
        for _ in range(200):
            x = rng.normal(size=12)
            y = x - rng.normal(1.1, 0.55, size=12)
            diffs = x - y
            ranks = scipy.stats.rankdata(np.abs(diffs))
            if len(set(ranks)) != 12:
                continue
            exact = wilcoxon_signed_rank(x, y, method="exact")
            approx = wilcoxon_signed_rank(x, y, method="asymptotic")
            assert abs(exact.p_value - approx.p_value) <= 0.02
            seen += 1
        assert seen >= 190


class TestComparisonBundle:
    def test_fields_consistent(self):
        result = compare_paired(PURE_OUR, PURE_MIN)
        assert isinstance(result, ComparisonResult)
        assert result.p_value == 0.03125
        assert result.cliffs_delta == 0.5
        assert result.n_pairs == 8
        assert "exact" in result.method_note

    def test_delta_counts_dropped_pairs(self):
        x = np.array([1.0, 2.0, 5.0])
        y = np.array([1.0, 1.0, 2.0])
        result = compare_paired(x, y)
        # the tied first pair is dropped by the test but not by the delta
        assert result.method_note.endswith("2 effective of 3 pairs")
        assert result.cliffs_delta == cliffs_delta(x, y)


class TestPearson:
    def test_perfect_positive(self):
        r, p = pearson(np.array([1.0, 2.0, 3.0]), np.array([3.0, 5.0, 7.0]))
        assert r == 1.0
        assert p == 0.0

    def test_perfect_negative(self):
        r, p = pearson(np.array([1.0, 2.0, 3.0]), np.array([-1.0, -2.0, -3.0]))
        assert r == -1.0
        assert p == 0.0

    def test_hand_case(self):
        r, _ = pearson(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]))
        assert round(r, 3) == 0.982

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError, match="zero variance"):
            pearson(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            pearson(np.array([1.0, 2.0]), np.array([3.0, 4.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            pearson(np.array([bad, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="finite"):
            pearson(np.array([1.0, 2.0, 3.0]), np.array([1.0, bad, 3.0]))

    def test_matches_scipy(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = 0.6 * x + rng.normal(scale=0.8, size=n)
            r, p = pearson(x, y)
            ref = scipy.stats.pearsonr(x, y)
            assert r == pytest.approx(float(ref.statistic), rel=1e-10, abs=1e-12)
            assert p == pytest.approx(float(ref.pvalue), rel=1e-8, abs=1e-12)


class TestScipyStatsParity:
    """The numpy midranks and the math-only t tail replace scipy.stats calls."""

    @given(st.lists(st.integers(0, 6).map(lambda v: v / 4.0), min_size=1, max_size=30))
    def test_midranks_match_rankdata_bitwise(self, values):
        magnitudes = np.array(values)
        expected = scipy.stats.rankdata(magnitudes, method="average")
        doubled, tie_counts = _midranks(magnitudes)
        assert doubled.dtype.kind == "i"
        assert np.array_equal(doubled, 2 * expected)
        # One count per tie group, in increasing order of magnitude.
        _, want_counts = np.unique(doubled, return_counts=True)
        assert tie_counts.tolist() == want_counts.tolist()

    def test_pearson_p_matches_t_sf_to_six_decimals(self):
        # dpr_analysis.csv writes p with six decimals.
        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = 0.3 * x + rng.normal(size=n)
            r, p = pearson(x, y)
            t = r * math.sqrt((n - 2) / (1.0 - r * r))
            want = min(1.0, 2.0 * float(scipy.stats.t.sf(abs(t), n - 2)))
            assert f"{p:.6f}" == f"{want:.6f}"


class TestStudentTTail:
    T_VALUES = (0.0, 1e-300, 1e-9, 1e-3, 0.5, 1.0, 2.0, 3.0, 30.0, 1e8)

    @staticmethod
    def reference(t, df):
        with mpmath.workdps(50):
            t = mpmath.mpf(t)
            x = df / (df + t * t)
            return float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))

    def test_two_sided_tail_within_1e13_of_mpmath(self):
        # scipy's stdtr misses this bound: at df=1, t=1e-9 it gives exactly 1.
        for df in [*range(1, 60), 100, 10000]:
            for t in self.T_VALUES:
                assert abs(_student_t_two_sided_p(t, df) - self.reference(t, df)) <= 1e-13, (t, df)

    @pytest.mark.parametrize("df", [10**4, 10**6, 10**8])
    def test_large_df_within_1e13_of_mpmath(self, df):
        # The fraction in x = df/(df+t^2), close to 1 here, was off by 7.8e-12
        # (2.9e-9 relative) at df = 1e8, t = 3.
        for t in (1.0, 2.0, 3.0, 5.0):
            assert abs(_student_t_two_sided_p(t, df) - self.reference(t, df)) <= 1e-13, t

    @given(st.floats(0.0, 50.0), st.integers(1, 59))
    def test_two_sided_tail_random_points(self, t, df):
        assert abs(_student_t_two_sided_p(t, df) - self.reference(t, df)) <= 1e-13

    def test_sign_of_t_is_ignored(self):
        assert _student_t_two_sided_p(-2.5, 7) == _student_t_two_sided_p(2.5, 7)
