import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpdp_ifs.config import PreprocessConfig
from cpdp_ifs.corpus import DataError, FeatureSchema, Project
from cpdp_ifs.profiles import (
    INDICATOR_NAMES,
    characterize_instance,
    characterize_project,
)

from oracles import _indicator_values, reference_indicators


def indicators(values) -> dict[str, float]:
    return dict(zip(INDICATOR_NAMES, characterize_instance(values)))


CANONICAL_ORDER = (
    "min",
    "max",
    "range",
    "sum",
    "mean",
    "median",
    "mode",
    "first_quartile",
    "third_quartile",
    "interquartile_range",
    "variance",
    "standard_deviation",
    "mean_absolute_deviation",
    "skewness",
    "excess_kurtosis",
    "variation_ratio",
)


def project_from(matrix, labels, names=None, name="p", family="fam"):
    matrix = np.asarray(matrix, dtype=float)
    if names is None:
        names = tuple(f"m{i}" for i in range(matrix.shape[1]))
    schema = FeatureSchema(feature_names=tuple(names), label_column="bug")
    return Project(name=name, dataset_family=family, schema=schema,
                   matrix=matrix, labels=np.asarray(labels))


class TestIndicatorOrder:
    def test_canonical_names(self):
        assert INDICATOR_NAMES == CANONICAL_ORDER

    def test_sixteen_indicators(self):
        assert len(INDICATOR_NAMES) == 16


class TestCharacterizeInstance:
    def test_returns_the_indicator_row(self):
        row = characterize_instance(np.array([[4.0, 1.0], [3.0, 2.0]]))
        assert row.shape == (16,) and row.dtype == float
        assert np.array_equal(row, characterize_instance([1.0, 2.0, 3.0, 4.0]))
        assert row[INDICATOR_NAMES.index("sum")] == 10.0

    def test_hand_vector(self):
        d = indicators([1.0, 2.0, 3.0, 4.0])
        assert d["min"] == 1.0
        assert d["max"] == 4.0
        assert d["range"] == 3.0
        assert d["sum"] == 10.0
        assert d["mean"] == 2.5
        assert d["median"] == 2.5
        assert d["first_quartile"] == 1.75
        assert d["third_quartile"] == 3.25
        assert d["interquartile_range"] == 1.5
        assert abs(d["variance"] - 5.0 / 3.0) < 1e-12
        assert abs(d["standard_deviation"] - np.sqrt(5.0 / 3.0)) < 1e-12
        assert round(d["standard_deviation"], 4) == 1.2910

    def test_hand_vector_mode_and_ratio(self):
        # all four values are distinct: the tie breaks to the smallest
        d = indicators([4.0, 2.0, 1.0, 3.0])
        assert d["mode"] == 1.0
        assert d["variation_ratio"] == 0.75

    def test_constant_vector(self):
        d = indicators([7.5] * 6)
        for key in ("min", "max", "mean", "median", "mode", "first_quartile", "third_quartile"):
            assert d[key] == 7.5
        for key in (
            "range",
            "interquartile_range",
            "variance",
            "standard_deviation",
            "mean_absolute_deviation",
            "skewness",
            "excess_kurtosis",
            "variation_ratio",
        ):
            assert d[key] == 0.0
        assert d["sum"] == 45.0

    def test_constant_large_vector_has_no_shape(self):
        # The computed mean misses 123456.7 by rounding, so the population
        # spread is 1.6e-11, above the degenerate threshold; a row with equal
        # ends still has no spread, skewness or excess kurtosis.
        d = indicators([123456.7] * 7)
        assert d["variance"] == 0.0
        assert d["standard_deviation"] == 0.0
        assert d["mean_absolute_deviation"] == 0.0
        assert d["skewness"] == 0.0
        assert d["excess_kurtosis"] == 0.0

    def test_single_value(self):
        d = indicators([3.0])
        assert d["min"] == d["max"] == d["median"] == d["mode"] == 3.0
        assert d["first_quartile"] == d["third_quartile"] == 3.0
        assert d["variance"] == 0.0
        assert d["variation_ratio"] == 0.0

    @pytest.mark.parametrize("values", [[-0.0], [-0.0, 1.0, 2.0, -0.0], [-0.0, 0.0, -0.0, 3.0]])
    def test_negative_zero_profiles_as_zero(self, values):
        zeroed = [v + 0.0 for v in values]
        assert characterize_instance(values).tobytes() == characterize_instance(zeroed).tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty instance"):
            characterize_instance([])

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            characterize_instance([1.0, np.nan])

    def test_mode_groups_within_tolerance(self):
        # 1.00001 and 1.00002 land in one 4-decimal bucket
        d = indicators([5.0, 1.00002, 1.00001])
        assert d["mode"] == 1.00001
        assert abs(d["variation_ratio"] - 1.0 / 3.0) < 1e-12

    def test_mode_tie_takes_smallest_bucket(self):
        d = indicators([2.0, 2.0, 9.0, 9.0, 5.0])
        assert d["mode"] == 2.0
        assert abs(d["variation_ratio"] - 3.0 / 5.0) < 1e-12

    def test_skewness_sign(self):
        right_tailed = indicators([1.0, 1.1, 1.2, 9.0])
        assert right_tailed["skewness"] > 0.0
        left_tailed = indicators([-9.0, 1.0, 1.1, 1.2])
        assert left_tailed["skewness"] < 0.0

    def test_excess_kurtosis_hand_value(self):
        d = indicators([1.0, 2.0, 3.0, 4.0])
        assert abs(d["excess_kurtosis"] - (-1.36)) < 1e-12

    @given(st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=24), st.randoms())
    def test_permutation_invariance(self, values, shuffler):
        base = characterize_instance(values)
        permuted = list(values)
        shuffler.shuffle(permuted)
        assert np.array_equal(base, characterize_instance(permuted))

    @given(st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=1, max_size=24))
    def test_ordering_invariants(self, values):
        d = indicators(values)
        assert d["min"] <= d["first_quartile"] <= d["median"]
        assert d["median"] <= d["third_quartile"] <= d["max"]
        assert d["variance"] >= 0.0
        assert d["interquartile_range"] >= 0.0
        assert 0.0 <= d["variation_ratio"] < 1.0
        assert d["min"] <= d["mode"] <= d["max"]

    def test_bulk_against_reference(self):
        rng = np.random.default_rng(12)
        for trial in range(1000):
            size = int(rng.integers(1, 30))
            values = rng.normal(0.0, 10.0, size=size)
            if trial % 3 == 0:
                values = np.round(values, 1)  # force repeated values
            got = indicators(values)
            want = reference_indicators(list(values))
            for key in INDICATOR_NAMES:
                assert got[key] == pytest.approx(want[key], rel=1e-9, abs=1e-9), key


class TestCharacterizeProject:
    def test_shape_is_width_independent(self):
        rng = np.random.default_rng(0)
        wide = project_from(rng.gamma(2, 1, (9, 76)), [0, 1] * 4 + [0])
        narrow = project_from(rng.gamma(2, 1, (9, 20)), [0, 1] * 4 + [0])
        assert characterize_project(wide).matrix.shape == (9, 16)
        assert characterize_project(narrow).matrix.shape == (9, 16)

    def test_labels_and_names_carried(self):
        project = project_from([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [0, 1, 1], name="x", family="f")
        profiled = characterize_project(project)
        assert profiled.name == "x"
        assert profiled.dataset_family == "f"
        assert profiled.schema.feature_names == INDICATOR_NAMES
        assert np.array_equal(profiled.labels, project.labels)

    def test_single_instance_needs_normalize_off(self):
        project = project_from([[1.0, 5.0, 9.0]], [1])
        with pytest.raises(ValueError, match="insufficient rows"):
            characterize_project(project)
        profiled = characterize_project(project, PreprocessConfig(normalize=False))
        assert profiled.matrix.shape == (1, 16)
        assert profiled.matrix[0, INDICATOR_NAMES.index("median")] == 5.0

    def test_single_feature_project(self):
        project = project_from([[1.0], [2.0], [4.0]], [0, 1, 0])
        profiled = characterize_project(project, PreprocessConfig(normalize=False))
        # each row has one value: min == max == mean == that value
        assert np.array_equal(profiled.matrix[:, 0], profiled.matrix[:, 1])

    def test_rows_match_instance_function(self):
        rng = np.random.default_rng(3)
        project = project_from(rng.gamma(2, 1, (12, 7)), rng.integers(0, 2, 12))
        config = PreprocessConfig(normalize=False)
        profiled = characterize_project(project, config)
        for i in range(project.n_instances):
            row = characterize_instance(project.matrix[i])
            assert np.array_equal(profiled.matrix[i], row)

    def test_normalization_applied_before_profiling(self):
        matrix = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        profiled = characterize_project(project_from(matrix, [0, 1, 0]))
        # both columns z-score to the same values, so every row is constant
        assert np.allclose(profiled.matrix[:, INDICATOR_NAMES.index("range")], 0.0, atol=1e-12)

    def test_outlier_instance_has_larger_spread(self):
        moderate = [5.0, 5.2, 4.9, 5.1, 5.0, 4.8]
        outlier = [5.0, 5.2, 4.9, 5.1, 5.0, 50.0]
        d_mod = indicators(moderate)
        d_out = indicators(outlier)
        for key in ("standard_deviation", "range", "excess_kurtosis"):
            assert d_out[key] > d_mod[key]


# Row values that stress the kernel: wide floats, ties at the 4th decimal
# (the mode bucket), signed zeros, and spreads near _DEGENERATE_SPREAD.
ROW_VALUES = {
    "wide": st.floats(-1e6, 1e6, allow_nan=False),
    "ties": st.tuples(
        st.integers(-20, 20), st.sampled_from([0.0, 1e-5, 4e-5, 5e-5, -5e-5, 6e-5])
    ).map(lambda t: t[0] * 1e-4 + t[1]),
    "zeros": st.sampled_from([0.0, -0.0, 1e-4, -1e-4, 5e-5, -5e-5]),
    "near_degenerate": st.tuples(st.floats(-2.0, 2.0), st.integers(-16, -10)).map(
        lambda t: 1.0 + t[0] * 10.0 ** t[1]
    ),
}


@st.composite
def kernel_matrices(draw):
    n_rows = draw(st.integers(1, 5))
    width = draw(st.integers(1, 70))
    rows = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(sorted(ROW_VALUES) + ["constant"]))
        if kind == "constant":
            value = draw(st.floats(-1e6, 1e6, allow_nan=False))
            rows.append(np.full(width, value))
        else:
            rows.append(draw(arrays(float, width, elements=ROW_VALUES[kind])))
    return np.stack(rows)


class TestRowKernelMatchesScalarOracle:
    @staticmethod
    def assert_rows_match(matrix):
        project = project_from(matrix, np.zeros(matrix.shape[0], dtype=int))
        profiled = characterize_project(project, PreprocessConfig(normalize=False))
        for i, row in enumerate(matrix):
            assert profiled.matrix[i].tobytes() == _indicator_values(row).tobytes()

    @given(kernel_matrices())
    def test_project_rows_bitwise_equal_scalar_kernel(self, matrix):
        self.assert_rows_match(matrix)

    def test_every_width_up_to_70(self):
        rng = np.random.default_rng(5)
        for width in range(1, 71):
            near_zero = rng.choice([0.0, -0.0, 1e-4, -1e-4, 5e-5, -5e-5], (4, width))
            ties = np.round(rng.normal(0.0, 1e-3, (4, width)), 4) + rng.choice(
                [0.0, 1e-5, 4e-5, 5e-5, 6e-5], (4, width)
            )
            tiny_spread = 1.0 + rng.normal(0.0, 1.0, (4, width)) * 1e-12
            constant = np.repeat(rng.normal(0.0, 100.0, (4, 1)), width, axis=1)
            wide = rng.gamma(2.0, 1.5, (4, width)) * 10.0 ** rng.integers(-6, 7)
            for matrix in (near_zero, ties, tiny_spread, constant, wide):
                self.assert_rows_match(matrix)


SCALED_BY_C = (
    "min",
    "max",
    "range",
    "sum",
    "mean",
    "median",
    "first_quartile",
    "third_quartile",
    "interquartile_range",
    "standard_deviation",
    "mean_absolute_deviation",
)


class TestScaleEquivariance:
    # Multiples of 2^-10 below 2^10 sum exactly, so a row's spread is either
    # exactly 0 or far above _DEGENERATE_SPREAD, and scaling by a power of
    # two is exact in every step.
    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 5), st.integers(1, 30)),
            elements=st.integers(-(2**20), 2**20).map(lambda k: k / 1024.0),
        ),
        st.integers(-10, 10),
    )
    def test_power_of_two_scaling(self, matrix, k):
        c = 2.0**k
        config = PreprocessConfig(normalize=False)
        labels = np.zeros(matrix.shape[0], dtype=int)
        base = characterize_project(project_from(matrix, labels), config).matrix
        scaled = characterize_project(project_from(c * matrix, labels), config).matrix
        column = {name: i for i, name in enumerate(INDICATOR_NAMES)}
        for name in SCALED_BY_C:
            assert np.array_equal(scaled[:, column[name]], c * base[:, column[name]]), name
        variance = column["variance"]
        assert np.array_equal(scaled[:, variance], c * c * base[:, variance])
        for name in ("skewness", "excess_kurtosis"):
            assert np.array_equal(scaled[:, column[name]], base[:, column[name]]), name

    def test_mode_buckets_are_absolute(self):
        # 1.00006 and 1.00007 share a bucket that 1.00004 misses; doubled, all
        # three round to 2.0001, so the mode is not twice the original mode.
        base = indicators([1.00004, 1.00006, 1.00007])
        doubled = indicators([2.00008, 2.00012, 2.00014])
        assert base["mode"] == 1.00006
        assert doubled["mode"] == 2.00008
        assert base["variation_ratio"] == pytest.approx(1.0 / 3.0)
        assert doubled["variation_ratio"] == 0.0
