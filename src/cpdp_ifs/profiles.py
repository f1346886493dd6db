"""Distribution-characteristic profiles.

Every instance, no matter how many metrics its project records, is mapped to
the same 16 summary indicators of its metric-value distribution. Profiled
projects therefore share a feature space and can cross-predict even when
their raw metric sets differ. One kernel profiles a whole matrix at once.

Scaling an instance by c = 2^k scales the location and spread indicators by
c and the variance by c^2 and keeps skewness and kurtosis, bit for bit. Mode
and variation ratio may change: their 4-decimal buckets are absolute, so
scaling can merge or split them. This shows only with ``normalize: false``.
"""

from __future__ import annotations

import numpy as np

from cpdp_ifs.corpus import FeatureSchema, Project
from cpdp_ifs.preprocess import PreprocessConfig, preprocess_matrix
from cpdp_ifs.stats import row_median, row_quantiles

INDICATOR_NAMES: tuple[str, ...] = (
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

# Values within 1e-4 of each other count as one mode candidate; raw metric
# vectors are short, so exact-equality modes would almost always degenerate.
_MODE_DECIMALS = 4
_DEGENERATE_SPREAD = 1e-12


def _mode_and_variation_ratio(sorted_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per sorted row: the first value of the longest rounded-key run, and
    the share of values outside it."""
    m, n = sorted_rows.shape
    keys = np.round(sorted_rows, _MODE_DECIMALS)
    # Rounding is monotone, so equal keys form runs in a sorted row;
    # ``starts[:, n]`` is a sentinel one past the last value.
    starts = np.ones((m, n + 1), dtype=bool)
    starts[:, 1:n] = keys[:, 1:] != keys[:, :-1]
    positions = np.arange(n + 1)
    later_starts = np.where(starts, positions, n)[:, ::-1]
    next_start = np.minimum.accumulate(later_starts, axis=1)[:, ::-1]
    run_lengths = np.where(starts[:, :n], next_start[:, 1:] - positions[:n], 0)
    winner = run_lengths.argmax(axis=1)  # ties fall to the first run, the smallest key
    rows = np.arange(m)
    return sorted_rows[rows, winner], 1.0 - run_lengths[rows, winner] / n


def _indicator_matrix(rows: np.ndarray) -> np.ndarray:
    """The 16 indicators of every row of a two-dimensional matrix."""
    if rows.shape[1] == 0:
        raise ValueError("empty instance")
    if not np.all(np.isfinite(rows)):
        raise ValueError("instance contains non-finite values")
    # Sorting first makes every indicator exactly permutation invariant;
    # summation order otherwise leaks into the low bits.
    v = np.sort(rows, axis=1)
    m, n = v.shape

    minimum = v[:, 0]
    maximum = v[:, -1]
    total = v.sum(axis=1)
    mean = total / n
    median = row_median(v)
    mode, variation_ratio = _mode_and_variation_ratio(v)
    # One partition per quartile, as np.quantile makes: a shared kth list
    # could move a zero of the other sign to the quartile's index.
    q1 = row_quantiles(v, (0.25,))[0]
    q3 = row_quantiles(v, (0.75,))[0]
    # The mean of a constant row of large values misses it by rounding, and
    # that noise can exceed the absolute threshold, so equal ends count as
    # no spread at all.
    flat = maximum == minimum
    variance = np.where(flat, 0.0, v.var(axis=1, ddof=1)) if n > 1 else np.zeros(m)
    sd = np.sqrt(variance)
    deviations = v - mean[:, None]
    mad = np.where(flat, 0.0, np.abs(deviations).mean(axis=1))

    sd_pop = np.sqrt((deviations**2).mean(axis=1))
    spread = (sd_pop >= _DEGENERATE_SPREAD) & ~flat
    z = deviations / np.where(spread, sd_pop, 1.0)[:, None]
    skewness = np.where(spread, (z**3).mean(axis=1), 0.0)
    kurtosis = np.where(spread, (z**4).mean(axis=1) - 3.0, 0.0)

    return np.column_stack(
        (minimum, maximum, maximum - minimum, total, mean, median, mode, q1, q3, q3 - q1)
        + (variance, sd, mad, skewness, kurtosis, variation_ratio)
    )


def characterize_instance(values: np.ndarray) -> np.ndarray:
    """The 16 indicators of one instance's metric values, as a ``(16,)`` row
    in ``INDICATOR_NAMES`` order.

    The result depends only on the multiset of values, not their order.
    """
    row = np.asarray(values, dtype=float).ravel()
    return _indicator_matrix(row[np.newaxis, :])[0]


def characterize_project(
    project: Project, preprocessing: PreprocessConfig = PreprocessConfig()
) -> Project:
    """Preprocess a project, then profile every instance row.

    Preprocessing runs on the raw metric matrix (the project's own columns);
    the indicators are computed from each transformed row. The result is a
    project over ``INDICATOR_NAMES`` with the same name, family and labels.
    Use ``PreprocessConfig(normalize=False)`` for projects with a single
    instance, which cannot be z-scored.
    """
    matrix = preprocess_matrix(project.matrix, preprocessing)
    return Project(
        project.name, project.dataset_family, FeatureSchema(INDICATOR_NAMES),
        _indicator_matrix(matrix), project.labels,
    )
