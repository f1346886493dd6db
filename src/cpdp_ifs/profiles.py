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

from dataclasses import dataclass, field

import numpy as np

from cpdp_ifs.corpus import Project
from cpdp_ifs.preprocess import PreprocessConfig, preprocess_matrix

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
    median = np.median(v, axis=1)
    mode, variation_ratio = _mode_and_variation_ratio(v)
    q1 = np.quantile(v, 0.25, axis=1)
    q3 = np.quantile(v, 0.75, axis=1)
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


@dataclass(frozen=True)
class CharacteristicVector:
    """The 16 distribution indicators of one instance, in canonical order."""

    values: np.ndarray
    names: tuple[str, ...] = INDICATOR_NAMES

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(INDICATOR_NAMES),):
            raise ValueError(f"expected {len(INDICATOR_NAMES)} indicator values, got {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def as_dict(self) -> dict[str, float]:
        return {name: float(value) for name, value in zip(self.names, self.values)}

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.names.index(name)])


def characterize_instance(values: np.ndarray) -> CharacteristicVector:
    """Summarize one instance's metric values into the 16 indicators.

    The result depends only on the multiset of values, not their order.
    """
    row = np.asarray(values, dtype=float).ravel()
    return CharacteristicVector(values=_indicator_matrix(row[np.newaxis, :])[0])


@dataclass(frozen=True)
class ProfiledProject:
    """A project lifted into the shared 16-indicator feature space."""

    name: str
    dataset_family: str
    matrix: np.ndarray
    labels: np.ndarray
    source_metric_count: int
    indicator_names: tuple[str, ...] = field(default=INDICATOR_NAMES)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int8)
        if matrix.ndim != 2 or matrix.shape[1] != len(INDICATOR_NAMES):
            raise ValueError(f"profiled matrix must have {len(INDICATOR_NAMES)} columns")
        if labels.shape != (matrix.shape[0],):
            raise ValueError("label count does not match profiled instances")
        matrix.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "labels", labels)

    @property
    def n_instances(self) -> int:
        return self.matrix.shape[0]


def characterize_project(
    project: Project, preprocessing: PreprocessConfig = PreprocessConfig()
) -> ProfiledProject:
    """Preprocess a project, then profile every instance row.

    Preprocessing runs on the raw metric matrix (the project's own columns);
    the indicators are computed from each transformed row. Use
    ``PreprocessConfig(normalize=False)`` for projects with a single instance,
    which cannot be z-scored.
    """
    matrix, _ = preprocess_matrix(project.matrix, preprocessing)
    profiled = _indicator_matrix(matrix)
    return ProfiledProject(
        name=project.name,
        dataset_family=project.dataset_family,
        matrix=profiled,
        labels=project.labels,
        source_metric_count=project.n_features,
    )
