"""Per-project preprocessing: optional log filter and z-score normalization.

Each project is normalized against its own column statistics, never against
another project's, so source and target stay independently scaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PreprocessConfig:
    """Which preprocessing steps to apply before training or profiling.

    ``normalize`` exists so single-instance inputs (which cannot be z-scored)
    can still be profiled.
    """

    log_filter: bool = False
    normalize: bool = True


def log_filter(matrix: np.ndarray) -> np.ndarray:
    """Apply ln(x + 1) elementwise. Raw metric values must be non-negative."""
    matrix = np.asarray(matrix, dtype=float)
    if np.any(matrix < 0):
        raise ValueError("log filter undefined for negative values")
    return np.log1p(matrix)


def zscore(matrix: np.ndarray) -> np.ndarray:
    """Z-score each column with its own mean and sample (n-1) deviation.

    Columns that are exactly constant become all zeros. Requires at least
    two rows; a single row has no sample deviation.
    """
    # Row-major layout pins the reduction order, so column statistics are
    # bitwise reproducible no matter how the caller sliced the matrix.
    matrix = np.ascontiguousarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("zscore expects a two-dimensional matrix")
    m = matrix.shape[0]
    if m < 2:
        raise ValueError("insufficient rows for normalization (need at least 2)")
    mean = matrix.mean(axis=0)
    # Exact max==min is the constancy test; near-cancellation in the mean can
    # leave a tiny nonzero sd on constant columns and blow up the quotient.
    constant = matrix.max(axis=0) == matrix.min(axis=0)
    sd = np.where(constant, 1.0, matrix.std(axis=0, ddof=1))
    normalized = (matrix - mean) / sd
    normalized[:, constant] = 0.0
    return normalized


def preprocess_matrix(matrix: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """Run the configured pipeline: log filter first, then normalization."""
    matrix = np.asarray(matrix, dtype=float)
    if config.log_filter:
        matrix = log_filter(matrix)
    if config.normalize:
        return zscore(matrix)
    return matrix.copy()
