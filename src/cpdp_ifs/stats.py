"""Evaluation metrics and the statistics used to compare prediction methods.

Quantiles are read by index from sorted values. The signed-rank test refuses
differences past the float range; Cliff's delta compares, never subtracts.
The exact signed-rank test counts sign assignments with an integer
subset-sum table over doubled midranks. The test suite holds it to
bit-for-bit agreement with a brute-force enumeration that shares none of
its code. The Pearson p-value is a Student-t tail computed as a regularized
incomplete beta with the math module alone. The suite holds it within 1e-13
of a 50-digit reference for df 1-59, 100 and 1e4 at fixed t, and for df 1e4,
1e6 and 1e8 at t <= 5. Outside that, it is up to 2.0e-13 off near t = 3.9
for df 2e3-1e8, and 3.8e-12 at df = 1e9. A run's df is a target's number of
profile sources less 2.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cpdp_ifs.corpus import DataError

_EXACT_CUTOFF = 12
_EXACT_MAX_PAIRS = 200  # the exact table grows as n^3; its tail overflows a float near 1024
_FRACTION_MAX_TERMS = 10_000
_FRACTION_TINY = 1e-300


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of true and false positives and negatives of one prediction."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for field_name in ("tp", "fp", "tn", "fn"):
            if getattr(self, field_name) < 0:
                raise ValueError("confusion matrix counts must be non-negative")

    @classmethod
    def from_predictions(cls, actual: np.ndarray, predicted: np.ndarray) -> "ConfusionMatrix":
        actual = np.asarray(actual)
        predicted = np.asarray(predicted)
        if actual.shape != predicted.shape or actual.ndim != 1:
            raise ValueError("actual and predicted must be one-dimensional and equally long")
        for values in (actual, predicted):
            if not np.all((values == 0) | (values == 1)):
                raise ValueError("actual and predicted must hold only 0 and 1")
        # Code 2*actual + predicted counts tn, fp, fn and tp in one pass.
        codes = 2 * actual.astype(np.intp) + predicted.astype(np.intp)
        tn, fp, fn, tp = (int(count) for count in np.bincount(codes, minlength=4))
        return cls(tp=tp, fp=fp, tn=tn, fn=fn)


def sorted_quantiles(sorted_rows: np.ndarray, quantiles: Sequence[float]) -> np.ndarray:
    """Quantiles of rows sorted along the last axis, by numpy's default
    linear rule: ``np.quantile`` bit for bit when no row holds -0.0.

    Each quantile is numpy's ``_lerp`` of the two values next to its
    position, read by index. The result has one row per quantile.
    """
    n = sorted_rows.shape[-1]
    results = []
    for q in quantiles:
        position = (n - 1) * q
        lo = int(position)
        gamma = position - lo
        a, b = sorted_rows[..., lo], sorted_rows[..., min(lo + 1, n - 1)]
        # Interpolate from the nearer end.
        results.append(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)
    return np.stack(results)


def prf(confusion: ConfusionMatrix) -> tuple[float, float, float]:
    """Precision, recall and f-measure, with every 0/0 defined as 0."""
    tp, fp, fn = confusion.tp, confusion.fp, confusion.fn
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f_measure = (
        2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    )
    return precision, recall, f_measure


def cliffs_delta(x: np.ndarray, y: np.ndarray) -> float:
    """Cliff's delta: (#{x_i > y_j} - #{x_i < y_j}) / (|x|*|y|)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("cliffs_delta requires non-empty samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("cliffs_delta samples must be finite")
    # Compared, not subtracted: a difference could overflow the float range.
    greater = int(np.sum(x[:, None] > y[None, :]))
    less = int(np.sum(x[:, None] < y[None, :]))
    return (greater - less) / (x.size * y.size)


def _midranks(magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doubled 1-based ranks, tied values sharing the mean of their positions,
    and the size of each tie group in increasing order of magnitude.

    A tie group of ``k`` values ending at position ``c`` has midrank
    ``c - (k - 1) / 2``; doubled, that is the integer ``2c - k + 1``.
    """
    _, inverse, counts = np.unique(magnitudes, return_inverse=True, return_counts=True)
    return (2 * np.cumsum(counts) - counts + 1)[inverse], counts


def _effective_differences(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValueError("paired samples must be one-dimensional, non-empty and equally long")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("paired samples must be finite")
    with np.errstate(over="ignore"):
        diffs = x - y
    if not np.all(np.isfinite(diffs)):
        raise DataError("paired differences must lie within the float range")
    diffs = diffs[diffs != 0.0]
    if diffs.size == 0:
        raise DataError("degenerate pairing: all differences are zero")
    return diffs


def _exact_two_sided_p(doubled_ranks: list[int], doubled_statistic: int) -> float:
    """Two-sided tail mass of W+ over all 2^n equiprobable sign assignments."""
    total = sum(doubled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for dr in doubled_ranks:
        for value in range(total, dr - 1, -1):
            counts[value] += counts[value - dr]
    at_most = sum(counts[: doubled_statistic + 1])
    at_least = sum(counts[doubled_statistic:])
    denominator = 2 ** len(doubled_ranks)
    return min(1.0, 2.0 * min(at_most, at_least) / denominator)


class WilcoxonResult(NamedTuple):
    """A signed-rank test's W+, two-sided p-value, pair count and branch."""

    statistic: float
    p_value: float
    n_effective: int
    method_used: str


def wilcoxon_signed_rank(x: np.ndarray, y: np.ndarray, method: str = "auto") -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied magnitudes get midranks; the
    statistic is W+ (rank sum of positive differences). ``auto`` switches
    from the exact null distribution to the tie-corrected normal
    approximation (no continuity correction) above 12 effective pairs.
    ``exact`` refuses more than 200 effective pairs.
    """
    if method not in ("auto", "exact", "asymptotic"):
        raise ValueError(f"unknown method {method!r}")
    diffs = _effective_differences(x, y)
    n = diffs.size
    if method == "exact" and n > _EXACT_MAX_PAIRS:
        raise DataError(
            f"exact signed-rank test takes at most {_EXACT_MAX_PAIRS} effective pairs, "
            f"got {n}; use method 'asymptotic'"
        )
    doubled, tie_counts = _midranks(np.abs(diffs))
    doubled_w_plus = int(doubled[diffs > 0].sum())
    w_plus = doubled_w_plus / 2

    if method == "auto":
        method = "exact" if n <= _EXACT_CUTOFF else "asymptotic"

    if method == "exact":
        p_value = _exact_two_sided_p(doubled.tolist(), doubled_w_plus)
        return WilcoxonResult(statistic=w_plus, p_value=p_value, n_effective=n, method_used="exact")

    mean = n * (n + 1) / 4.0
    tie_term = float(np.sum(tie_counts.astype(float) ** 3 - tie_counts)) / 48.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    z = (w_plus - mean) / math.sqrt(variance)
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return WilcoxonResult(
        statistic=w_plus, p_value=min(1.0, p_value), n_effective=n, method_used="asymptotic"
    )


class ComparisonResult(NamedTuple):
    """Paired comparison of two methods: significance plus effect size."""

    p_value: float
    statistic: float
    cliffs_delta: float
    n_pairs: int
    method_note: str


def compare_paired(x: np.ndarray, y: np.ndarray, method: str = "auto") -> ComparisonResult:
    """Wilcoxon signed-rank p plus Cliff's delta over the same paired scores.

    The delta uses all pairs, including those the signed-rank test drops as
    zero differences.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    test = wilcoxon_signed_rank(x, y, method=method)
    delta = cliffs_delta(x, y)
    note = f"{test.method_used}, {test.n_effective} effective of {x.size} pairs"
    return ComparisonResult(
        p_value=test.p_value,
        statistic=test.statistic,
        cliffs_delta=delta,
        n_pairs=int(x.size),
        method_note=note,
    )


def _beta_fraction(x: float, a: float, b: float) -> float:
    """The continued fraction of ``I_x(a, b)``, by the modified Lentz method."""
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _FRACTION_TINY else _FRACTION_TINY)
    c = 1.0
    h = d
    for m in range(1, _FRACTION_MAX_TERMS + 1):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _FRACTION_TINY else _FRACTION_TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) > _FRACTION_TINY else _FRACTION_TINY
            h *= d * c
        if abs(d * c - 1.0) <= sys.float_info.epsilon:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at x={x}, a={a}, b={b}")


def _stirling_tail(x: float) -> float:
    """``lgamma(x)`` less its Stirling approximation, for ``x >= 20``."""
    inv2 = 1.0 / (x * x)
    return (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))) / x


def _log_beta(a: float, b: float) -> float:
    """``log B(a, b)``; for a large argument the lgamma difference is formed
    from Stirling's series, because subtracting two large lgammas would
    cancel the leading digits."""
    small, big = sorted((a, b))
    if big < 20.0:
        return math.lgamma(small) + math.lgamma(big) - math.lgamma(small + big)
    log_ratio = (  # log(Gamma(big + small) / Gamma(big))
        small * math.log(big)
        + (big + small - 0.5) * math.log1p(small / big)
        - small
        + _stirling_tail(big + small)
        - _stirling_tail(big)
    )
    return math.lgamma(small) - log_ratio


def _fraction_side(x: float, y: float, a: float, b: float) -> float:
    """``I_x(a, b)`` from the continued fraction in ``x``, wherever ``x`` lies."""
    if x == 0.0:
        return 0.0
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    log_front = a * log_x + b * log_y - _log_beta(a, b)
    return math.exp(log_front) * _beta_fraction(x, a, b) / a


def _student_t_two_sided_p(t: float, df: int) -> float:
    """``P(|T| >= |t|)`` for Student's t with ``df`` degrees of freedom.

    That is ``I_{df/(df+t^2)}(df/2, 1/2)``; the complement ``t^2/(df+t^2)``
    is formed directly, so no precision is lost near ``t = 0``. Above 1000
    degrees of freedom and below ``t^2 = 15``, the fraction in ``x`` near 1
    loses digits (2.9e-9 relative at ``df = 1e8, t = 3``), while the one in
    the complement converges in fewer terms, so that side is taken.
    """
    t2 = t * t
    x, y = df / (df + t2), t2 / (df + t2)
    a, b = 0.5 * df, 0.5
    # Beyond (a + 1)/(a + b + 2) the fraction in x is slow; take 1 - I_y(b, a).
    if x > (a + 1.0) / (a + b + 2.0) or (df > 1000 and t2 < 15.0):
        return 1.0 - _fraction_side(y, x, b, a)
    return _fraction_side(x, y, a, b)


def pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Pearson correlation with its two-sided t-distribution p-value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("samples must be one-dimensional and equally long")
    n = x.size
    if n < 3:
        raise ValueError("pearson requires at least 3 pairs")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("pearson samples must be finite")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.sum(dx * dx))
    syy = float(np.sum(dy * dy))
    if sxx == 0.0 or syy == 0.0:
        raise DataError("pearson undefined: zero variance sample")
    r = float(np.sum(dx * dy)) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, min(1.0, _student_t_two_sided_p(t, n - 2))
