"""Independent reference implementations used only to check the package.

Everything here is deliberately primitive and self-contained: no code is
shared with the implementations under test.
"""

from __future__ import annotations

import itertools
import math
import statistics

import numpy as np

_ORACLE_LIMIT = 15


def grid_logistic_oracle(
    xs: list[float], ys: list[int], ridge: float, rounds: int = 30, span: float = 8.0
) -> tuple[float, float]:
    """Coarse-to-fine grid minimizer of the penalized logistic objective.

    One feature only: searches (intercept, weight) on a 21x21 grid, zooming
    in on the best cell each round. Final resolution ~ span / 2^rounds.
    """

    def objective(b: float, w: float) -> float:
        total = 0.0
        for x, y in zip(xs, ys):
            eta = b + w * x
            # log(1+e^eta) without overflow
            if eta > 0:
                log1p_exp = eta + math.log1p(math.exp(-eta))
            else:
                log1p_exp = math.log1p(math.exp(eta))
            total += log1p_exp - y * eta
        return total + 0.5 * ridge * w * w

    center_b, center_w = 0.0, 0.0
    half = span
    best = (center_b, center_w)
    for _ in range(rounds):
        best_value = math.inf
        for i in range(21):
            for j in range(21):
                b = center_b - half + (2.0 * half) * i / 20.0
                w = center_w - half + (2.0 * half) * j / 20.0
                value = objective(b, w)
                if value < best_value:
                    best_value = value
                    best = (b, w)
        center_b, center_w = best
        half *= 0.5
    return best


def mc_random_baseline(
    labels: list[int], positive_rate: float, n_draws: int = 1000, seed: int = 0
) -> list[float]:
    """F-measures of random classifiers that flag instances at a fixed rate."""
    rng = np.random.default_rng(seed)
    actual = np.asarray(labels)
    scores = []
    for _ in range(n_draws):
        guess = (rng.random(actual.size) < positive_rate).astype(int)
        tp = int(np.sum((actual == 1) & (guess == 1)))
        fp = int(np.sum((actual == 0) & (guess == 1)))
        fn = int(np.sum((actual == 1) & (guess == 0)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0.0:
            scores.append(0.0)
        else:
            scores.append(2.0 * precision * recall / (precision + recall))
    return scores


def reference_quartiles(values: list[float]) -> tuple[float, float, float]:
    """Q1/median/Q3 with linear interpolation on the sorted sample."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return float(q1), float(q2), float(q3)


def reference_indicators(values: list[float]) -> dict[str, float]:
    """The 16 per-instance summaries, computed with stdlib statistics."""
    n = len(values)
    v = sorted(float(x) for x in values)
    mean = sum(v) / n
    q1, q2, q3 = reference_quartiles(v)

    buckets: dict[float, list[float]] = {}
    for x in v:
        buckets.setdefault(round(x, 4), []).append(x)
    best_key = None
    best_count = -1
    for key in sorted(buckets):
        if len(buckets[key]) > best_count:
            best_key = key
            best_count = len(buckets[key])
    mode = min(buckets[best_key])

    variance = statistics.variance(v) if n > 1 else 0.0
    sd_pop = math.sqrt(sum((x - mean) ** 2 for x in v) / n)
    if sd_pop < 1e-12 or v[0] == v[-1]:
        skewness = 0.0
        kurtosis = 0.0
    else:
        skewness = sum(((x - mean) / sd_pop) ** 3 for x in v) / n
        kurtosis = sum(((x - mean) / sd_pop) ** 4 for x in v) / n - 3.0

    return {
        "min": v[0],
        "max": v[-1],
        "range": v[-1] - v[0],
        "sum": sum(v),
        "mean": mean,
        "median": statistics.median(v),
        "mode": mode,
        "first_quartile": q1,
        "third_quartile": q3,
        "interquartile_range": q3 - q1,
        "variance": variance,
        "standard_deviation": math.sqrt(variance),
        "mean_absolute_deviation": sum(abs(x - mean) for x in v) / n,
        "skewness": skewness,
        "excess_kurtosis": kurtosis,
        "variation_ratio": 1.0 - best_count / n,
    }


# The scalar indicator kernel, one instance at a time: the bitwise reference
# for the package's row-vectorized kernel. The constants repeat the
# package's, so a change to either shows up as a mismatch.
_MODE_DECIMALS = 4
_DEGENERATE_SPREAD = 1e-12


def _mode_and_variation_ratio(sorted_values: np.ndarray) -> tuple[float, float]:
    keys = np.round(sorted_values, _MODE_DECIMALS)
    _, first_index, counts = np.unique(keys, return_index=True, return_counts=True)
    winner = int(np.argmax(counts))  # ties fall to the smallest key
    mode = float(sorted_values[first_index[winner]])
    variation_ratio = 1.0 - counts[winner] / sorted_values.size
    return mode, float(variation_ratio)


def _indicator_values(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("empty instance")
    if not np.all(np.isfinite(values)):
        raise ValueError("instance contains non-finite values")
    # Sorting first makes every indicator exactly permutation invariant;
    # summation order otherwise leaks into the low bits.
    v = np.sort(values)
    n = v.size

    minimum = float(v[0])
    maximum = float(v[-1])
    total = float(v.sum())
    mean = total / n
    median = float(np.median(v))
    mode, variation_ratio = _mode_and_variation_ratio(v)
    q1 = float(np.quantile(v, 0.25))
    q3 = float(np.quantile(v, 0.75))
    variance = float(v.var(ddof=1)) if n > 1 else 0.0
    sd = math.sqrt(variance)
    deviations = v - mean
    mad = float(np.mean(np.abs(deviations)))

    sd_pop = math.sqrt(float(np.mean(deviations**2)))
    if sd_pop < _DEGENERATE_SPREAD or maximum == minimum:
        skewness = 0.0
        kurtosis = 0.0
    else:
        z = deviations / sd_pop
        skewness = float(np.mean(z**3))
        kurtosis = float(np.mean(z**4)) - 3.0

    return np.array(
        [
            minimum,
            maximum,
            maximum - minimum,
            total,
            mean,
            median,
            mode,
            q1,
            q3,
            q3 - q1,
            variance,
            sd,
            mad,
            skewness,
            kurtosis,
            variation_ratio,
        ]
    )


def wilcoxon_exact_oracle(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Brute-force signed-rank test by enumerating every sign assignment.

    Self-contained on purpose (own midranks, no shared helpers), as the
    independent cross-check of ``cpdp_ifs.stats.wilcoxon_signed_rank``.
    Returns (W+, two-sided p). Limited to 15 effective pairs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise ValueError("paired samples must be one-dimensional, non-empty and equally long")
    diffs = [float(a - b) for a, b in zip(x, y) if a - b != 0.0]
    if not diffs:
        raise ValueError("degenerate pairing: all differences are zero")
    n = len(diffs)
    if n > _ORACLE_LIMIT:
        raise ValueError(f"n too large for exhaustive enumeration (max {_ORACLE_LIMIT})")

    magnitudes = [abs(d) for d in diffs]
    order = sorted(range(n), key=lambda i: magnitudes[i])
    ranks = [0.0] * n
    position = 0
    while position < n:
        tied_end = position
        while (
            tied_end + 1 < n
            and magnitudes[order[tied_end + 1]] == magnitudes[order[position]]
        ):
            tied_end += 1
        average_rank = (position + 1 + tied_end + 1) / 2.0
        for k in range(position, tied_end + 1):
            ranks[order[k]] = average_rank
        position = tied_end + 1

    observed = sum(ranks[i] for i in range(n) if diffs[i] > 0)
    at_most = 0
    at_least = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(ranks[i] for i in range(n) if signs[i])
        if w <= observed:
            at_most += 1
        if w >= observed:
            at_least += 1
    p_value = min(1.0, 2.0 * min(at_most, at_least) / 2**n)
    return observed, p_value


def reference_best_sources(rows: list[dict[str, str]]) -> dict[tuple[str, str], str]:
    """Winning source per (method, target) from ``results.csv`` rows: the
    highest f_measure, ties to the smallest source name."""
    ranked = sorted(rows, key=lambda r: (-float(r["f_measure"]), r["source"]))
    best: dict[tuple[str, str], str] = {}
    for row in ranked:
        best.setdefault((row["method"], row["target"]), row["source"])
    return best
