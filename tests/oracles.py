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
    flat = maximum == minimum
    variance = float(v.var(ddof=1)) if n > 1 and not flat else 0.0
    sd = math.sqrt(variance)
    deviations = v - mean
    mad = 0.0 if flat else float(np.mean(np.abs(deviations)))

    sd_pop = math.sqrt(float(np.mean(deviations**2)))
    if sd_pop < _DEGENERATE_SPREAD or flat:
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


# The per-cell loaders that filled a Project one cell at a time, before the
# bulk parse: the reference for every message and every bit the loaders
# give. They return (matrix, labels, feature names) and raise the package's
# DataFormatError, whose type the CLI maps to exit 2.
_TRUE_TOKENS = {"true", "yes", "y", "buggy", "defective", "bug", "defect"}
_FALSE_TOKENS = {"false", "no", "n", "clean", "non-defective", "nondefective", "nonbuggy"}


def _reference_label(token: str) -> int:
    from cpdp_ifs.corpus import DataFormatError

    tok = str(token).strip().strip("'\"")
    try:
        value = float(tok)
    except ValueError:
        low = tok.lower()
        if low in _TRUE_TOKENS:
            return 1
        if low in _FALSE_TOKENS:
            return 0
        raise DataFormatError(f"unknown value token {token!r} in label column") from None
    if not math.isfinite(value):
        raise DataFormatError(f"non-finite label value {token!r}")
    return 1 if value > 0 else 0


def _reference_label_at(path, token: str, row_no: int) -> int:
    from cpdp_ifs.corpus import DataFormatError

    try:
        return _reference_label(token)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc} at data row {row_no}") from None


def _reference_cell(cell: str, row_no: int, column: str) -> float:
    from cpdp_ifs.corpus import DataFormatError

    try:
        value = float(cell)
    except ValueError:
        raise DataFormatError(
            f"non-numeric feature cell {cell!r} at data row {row_no}, column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise DataFormatError(f"non-finite feature cell at data row {row_no}, column {column!r}")
    return value


def _reference_columns(header, schema, origin):
    from cpdp_ifs.corpus import DataFormatError

    canon_header = [schema.canonical(h) for h in header]
    label_canon = schema.canonical(schema.label_column)
    if label_canon not in canon_header:
        raise DataFormatError(f"{origin}: label column {schema.label_column!r} not found")
    label_idx = canon_header.index(label_canon)
    if schema.feature_names:
        indices = []
        for canon in schema.canonical_names():
            if canon not in canon_header:
                raise DataFormatError(f"{origin}: feature column {canon!r} not found")
            indices.append(canon_header.index(canon))
    else:
        indices = [i for i in range(len(header)) if i != label_idx]
        selected = [canon_header[i] for i in indices]
        if len(set(selected)) != len(selected):
            dupes = sorted({n for n in selected if selected.count(n) > 1})
            raise DataFormatError(f"{origin}: duplicate feature names {dupes}")
    return indices, label_idx, [header[i].strip() for i in indices]


def reference_load_csv(path, schema):
    """The per-cell CSV loader: (matrix, labels, feature names)."""
    import csv

    from cpdp_ifs.corpus import DataFormatError

    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = [row for row in csv.reader(handle) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DataFormatError(f"empty file: {path}")
    header = [h.strip() for h in rows[0]]
    feature_idx, label_idx, names = _reference_columns(header, schema, str(path))
    data_rows = rows[1:]
    if not data_rows:
        raise DataFormatError(f"empty file (header only): {path}")
    matrix = np.empty((len(data_rows), len(feature_idx)))
    labels = np.empty(len(data_rows), dtype=np.int8)
    for r, row in enumerate(data_rows):
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: data row {r + 1} has {len(row)} cells, expected {len(header)}"
            )
        for c, idx in enumerate(feature_idx):
            matrix[r, c] = _reference_cell(row[idx], r + 1, header[idx])
        labels[r] = _reference_label_at(path, row[label_idx], r + 1)
    return matrix, labels, names


def _reference_attribute(line, path):
    from cpdp_ifs.corpus import DataFormatError

    malformed = DataFormatError(f"{path}: malformed attribute declaration {line!r}")
    rest = line[len("@attribute"):].strip()
    if not rest:
        raise malformed
    if rest[0] in "'\"":
        end = rest.find(rest[0], 1)
        if end < 0:
            raise malformed
        attr_name, type_spec = rest[1:end], rest[end + 1:].strip()
    else:
        parts = rest.split(None, 1)
        if len(parts) != 2:
            raise malformed
        attr_name, type_spec = parts[0], parts[1].strip()
    if not attr_name or not type_spec:
        raise malformed
    if type_spec.startswith("{"):
        if not type_spec.endswith("}"):
            raise malformed
        values = tuple(v.strip().strip("'\"") for v in type_spec[1:-1].split(","))
        if not all(values):
            raise malformed
        return attr_name, "nominal", values
    if type_spec.lower() in ("numeric", "real", "integer"):
        return attr_name, "numeric", ()
    raise DataFormatError(
        f"{path}: unsupported attribute type {type_spec!r} (only numeric and nominal)"
    )


def reference_load_arff(path, schema):
    """The per-cell dense-ARFF loader: (matrix, labels, feature names)."""
    from cpdp_ifs.corpus import DataFormatError

    attributes, data_lines = [], []
    saw_relation = in_data = False
    with open(path, encoding="utf-8-sig") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            low = line.lower()
            if in_data:
                data_lines.append(line)
            elif low.startswith("@relation"):
                saw_relation = True
            elif low.startswith("@attribute"):
                attributes.append(_reference_attribute(line, path))
            elif low.startswith("@data"):
                in_data = True
            else:
                raise DataFormatError(f"{path}: unexpected line before @data: {line!r}")
    if not saw_relation:
        raise DataFormatError(f"{path}: missing @relation declaration")
    if not in_data:
        raise DataFormatError(f"{path}: missing @data section")
    if not attributes:
        raise DataFormatError(f"{path}: no @attribute declarations")
    if not data_lines:
        raise DataFormatError(f"empty file (no data rows): {path}")

    header = [a[0] for a in attributes]
    kinds = {a[0]: a[1] for a in attributes}
    nominal_values = {a[0]: set(a[2]) for a in attributes if a[1] == "nominal"}
    feature_idx, label_idx, names = _reference_columns(header, schema, str(path))
    for i in feature_idx:
        if kinds[header[i]] == "nominal":
            raise DataFormatError(
                f"{path}: nominal attribute {header[i]!r} cannot be used as a feature"
            )
    matrix = np.empty((len(data_lines), len(feature_idx)))
    labels = np.empty(len(data_lines), dtype=np.int8)
    label_name = header[label_idx]
    for r, line in enumerate(data_lines):
        if line.startswith("{"):
            raise DataFormatError(f"{path}: sparse ARFF data is not supported (row {r + 1})")
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise DataFormatError(
                f"{path}: row arity mismatch at data row {r + 1}: "
                f"{len(cells)} values for {len(header)} attributes"
            )
        if any(c == "?" for c in cells):
            raise DataFormatError(f"{path}: missing value ('?') at data row {r + 1}")
        for c, idx in enumerate(feature_idx):
            matrix[r, c] = _reference_cell(cells[idx], r + 1, header[idx])
        label_cell = cells[label_idx].strip().strip("'\"")
        if kinds[label_name] == "nominal" and label_cell not in nominal_values[label_name]:
            raise DataFormatError(
                f"{path}: unknown value token {label_cell!r} at data row {r + 1} "
                f"(declared: {sorted(nominal_values[label_name])})"
            )
        labels[r] = _reference_label_at(path, label_cell, r + 1)
    return matrix, labels, names


# The damped Newton loop as it ran before each step reused the accepted
# candidate's linear predictor: the bitwise reference for ``learner.train``.
def _reference_expit(eta: np.ndarray) -> np.ndarray:
    def exp_or_inf(v: float) -> float:
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf

    exps = np.array([exp_or_inf(-v) for v in np.asarray(eta, dtype=float).ravel().tolist()])
    return 1.0 / (1.0 + exps.reshape(np.shape(eta)))


def _reference_mask(n_params: int) -> np.ndarray:
    mask = np.ones(n_params)
    mask[0] = 0.0
    return mask


def _reference_objective(w, design, y, ridge):
    eta = design @ w
    log_lik = float(y @ eta - np.sum(np.logaddexp(0.0, eta)))
    penalty = 0.5 * ridge * float(np.sum((_reference_mask(w.size) * w) ** 2))
    return -log_lik + penalty, log_lik


def reference_newton_fit(matrix, labels, ridge, max_iterations, tolerance):
    """(weights, intercept, objective history, iterations, converged,
    final log-likelihood) of the penalized logistic fit."""
    X = np.asarray(matrix, dtype=float)
    y = np.asarray(labels, dtype=float)
    m, n = X.shape
    X1 = np.hstack([np.ones((m, 1)), X])
    penalized = _reference_mask(n + 1)
    w = np.zeros(n + 1)
    current, log_lik = _reference_objective(w, X1, y, ridge)
    history = [current]
    converged = False
    iterations = 0
    for _ in range(max_iterations):
        prob = _reference_expit(X1 @ w)
        gradient = X1.T @ (prob - y) + ridge * _reference_mask(w.size) * w
        if float(np.max(np.abs(gradient))) < 1e-10:
            converged = True
            break
        weight = prob * (1.0 - prob)
        hessian = (X1 * weight[:, None]).T @ X1 + ridge * np.diag(penalized)
        jitter = 0.0
        for _ in range(8):
            try:
                direction = np.linalg.solve(hessian + jitter * np.eye(hessian.shape[0]), gradient)
                break
            except np.linalg.LinAlgError:
                jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
        else:
            raise ValueError("degenerate training set: singular normal equations")
        iterations += 1
        step = 1.0
        accepted = None
        for _ in range(60):
            candidate = w - step * direction
            value, cand_log_lik = _reference_objective(candidate, X1, y, ridge)
            if value <= current:
                accepted = (candidate, value, cand_log_lik)
                break
            step *= 0.5
        if accepted is None:
            break
        w, value, log_lik = accepted
        history.append(value)
        improvement = current - value
        current = value
        if improvement < tolerance:
            converged = True
            break
    return w[1:].copy(), float(w[0]), tuple(history), iterations, converged, log_lik
