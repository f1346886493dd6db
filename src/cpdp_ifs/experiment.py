"""Experiment harness: project loading, pair execution, reporting.

A run enumerates every applicable source/target pair for the configured
methods and runs each method's pairs as one task of a thread pool, over a
``RunMemo`` of its own, so more than three workers never add a thread. It
keeps the best source per target by f-measure and derives the fused
predictions. ``run_plan`` returns all of it as a ``ReportBundle``, and
``write_report(bundle, out_dir)`` writes a deterministic report directory:
identical config plus identical data yields byte-identical CSVs (rows
sorted, floats fixed to six decimals, manifest free of timestamps). The
config types and reader live in ``cpdp_ifs.config``.
"""

from __future__ import annotations

import csv
import enum
import itertools
import json
import math
import re
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from cpdp_ifs import __version__
from cpdp_ifs.config import (
    ConfigError,
    ExperimentConfig,
    Method,
    config_hash,
    load_datasets,
)
from cpdp_ifs.corpus import (
    DPR_APPROPRIATE_MAX, DPR_IMPROVEMENT_THRESHOLD, DataError, DatasetSummary, Project, dpr,
    load_arff, load_csv, summarize,
)
from cpdp_ifs.learner import save_model
from cpdp_ifs.predictors import (
    PairPlan,
    PredictionOutcome,
    RunMemo,
    enumerate_pairs,
    run_cpdp_pure,
    run_ifs_min,
    run_ifs_our,
    run_mix,
)
from cpdp_ifs.stats import compare_paired, pearson, sorted_quantiles

_RUNNERS = {
    Method.CPDP_PURE: run_cpdp_pure,
    Method.IFS_MIN: run_ifs_min,
    Method.IFS_OUR: run_ifs_our,
}


def load_projects(config: ExperimentConfig) -> tuple[Project, ...]:
    """Load every configured data set, resolving paths against the config."""
    return tuple(load_datasets(config, load_csv, load_arff))


# Report rows: each NamedTuple below is one report table's schema, written
# by ``write_table``; its field names are the table's columns, in order.


class ResultRow(NamedTuple):
    """One ``results.csv`` row: an executed pair's confusion counts and scores."""

    method: Method
    source: str
    target: str
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f_measure: float


class BestRow(NamedTuple):
    """One ``best_per_target.csv`` row: the best source of a method for a target."""

    method: Method
    target: str
    source: str
    precision: float
    recall: float
    f_measure: float


class FailureRecord(NamedTuple):
    """One ``failures.csv`` row: a pair that could not run, with the reason."""

    method: Method
    source: str
    target: str
    error: str


class ComparisonRow(NamedTuple):
    """One ``comparisons.csv`` row: a signed-rank test of two methods' best scores."""

    method_a: Method
    method_b: Method
    n_targets: int
    statistic: float | None
    p_value: float | None
    cliffs_delta: float | None
    note: str


class DprRow(NamedTuple):
    """One ``dpr_analysis.csv`` row: a target's DPR, fused gain and DPR-to-f correlation."""

    target: str
    pure_source: str
    dpr: float | None
    f_pure: float | None
    f_mix: float | None
    improvement: float | None
    low_dpr: bool | None
    within_appropriate_range: bool | None
    pearson_r: float | None
    pearson_p: float | None
    note: str


class BoxplotSummary(NamedTuple):
    """One ``boxplot_summary.csv`` row: a group's five numbers, whiskers and outliers."""

    group: str
    n: int
    minimum: float
    first_quartile: float
    median: float
    third_quartile: float
    maximum: float
    lower_whisker: float
    upper_whisker: float
    outliers: tuple[float, ...]


def emit_boxplot_summary(groups: Mapping[str, Sequence[float]]) -> tuple[BoxplotSummary, ...]:
    """Five-number summaries with 1.5*IQR whiskers, one row per group.

    Whiskers sit on the most extreme observations still inside the fences;
    everything beyond is listed as an outlier.
    """
    summaries = []
    for group, raw in groups.items():
        # ``+ 0.0`` turns -0.0 into 0.0, so every zero prints as 0.000000.
        values = np.sort(np.asarray(list(raw), dtype=float)) + 0.0
        if values.size == 0:
            raise ValueError(f"empty group {group!r}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"group {group!r} contains non-finite values")
        minimum, maximum = float(values[0]), float(values[-1])
        # In Python floats, so that a span past the float range gives no warning.
        if not math.isfinite(maximum - minimum):
            raise DataError(f"group {group!r} spans more than the float range")
        q1, median, q3 = sorted_quantiles(values, (0.25, 0.5, 0.75)).tolist()
        iqr = q3 - q1
        fenced = (values >= q1 - 1.5 * iqr) & (values <= q3 + 1.5 * iqr)
        inside = values[fenced]
        summaries.append(
            BoxplotSummary(
                group=group,
                n=int(values.size),
                minimum=minimum,
                first_quartile=q1,
                median=median,
                third_quartile=q3,
                maximum=maximum,
                lower_whisker=float(inside[0]),
                upper_whisker=float(inside[-1]),
                outliers=tuple(values[~fenced].tolist()),
            )
        )
    return tuple(summaries)


def best_per_target(
    outcomes: Iterable[PredictionOutcome],
) -> dict[Method, dict[str, PredictionOutcome]]:
    """Best outcome per method and target, as ``best[method][target]``:
    the highest f-measure, ties to the lexicographically smallest source
    name. A method appears only with at least one target."""
    best: dict[Method, dict[str, PredictionOutcome]] = {}
    for outcome in sorted(outcomes, key=lambda o: (-o.f_measure, o.source_name)):
        best.setdefault(outcome.method, {}).setdefault(outcome.target_name, outcome)
    return best


class ReportBundle(NamedTuple):
    """Everything a run reports, ready for ``write_report``."""

    config: ExperimentConfig
    summaries: Mapping[str, DatasetSummary]
    outcomes: tuple[PredictionOutcome, ...]
    failures: tuple[FailureRecord, ...]
    best: tuple[PredictionOutcome, ...]
    comparisons: tuple[ComparisonRow, ...]
    dpr_rows: tuple[DprRow, ...]
    boxplots: tuple[BoxplotSummary, ...]
    planned_counts: Mapping[str, int]


def _run_pairs(
    pairs: Sequence[PairPlan], projects: Mapping[str, Project], config: ExperimentConfig
) -> tuple[list[PredictionOutcome], list[FailureRecord]]:
    """One method's pairs in plan order, over a memo that no other method sees."""
    outcomes: list[PredictionOutcome] = []
    failures: list[FailureRecord] = []
    memo = RunMemo()
    for plan in pairs:
        try:
            outcomes.append(_RUNNERS[plan.method](
                projects[plan.source_name], projects[plan.target_name],
                config.preprocessing, config.learner, memo,
            ))
        except DataError as exc:
            error = FailureRecord(plan.method, plan.source_name, plan.target_name, str(exc))
            failures.append(error)
    return outcomes, failures


def _execute_pairs(
    config: ExperimentConfig, projects: Mapping[str, Project]
) -> tuple[list[PredictionOutcome], list[FailureRecord], dict[str, int]]:
    ordered = list(projects.values())
    plans = {m: enumerate_pairs(ordered, m) for m in config.methods if m is not Method.MIX}
    planned_counts = {method.value: len(pairs) for method, pairs in plans.items()}

    # Imported here so that no other command loads concurrent.futures and logging.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        tasks = [pool.submit(_run_pairs, pairs, projects, config) for pairs in plans.values()]
        results = [task.result() for task in tasks]
    outcomes = [outcome for done, _ in results for outcome in done]
    failures = [failure for _, failed in results for failure in failed]
    return outcomes, failures, planned_counts


def _build_comparisons(
    methods: Sequence[Method], best: Mapping[Method, Mapping[str, PredictionOutcome]]
) -> tuple[ComparisonRow, ...]:
    rows = []
    for method_a, method_b in itertools.combinations(methods, 2):
        best_a, best_b = best.get(method_a, {}), best.get(method_b, {})
        common = sorted(best_a.keys() & best_b.keys())
        test: tuple = (None, None, None, "no common targets")
        if common:
            x = np.array([best_a[t].f_measure for t in common])
            y = np.array([best_b[t].f_measure for t in common])
            try:
                result = compare_paired(x, y)
                test = (result.statistic, result.p_value, result.cliffs_delta, result.method_note)
            except DataError as exc:
                test = (None, None, None, str(exc))
        rows.append(ComparisonRow(method_a, method_b, len(common), *test))
    return tuple(rows)


def analyze_dpr(
    outcomes: Sequence[PredictionOutcome],
    best: Mapping[Method, Mapping[str, PredictionOutcome]],
    summaries: Mapping[str, DatasetSummary],
) -> tuple[DprRow, ...]:
    """Relate the defect proneness ratio to prediction quality per target.

    For each target in ``best[Method.CPDP_PURE]``, in name order: the DPR
    of its best pure source, the gain of the target's fused prediction in
    ``best[Method.MIX]`` over it, the below-threshold flag, and the
    correlation of DPR with profile-run f-measure across all profile
    sources that scored the target. ``best`` is :func:`best_per_target`
    over ``outcomes``, with ``Method.MIX`` holding the fused outcomes; a
    method absent from it has no targets.
    """
    mixes = best.get(Method.MIX, {})
    rows = []
    for target, pure in sorted(best.get(Method.CPDP_PURE, {}).items()):
        mix = mixes.get(target)
        notes = []

        dpr_value: float | None
        try:
            dpr_value = dpr(
                summaries[pure.source_name].defect_ratio, summaries[target].defect_ratio
            )
        except DataError as exc:
            dpr_value = None
            notes.append(str(exc))

        f_mix = mix.f_measure if mix is not None else None
        improvement = f_mix - pure.f_measure if f_mix is not None else None
        if mix is None:
            notes.append("mix not run for this target")

        profile_runs = sorted(
            (o for o in outcomes if o.method is Method.IFS_OUR and o.target_name == target),
            key=lambda o: o.source_name,
        )
        pearson_r: float | None = None
        pearson_p: float | None = None
        if len(profile_runs) < 3:
            notes.append("fewer than 3 profile sources; no correlation")
        elif summaries[target].defect_ratio == 0:
            notes.append("no DPR for any profile source; no correlation")
        else:
            ratios = [
                dpr(summaries[run.source_name].defect_ratio, summaries[target].defect_ratio)
                for run in profile_runs
            ]
            try:
                pearson_r, pearson_p = pearson(
                    np.array(ratios), np.array([run.f_measure for run in profile_runs])
                )
            except DataError as exc:
                notes.append(str(exc))

        rows.append(
            DprRow(
                target=target,
                pure_source=pure.source_name,
                dpr=dpr_value,
                f_pure=pure.f_measure,
                f_mix=f_mix,
                improvement=improvement,
                low_dpr=None if dpr_value is None else dpr_value < DPR_IMPROVEMENT_THRESHOLD,
                within_appropriate_range=(
                    None if dpr_value is None else dpr_value <= DPR_APPROPRIATE_MAX
                ),
                pearson_r=pearson_r,
                pearson_p=pearson_p,
                note="; ".join(notes),
            )
        )
    return tuple(rows)


_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]")


def _model_file_stem(*parts: str) -> str:
    """A ``models/`` file name without its suffix: each part made safe, joined with ``__``."""
    return "__".join(_SAFE_NAME.sub("_", part) for part in parts)


def run_plan(
    config: ExperimentConfig, projects: Sequence[Project] | None = None
) -> ReportBundle:
    """Execute the full experiment described by the config."""
    loaded = tuple(projects) if projects is not None else load_projects(config)
    by_name = {p.name: p for p in loaded}
    if len(by_name) != len(loaded):
        raise ConfigError("project names must be unique")
    # Each best model is saved under its method, source and target names.
    stems: dict[str, tuple[str, str]] = {}
    for pair in itertools.permutations(by_name, 2):
        first = stems.setdefault(_model_file_stem(*pair), pair)
        if first != pair:
            raise ConfigError(
                f"pairs {first[0]!r}->{first[1]!r} and {pair[0]!r}->{pair[1]!r} "
                "would save their models to the same file"
            )
    summaries = {name: summarize(p.labels, p.n_features) for name, p in by_name.items()}

    outcomes, failures, planned_counts = _execute_pairs(config, by_name)

    best_map = best_per_target(outcomes)
    if Method.MIX in config.methods:
        # Each target with a best pure and a best profile outcome gets one
        # fused outcome, which is its best mix.
        pures, profiles = best_map.get(Method.CPDP_PURE, {}), best_map.get(Method.IFS_OUR, {})
        mixes = {
            target: run_mix(pures[target], profiles[target], by_name[target].labels)
            for target in sorted(pures.keys() & profiles.keys())
        }
        planned_counts[Method.MIX.value] = len(mixes)
        outcomes += mixes.values()
        best_map[Method.MIX] = mixes

    by_method = sorted(
        (method.value, sorted(targets.items())) for method, targets in best_map.items() if targets
    )

    return ReportBundle(
        config=config,
        summaries=summaries,
        outcomes=tuple(
            sorted(outcomes, key=lambda o: (o.method.value, o.target_name, o.source_name))
        ),
        failures=tuple(
            sorted(failures, key=lambda f: (f.method.value, f.target, f.source))
        ),
        best=tuple(o for _, rows in by_method for _, o in rows),
        comparisons=_build_comparisons(config.methods, best_map),
        dpr_rows=analyze_dpr(outcomes, best_map, summaries),
        boxplots=emit_boxplot_summary({m: [o.f_measure for _, o in rows] for m, rows in by_method}),
        planned_counts=planned_counts,
    )


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return ";".join(map(_fmt, value))
    return str(value)


def write_table(handle: TextIO, row_type: type, rows: Iterable[tuple]) -> None:
    """One CSV table of ``row_type`` rows: the header is its field names,
    and each cell goes through ``_fmt``."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(row_type._fields)
    writer.writerows(map(_fmt, row) for row in rows)


def write_report(bundle: ReportBundle, out_dir: str | Path) -> None:
    """Write the report directory: the six CSV tables, the best models and the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {
        "results.csv": (
            ResultRow,
            (
                ResultRow(
                    o.method, o.source_name, o.target_name, o.confusion.tp, o.confusion.fp,
                    o.confusion.tn, o.confusion.fn, o.precision, o.recall, o.f_measure,
                )
                for o in bundle.outcomes
            ),
        ),
        "best_per_target.csv": (
            BestRow,
            (
                BestRow(o.method, o.target_name, o.source_name, o.precision, o.recall, o.f_measure)
                for o in bundle.best
            ),
        ),
        "comparisons.csv": (ComparisonRow, bundle.comparisons),
        "dpr_analysis.csv": (DprRow, bundle.dpr_rows),
        "boxplot_summary.csv": (BoxplotSummary, bundle.boxplots),
        "failures.csv": (FailureRecord, bundle.failures),
    }
    for name, (row_type, rows) in tables.items():
        with open(out_dir / name, "w", newline="", encoding="utf-8") as handle:
            write_table(handle, row_type, rows)

    models_dir = out_dir / "models"
    models_dir.mkdir(exist_ok=True)
    written = set()
    for outcome in bundle.best:
        if outcome.model is None:
            continue
        stem = _model_file_stem(outcome.method.value, outcome.source_name, outcome.target_name)
        written.add(stem)
        save_model(outcome.model, models_dir / f"{stem}.json")
    # A model file left by an earlier run into the same directory is stale.
    for path in models_dir.glob("*.json"):
        if path.stem not in written:
            path.unlink()

    manifest = {
        "config": bundle.config.to_dict(),
        "config_hash": config_hash(bundle.config),
        "version": __version__,
        "projects": {
            name: {
                "instances": s.instance_count,
                "defects": s.defect_count,
                "defect_ratio": round(s.defect_ratio, 6),
                "metrics": s.metric_count,
            }
            for name, s in sorted(bundle.summaries.items())
        },
        "planned_pairs": dict(sorted(bundle.planned_counts.items())),
        "completed": len(bundle.outcomes),
        "failed": len(bundle.failures),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
