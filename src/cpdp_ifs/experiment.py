"""Experiment harness: config loading, pair execution, reporting.

A run enumerates every applicable source/target pair for the configured
methods, executes them on a bounded thread pool sharing one ``RunMemo``,
keeps the best source per target by f-measure, derives the fused
predictions, and writes a deterministic report directory: identical config
plus identical data yields byte-identical CSVs (rows sorted, floats fixed
to six decimals, manifest free of timestamps).
"""

from __future__ import annotations

import csv
import enum
import functools
import itertools
import json
import re
import sys
import typing
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import TextIO

# CPython's built-in SHA-256 gives the same digest as hashlib's, whose
# OpenSSL backend costs 3.6 MB resident for one digest per run.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # interpreters built without built-in hashes

import numpy as np

from cpdp_ifs import __version__
from cpdp_ifs.corpus import DatasetSummary, FeatureSchema, Project, load_arff, load_csv, summarize
from cpdp_ifs.learner import LearnerParams, save_model
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
from cpdp_ifs.stats import compare_paired, dpr, pearson, row_quantiles

DPR_IMPROVEMENT_THRESHOLD = 0.64
DPR_APPROPRIATE_MAX = 2.5

_RUNNERS = {
    Method.CPDP_PURE: run_cpdp_pure,
    Method.IFS_MIN: run_ifs_min,
    Method.IFS_OUR: run_ifs_our,
}


class ConfigError(ValueError):
    """The experiment config file is malformed or inconsistent."""


class DataError(ValueError):
    """A configured data set could not be loaded."""


@dataclass(frozen=True)
class DatasetSpec:
    """One ``datasets`` entry of the config: where a project is and how to read it."""

    name: str
    path: str
    family: str = "default"
    format: str = ""
    label_column: str = "bug"
    feature_names: tuple[str, ...] = ()
    alias_map: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for required in ("name", "path"):
            if not getattr(self, required):
                raise ValueError(f"{required} must not be empty")
        if self.format not in ("", "csv", "arff"):
            raise ValueError(f"unknown format {self.format!r}")
        self.schema()  # a repeated or label-colliding feature name is a config fault

    def schema(self) -> FeatureSchema:
        return FeatureSchema(self.feature_names, self.label_column, self.alias_map)

    def resolved_format(self) -> str:
        if self.format:
            return self.format
        return "arff" if self.path.lower().endswith(".arff") else "csv"


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings; each field but ``base_dir`` is a config key."""

    datasets: tuple[DatasetSpec, ...]
    methods: tuple[Method, ...] = tuple(Method)
    preprocessing: PreprocessConfig = PreprocessConfig()
    learner: LearnerParams = LearnerParams()
    output_dir: str = "results"
    workers: int = 1
    base_dir: Path | None = None

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ValueError("datasets must not be empty")
        names = [spec.name for spec in self.datasets]
        if len(set(names)) != len(names):
            raise ValueError("dataset names must be unique")
        if not self.methods:
            raise ValueError("methods must not be empty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must be unique")
        missing = {Method.CPDP_PURE, Method.IFS_OUR} - set(self.methods)
        if Method.MIX in self.methods and missing:
            raise ValueError("mix requires both cpdp_pure and ifs_our to be configured")
        if self.workers < 1:
            raise ValueError("workers must be a positive integer")

    def to_dict(self) -> dict:
        """Canonical dict of everything that defines the run (no base_dir)."""
        echo = asdict(self)
        del echo["base_dir"]
        for spec, entry in zip(self.datasets, echo["datasets"]):
            entry["format"] = spec.resolved_format()
        return echo


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


_JSON_TYPES = {
    bool: "true or false",
    int: "an integer",
    float: "a finite number",
    str: "a string",
    tuple: "a list",
    Mapping: "an object",
}


def _json_value(value: object, hint: object, key: str) -> object:
    """``value`` as a field of type ``hint``, which fixes its JSON type: a
    bool is not an int, an int serves as a float, and floats are finite."""
    if is_dataclass(hint):
        return _read_object(hint, value, key)
    if isinstance(hint, enum.EnumMeta):
        if value not in [member.value for member in hint]:
            shown = json.dumps(value, default=repr)
            raise ConfigError(f"{key}: unknown {hint.__name__.lower()} {shown}")
        return hint(value)
    kind = typing.get_origin(hint) or hint
    if kind is tuple and type(value) is list:
        item = typing.get_args(hint)[0]
        return tuple(_json_value(v, item, f"{key}[{i}]") for i, v in enumerate(value))
    if kind is Mapping and type(value) is dict:
        item = typing.get_args(hint)[1]
        return {name: _json_value(v, item, f"{key}.{name}") for name, v in value.items()}
    # abs() compares exactly, so NaN, infinities and ints beyond any float fail.
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind in (bool, int, str) and type(value) is kind:
        return value
    shown = json.dumps(value, default=repr)
    raise ConfigError(f"{key} must be {_JSON_TYPES[kind]}, not {shown}")


@functools.cache
def _type_hints(cls: type) -> dict[str, object]:
    return typing.get_type_hints(cls)


def _read_object(cls: type, raw: object, where: str, **given: object):
    """The config dataclass ``cls`` read from the JSON object ``raw``.

    Its fields are the object's keys, their types the values' types, and
    their defaults fill absent keys; fields in ``given`` are set by the
    caller, not read. ``where`` is the object's key path, "" at the root.
    """
    label = where or "config"
    if type(raw) is not dict:
        raise ConfigError(f"{label} must be a JSON object")
    keys = [f for f in fields(cls) if f.name not in given]
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        accepted = ", ".join(repr(f.name) for f in keys)
        raise ConfigError(
            f"{label} has unknown keys: {sorted(unknown)}; {label} accepts only {accepted}"
        )
    hints = _type_hints(cls)
    values = dict(given)
    for f in keys:
        if f.name in raw:
            key = f"{where}.{f.name}" if where else f.name
            values[f.name] = _json_value(raw[f.name], hints[f.name], key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{label} is missing {f.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {label} settings: {exc}") from None


def parse_config(payload: object, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a parsed JSON payload and apply defaults."""
    return _read_object(ExperimentConfig, payload, "", base_dir=base_dir)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(payload, base_dir=path.parent)


def load_projects(config: ExperimentConfig) -> tuple[Project, ...]:
    """Load every configured data set, resolving paths against the config."""
    base = config.base_dir or Path.cwd()
    projects = []
    for spec in config.datasets:
        path = Path(spec.path)
        if not path.is_absolute():
            path = base / path
        loader = load_arff if spec.resolved_format() == "arff" else load_csv
        try:
            projects.append(loader(path, spec.schema(), name=spec.name, family=spec.family))
        except (OSError, ValueError) as exc:
            raise DataError(f"dataset {spec.name!r}: {exc}") from exc
    return tuple(projects)


# Report rows: each frozen dataclass below is one report table's schema,
# written by ``write_table``; its fields are the table's columns, in order.


@dataclass(frozen=True)
class ResultRow:
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


@dataclass(frozen=True)
class BestRow:
    """One ``best_per_target.csv`` row: the best source of a method for a target."""

    method: Method
    target: str
    source: str
    precision: float
    recall: float
    f_measure: float


@dataclass(frozen=True)
class FailureRecord:
    """One ``failures.csv`` row: a pair that could not run, with the reason."""

    method: Method
    source_name: str = field(metadata={"csv": "source"})
    target_name: str = field(metadata={"csv": "target"})
    error: str


@dataclass(frozen=True)
class ComparisonRow:
    """One ``comparisons.csv`` row: a signed-rank test of two methods' best scores."""

    method_a: Method
    method_b: Method
    n_targets: int
    statistic: float | None
    p_value: float | None
    cliffs_delta: float | None
    note: str


@dataclass(frozen=True)
class DprRow:
    """One ``dpr_analysis.csv`` row: a target's DPR, fused gain and DPR-to-f correlation."""

    target: str
    pure_source: str
    dpr_value: float | None = field(metadata={"csv": "dpr"})
    f_pure: float | None
    f_mix: float | None
    improvement: float | None
    low_dpr: bool | None
    within_appropriate_range: bool | None
    pearson_r: float | None
    pearson_p: float | None
    note: str


@dataclass(frozen=True)
class BoxplotSummary:
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
        values = np.asarray(list(raw), dtype=float)
        if values.size == 0:
            raise ValueError(f"empty group {group!r}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"group {group!r} contains non-finite values")
        q1, median, q3 = (float(q) for q in row_quantiles(values, (0.25, 0.5, 0.75)))
        iqr = q3 - q1
        low_fence = q1 - 1.5 * iqr
        high_fence = q3 + 1.5 * iqr
        inside = values[(values >= low_fence) & (values <= high_fence)]
        outliers = values[(values < low_fence) | (values > high_fence)]
        summaries.append(
            BoxplotSummary(
                group=group,
                n=int(values.size),
                minimum=float(values.min()),
                first_quartile=q1,
                median=median,
                third_quartile=q3,
                maximum=float(values.max()),
                lower_whisker=float(inside.min()),
                upper_whisker=float(inside.max()),
                outliers=tuple(sorted(float(v) for v in outliers)),
            )
        )
    return tuple(summaries)


def best_per_target(
    outcomes: Iterable[PredictionOutcome],
) -> dict[tuple[str, str], PredictionOutcome]:
    """Best outcome per (method, target): highest f-measure, ties to the
    lexicographically smallest source name."""
    best: dict[tuple[str, str], PredictionOutcome] = {}
    for outcome in outcomes:
        key = (outcome.method.value, outcome.target_name)
        current = best.get(key)
        rank = (-outcome.f_measure, outcome.source_name)
        if current is None or rank < (-current.f_measure, current.source_name):
            best[key] = outcome
    return best


@dataclass(frozen=True)
class ReportBundle:
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

    def write(self, out_dir: str | Path) -> None:
        write_report(self, Path(out_dir))


def _execute_pairs(
    config: ExperimentConfig, projects: Mapping[str, Project]
) -> tuple[list[PredictionOutcome], list[FailureRecord], dict[str, int]]:
    ordered = list(projects.values())
    plans = []
    planned_counts: dict[str, int] = {}
    for method in config.methods:
        if method is Method.MIX:
            continue
        method_plans = enumerate_pairs(ordered, method)
        planned_counts[method.value] = len(method_plans)
        plans.extend(method_plans)

    outcomes: list[PredictionOutcome] = []
    failures: list[FailureRecord] = []
    memo = RunMemo()

    def run_one(plan):
        runner = _RUNNERS[plan.method]
        return runner(
            projects[plan.source_name],
            projects[plan.target_name],
            preprocessing=config.preprocessing,
            params=config.learner,
            memo=memo,
        )

    # Imported here so that no other command loads concurrent.futures and logging.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        futures = [(plan, pool.submit(run_one, plan)) for plan in plans]
        for plan, future in futures:
            try:
                outcomes.append(future.result())
            except ValueError as exc:
                failures.append(
                    FailureRecord(plan.method, plan.source_name, plan.target_name, str(exc))
                )
    return outcomes, failures, planned_counts


def _derive_mix(
    best: dict[tuple[str, str], PredictionOutcome],
    projects: Mapping[str, Project],
) -> tuple[list[PredictionOutcome], list[FailureRecord]]:
    outcomes: list[PredictionOutcome] = []
    failures: list[FailureRecord] = []
    targets = sorted(
        {target for (method, target) in best if method == Method.CPDP_PURE.value}
        & {target for (method, target) in best if method == Method.IFS_OUR.value}
    )
    for target in targets:
        pure = best[(Method.CPDP_PURE.value, target)]
        profile = best[(Method.IFS_OUR.value, target)]
        try:
            outcomes.append(run_mix(pure, profile, projects[target].labels))
        except ValueError as exc:
            failures.append(
                FailureRecord(
                    Method.MIX, f"{pure.source_name}+{profile.source_name}", target, str(exc)
                )
            )
    return outcomes, failures


def _build_comparisons(
    methods: Sequence[Method], best: dict[tuple[str, str], PredictionOutcome]
) -> tuple[ComparisonRow, ...]:
    rows = []
    for method_a, method_b in itertools.combinations(methods, 2):
        targets_a = {t for (m, t) in best if m == method_a.value}
        targets_b = {t for (m, t) in best if m == method_b.value}
        common = sorted(targets_a & targets_b)
        test: tuple = (None, None, None, "no common targets")
        if common:
            x = np.array([best[(method_a.value, t)].f_measure for t in common])
            y = np.array([best[(method_b.value, t)].f_measure for t in common])
            try:
                result = compare_paired(x, y)
                test = (result.statistic, result.p_value, result.cliffs_delta, result.method_note)
            except ValueError as exc:
                test = (None, None, None, str(exc))
        rows.append(ComparisonRow(method_a, method_b, len(common), *test))
    return tuple(rows)


def analyze_dpr(
    outcomes: Sequence[PredictionOutcome],
    best: Mapping[tuple[str, str], PredictionOutcome],
    summaries: Mapping[str, DatasetSummary],
) -> tuple[DprRow, ...]:
    """Relate the defect proneness ratio to prediction quality per target.

    For each target with a best pure run: the DPR of that pure source, the
    gain of the fused prediction over it, the below-threshold flag, and the
    correlation of DPR with profile-run f-measure across all profile
    sources that scored the target. ``best`` is :func:`best_per_target`
    over ``outcomes``.
    """
    pure_targets = sorted({t for (m, t) in best if m == Method.CPDP_PURE.value})
    rows = []
    for target in pure_targets:
        pure = best[(Method.CPDP_PURE.value, target)]
        mix = best.get((Method.MIX.value, target))
        notes = []

        dpr_value: float | None
        try:
            dpr_value = dpr(
                summaries[pure.source_name].defect_ratio, summaries[target].defect_ratio
            )
        except ValueError as exc:
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
        ratios = []
        scores = []
        if summaries[target].defect_ratio > 0:
            for run in profile_runs:
                ratios.append(
                    dpr(summaries[run.source_name].defect_ratio, summaries[target].defect_ratio)
                )
                scores.append(run.f_measure)
        pearson_r: float | None = None
        pearson_p: float | None = None
        if len(ratios) < 3:
            notes.append("fewer than 3 profile sources; no correlation")
        else:
            try:
                pearson_r, pearson_p = pearson(np.array(ratios), np.array(scores))
            except ValueError as exc:
                notes.append(str(exc))

        rows.append(
            DprRow(
                target=target,
                pure_source=pure.source_name,
                dpr_value=dpr_value,
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
    summaries = {name: summarize(project) for name, project in by_name.items()}

    outcomes, failures, planned_counts = _execute_pairs(config, by_name)

    best_map = best_per_target(outcomes)
    if Method.MIX in config.methods:
        mix_outcomes, mix_failures = _derive_mix(best_map, by_name)
        planned_counts[Method.MIX.value] = len(mix_outcomes) + len(mix_failures)
        outcomes = outcomes + mix_outcomes
        failures = failures + mix_failures
        # One fused outcome per target, so each is that target's best mix.
        best_map.update(((Method.MIX.value, o.target_name), o) for o in mix_outcomes)

    best = tuple(
        sorted(best_map.values(), key=lambda o: (o.method.value, o.target_name, o.source_name))
    )
    comparisons = _build_comparisons(config.methods, best_map)
    dpr_rows = (
        analyze_dpr(outcomes, best_map, summaries) if Method.CPDP_PURE in config.methods else ()
    )

    groups: dict[str, list[float]] = {}
    for outcome in best:
        groups.setdefault(outcome.method.value, []).append(outcome.f_measure)
    boxplots = emit_boxplot_summary({m: groups[m] for m in sorted(groups)}) if groups else ()

    return ReportBundle(
        config=config,
        summaries=summaries,
        outcomes=tuple(
            sorted(outcomes, key=lambda o: (o.method.value, o.target_name, o.source_name))
        ),
        failures=tuple(
            sorted(failures, key=lambda f: (f.method.value, f.target_name, f.source_name))
        ),
        best=best,
        comparisons=comparisons,
        dpr_rows=dpr_rows,
        boxplots=boxplots,
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


def write_table(handle: TextIO, row_type: type, rows: Iterable[object]) -> None:
    """One CSV table of ``row_type`` dataclass rows.

    The header is the row type's field names in order, or a field's ``csv``
    metadata where the column is named otherwise; cells go through ``_fmt``.
    """
    columns = fields(row_type)
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow([f.metadata.get("csv", f.name) for f in columns])
    for row in rows:
        writer.writerow([_fmt(getattr(row, f.name)) for f in columns])


def write_report(bundle: ReportBundle, out_dir: Path) -> None:
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
