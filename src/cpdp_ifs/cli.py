"""Command line front end.

Subcommands: ``ingest`` validates and summarizes the configured data sets,
``run`` executes the full experiment and writes the report directory,
``compare`` runs the paired significance test, ``dpr`` reports the defect
proneness ratio of a source/target pair, and ``box`` prints boxplot
summaries. ``run`` takes only ``--config`` and ``--out``; every other run
setting is a config key. Exit codes: 0 success, 1 config/usage error,
2 data error, 3 run finished with partial failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import sys
from pathlib import Path

import numpy as np

from cpdp_ifs.corpus import DataFormatError, summarize
from cpdp_ifs.experiment import (
    ConfigError,
    DataError,
    DPR_IMPROVEMENT_THRESHOLD,
    BoxplotSummary,
    emit_boxplot_summary,
    load_config,
    load_projects,
    run_plan,
    write_table,
)
from cpdp_ifs.stats import compare_paired, dpr

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    # Usage problems should exit 1 like any other config error, not
    # argparse's default 2 (which this tool reserves for data errors).
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cpdp-ifs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="load and summarize the configured data sets")
    ingest.add_argument("--config", required=True, help="experiment config (JSON)")

    run = sub.add_parser("run", help="execute the configured experiment")
    run.add_argument("--config", required=True, help="experiment config (JSON)")
    run.add_argument("--out", help="report directory (overrides the config's output_dir)")

    compare = sub.add_parser("compare", help="paired significance test on two score columns")
    compare.add_argument("--csv", help="CSV file holding paired score columns")
    compare.add_argument("--x-col", help="first score column (default: first column)")
    compare.add_argument("--y-col", help="second score column (default: second column)")
    compare.add_argument("--results", help="report directory produced by 'run'")
    compare.add_argument("--method-a", help="first method (with --results)")
    compare.add_argument("--method-b", help="second method (with --results)")
    compare.add_argument(
        "--method",
        choices=("auto", "exact", "asymptotic"),
        default="auto",
        help="signed-rank branch selection; exact takes at most 200 effective pairs",
    )

    dpr_cmd = sub.add_parser("dpr", help="defect proneness ratio of a source/target pair")
    dpr_cmd.add_argument("--config", required=True, help="experiment config (JSON)")
    dpr_cmd.add_argument("--source", required=True, help="source data set name")
    dpr_cmd.add_argument("--target", required=True, help="target data set name")

    box = sub.add_parser("box", help="boxplot summaries of result scores")
    box.add_argument("--results", help="report directory produced by 'run'")
    box.add_argument("--csv", help="CSV file with group and value columns")
    box.add_argument("--group-col", default="method", help="grouping column (with --csv)")
    box.add_argument("--value-col", default="f_measure", help="value column (with --csv)")

    return parser


def _read_csv_rows(path: str) -> tuple[list[str], list[dict[str, str]]]:
    """Header and data rows of a CSV table; a repeated column name or a
    data row with more cells than the header is a data error."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            fieldnames = reader.fieldnames
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if fieldnames is None:
        raise DataFormatError(f"empty file: {path}")
    header = list(fieldnames)
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise DataFormatError(f"{path}: duplicate column names {repeated}")
    if not rows:
        raise DataFormatError(f"empty file (header only): {path}")
    for i, row in enumerate(rows, start=1):
        if None in row:  # DictReader's key for the cells beyond the header
            raise DataFormatError(
                f"{path}: data row {i} has {len(header) + len(row[None])} cells, "
                f"expected {len(header)}"
            )
    return header, rows


def _column(
    header: list[str], rows: list[dict[str, str]], name: str, path: str, parse=float
) -> list:
    """Column ``name`` of a ``_read_csv_rows`` table, each cell ``parse``d;
    a missing column or an empty or unparsable cell is a data error."""
    if name not in header:
        raise DataFormatError(f"{path}: column {name!r} not found")
    values = []
    for i, row in enumerate(rows, start=1):
        cell = row.get(name)
        if cell is None or cell == "":
            raise DataFormatError(f"{path}: missing value in column {name!r} at data row {i}")
        try:
            values.append(parse(cell))
        except ValueError:
            raise DataFormatError(
                f"{path}: non-numeric value {cell!r} in column {name!r} at data row {i}"
            ) from None
    return values


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    projects = load_projects(config)
    for project in projects:
        s = summarize(project)
        print(
            f"{project.name}: family={project.dataset_family} instances={s.instance_count} "
            f"defects={s.defect_count} defect_ratio={s.defect_ratio:.3f} metrics={s.metric_count}"
        )
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.out:
        config = dataclasses.replace(config, output_dir=args.out)

    bundle = run_plan(config)
    out_dir = Path(config.output_dir)
    bundle.write(out_dir)

    print(f"report written to {out_dir}")
    print(f"pairs completed: {len(bundle.outcomes)}, failed: {len(bundle.failures)}")
    if bundle.failures:
        for failure in bundle.failures:
            print(
                f"failed: {failure.method.value} {failure.source_name}->{failure.target_name}: "
                f"{failure.error}",
                file=sys.stderr,
            )
        return EXIT_PARTIAL
    return EXIT_OK


def _compare_from_csv(args: argparse.Namespace) -> tuple[np.ndarray, np.ndarray]:
    header, rows = _read_csv_rows(args.csv)
    x_col = args.x_col or header[0]
    y_col = args.y_col or (header[1] if len(header) > 1 else None)
    if y_col is None:
        raise DataFormatError(f"{args.csv}: need two columns for a paired comparison")
    x, y = (np.array(_column(header, rows, col, args.csv)) for col in (x_col, y_col))
    return x, y


def _compare_from_results(args: argparse.Namespace) -> tuple[np.ndarray, np.ndarray]:
    if not (args.method_a and args.method_b):
        raise ConfigError("--results needs --method-a and --method-b")
    path = str(Path(args.results) / "best_per_target.csv")
    header, rows = _read_csv_rows(path)
    methods, targets, f_measures = (
        _column(header, rows, name, path, parse)
        for name, parse in (("method", str), ("target", str), ("f_measure", float))
    )
    scores: dict[str, dict[str, float]] = {}
    for method, target, f_measure in zip(methods, targets, f_measures):
        if target in scores.setdefault(method, {}):
            raise DataError(f"{path}: two rows for method {method!r} and target {target!r}")
        scores[method][target] = f_measure
    for method in (args.method_a, args.method_b):
        if method not in scores:
            raise DataError(f"{path}: no rows for method {method!r}")
    common = sorted(set(scores[args.method_a]) & set(scores[args.method_b]))
    if not common:
        raise DataError(f"{path}: no common targets for the two methods")
    x = np.array([scores[args.method_a][t] for t in common])
    y = np.array([scores[args.method_b][t] for t in common])
    return x, y


def _cmd_compare(args: argparse.Namespace) -> int:
    if bool(args.csv) == bool(args.results):
        raise ConfigError("compare needs exactly one of --csv or --results")
    if args.csv:
        x, y = _compare_from_csv(args)
    else:
        x, y = _compare_from_results(args)
    result = compare_paired(x, y, method=args.method)
    print(f"n_pairs={result.n_pairs}")
    print(f"statistic={result.statistic:.6f}")
    print(f"p_value={result.p_value:.6f}")
    print(f"cliffs_delta={result.cliffs_delta:.6f}")
    print(f"note={result.method_note}")
    return EXIT_OK


def _cmd_dpr(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    names = {spec.name for spec in config.datasets}
    for name in (args.source, args.target):
        if name not in names:
            raise ConfigError(f"data set {name!r} is not in the config")
    wanted = dataclasses.replace(
        config,
        datasets=tuple(d for d in config.datasets if d.name in (args.source, args.target)),
    )
    summaries = {p.name: summarize(p) for p in load_projects(wanted)}
    value = dpr(summaries[args.source].defect_ratio, summaries[args.target].defect_ratio)
    low = value < DPR_IMPROVEMENT_THRESHOLD
    print(f"dpr={value:.6f}")
    print(f"low_dpr={'true' if low else 'false'} (threshold {DPR_IMPROVEMENT_THRESHOLD})")
    return EXIT_OK


def _cmd_box(args: argparse.Namespace) -> int:
    if bool(args.csv) == bool(args.results):
        raise ConfigError("box needs exactly one of --csv or --results")
    if args.results:
        # The report holds this table, computed from the unrounded f-measures.
        path = Path(args.results) / "boxplot_summary.csv"
        try:
            sys.stdout.write(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
        return EXIT_OK
    header, rows = _read_csv_rows(args.csv)
    groups: dict[str, list[float]] = {}
    for group, value in zip(
        _column(header, rows, args.group_col, args.csv, str),
        _column(header, rows, args.value_col, args.csv),
    ):
        groups.setdefault(group, []).append(value)
    summaries = emit_boxplot_summary({g: groups[g] for g in sorted(groups)})
    write_table(sys.stdout, BoxplotSummary, summaries)
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "dpr": _cmd_dpr,
    "box": _cmd_box,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        # Unreadable or malformed files, and statistical preconditions
        # (degenerate pairing, undefined DPR, ...), are properties of the
        # supplied data.
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    status = main(sys.argv[1:])
    # The process ends here: move every object out of the collector's reach so
    # finalization skips a full pass over the ~23k objects created at import.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
