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
import sys
from pathlib import Path

import numpy as np

from cpdp_ifs.corpus import DataFormatError
from cpdp_ifs.experiment import (
    ConfigError,
    DataError,
    DPR_IMPROVEMENT_THRESHOLD,
    emit_boxplot_summary,
    load_config,
    load_projects,
    run_plan,
    write_boxplot_summary,
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
        help="signed-rank branch selection",
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
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataFormatError(f"empty file: {path}")
        rows = list(reader)
    if not rows:
        raise DataFormatError(f"empty file (header only): {path}")
    return list(reader.fieldnames), rows


def _column(rows: list[dict[str, str]], name: str, path: str) -> np.ndarray:
    values = []
    for i, row in enumerate(rows, start=1):
        cell = row.get(name)
        if cell is None or cell == "":
            raise DataFormatError(f"{path}: missing value in column {name!r} at data row {i}")
        try:
            values.append(float(cell))
        except ValueError:
            raise DataFormatError(
                f"{path}: non-numeric value {cell!r} in column {name!r} at data row {i}"
            ) from None
    return np.array(values)


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    projects = load_projects(config)
    from cpdp_ifs.corpus import summarize

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
    return _column(rows, x_col, args.csv), _column(rows, y_col, args.csv)


def _compare_from_results(args: argparse.Namespace) -> tuple[np.ndarray, np.ndarray]:
    if not (args.method_a and args.method_b):
        raise ConfigError("--results needs --method-a and --method-b")
    path = str(Path(args.results) / "best_per_target.csv")
    _, rows = _read_csv_rows(path)
    scores: dict[str, dict[str, float]] = {}
    for row in rows:
        scores.setdefault(row["method"], {})[row["target"]] = float(row["f_measure"])
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
    from cpdp_ifs.corpus import summarize

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
        sys.stdout.write((Path(args.results) / "boxplot_summary.csv").read_text(encoding="utf-8"))
        return EXIT_OK
    path, group_col, value_col = args.csv, args.group_col, args.value_col
    header, rows = _read_csv_rows(path)
    for column in (group_col, value_col):
        if column not in header:
            raise DataFormatError(f"{path}: column {column!r} not found")
    groups: dict[str, list[float]] = {}
    for i, row in enumerate(rows, start=1):
        try:
            value = float(row[value_col])
        except ValueError:
            raise DataFormatError(
                f"{path}: non-numeric value {row[value_col]!r} at data row {i}"
            ) from None
        groups.setdefault(row[group_col], []).append(value)
    write_boxplot_summary(sys.stdout, emit_boxplot_summary({g: groups[g] for g in sorted(groups)}))
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
    except (DataError, DataFormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # Statistical preconditions (degenerate pairing, undefined DPR, ...)
        # are properties of the supplied data.
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
