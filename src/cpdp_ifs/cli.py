"""Command line front end.

Subcommands: ``ingest`` validates and summarizes the configured data sets,
``run`` executes the full experiment and writes the report directory,
``compare`` runs the paired significance test, ``dpr`` reports the defect
proneness ratio of a source/target pair, and ``box`` prints boxplot
summaries. ``run`` takes only ``--config`` and ``--out``; every other run
setting is a config key. Exit codes: 0 success, 1 config/usage error,
2 data error, 3 run finished with partial failures. A data error is an
``OSError`` or a :class:`~cpdp_ifs.corpus.DataError`; any other exception,
a ``ValueError`` included, is a program fault and ends in a traceback.

Each command imports the modules it needs when it runs, so neither ``ingest``
nor ``dpr`` loads numpy. A fault in a score table that ``compare`` or ``box``
reads names the file, with :func:`~cpdp_ifs.corpus.located` around each
reader, and the data row, with the same around each row of a column, or the
target whose two scores ``compare --results`` pairs.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import sys
from pathlib import Path

from cpdp_ifs.config import ConfigError, ExperimentConfig, load_config, load_datasets
from cpdp_ifs.corpus import (
    DPR_IMPROVEMENT_THRESHOLD, DataError, dpr, located, parse_arff, parse_csv, parse_number,
    read_table, summarize,
)

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


def _read_csv_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """:func:`read_table`, where a repeated column name, a header-only file
    or a data row with more cells than the header is also a data error."""
    header, rows = read_table(path)
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise DataError(f"duplicate column names {repeated}")
    if not rows:
        raise DataError("empty file (header only)")
    for i, row in enumerate(rows, start=1):
        if len(row) > len(header):
            with located(f"data row {i}"):
                raise DataError(f"{len(row)} cells, expected {len(header)}")
    return header, rows


def _column(header: list[str], rows: list[list[str]], name: str, numeric: bool = True) -> list:
    """Column ``name`` of a ``_read_csv_rows`` table, each cell read by
    :func:`parse_number` when ``numeric``; a missing column or an empty cell
    is also a data error."""
    if name not in header:
        raise DataError(f"column {name!r} not found")
    idx = header.index(name)
    values = []
    for i, row in enumerate(rows, start=1):
        with located(f"data row {i}"):
            cell = row[idx] if idx < len(row) else ""
            if cell == "":
                raise DataError(f"missing value in column {name!r}")
            values.append(parse_number(cell, name) if numeric else cell)
    return values


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    # From the parsed cells: building a Project would load numpy.
    for name, family, schema, _, labels in load_datasets(config, parse_csv, parse_arff):
        s = summarize(labels, len(schema.feature_names))
        print(
            f"{name}: family={family} instances={s.instance_count} defects={s.defect_count} "
            f"defect_ratio={s.defect_ratio:.3f} metrics={s.metric_count}"
        )
    return EXIT_OK


def run_plan(config: ExperimentConfig):
    """:func:`cpdp_ifs.experiment.run_plan`, imported when first called, so
    that only ``run`` loads numpy and the modules that need it."""
    from cpdp_ifs.experiment import run_plan as run_experiment

    return run_experiment(config)


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.out is not None:
        try:
            config = dataclasses.replace(config, output_dir=args.out)
        except ValueError as exc:  # the config type's own checks
            raise ConfigError(f"invalid --out: {exc}") from None
    out_dir = Path(config.output_dir)
    for path in (out_dir, *out_dir.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"output path {str(path)!r} exists and is not a directory")

    bundle = run_plan(config)
    # Imported here, as in ``run_plan``, so that no other command loads numpy.
    from cpdp_ifs.experiment import write_report

    write_report(bundle, out_dir)

    print(f"report written to {out_dir}")
    print(f"pairs completed: {len(bundle.outcomes)}, failed: {len(bundle.failures)}")
    if bundle.failures:
        for failure in bundle.failures:
            print(
                f"failed: {failure.method.value} {failure.source}->{failure.target}: "
                f"{failure.error}",
                file=sys.stderr,
            )
        return EXIT_PARTIAL
    return EXIT_OK


def _compare_from_csv(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    with located(args.csv):
        header, rows = _read_csv_rows(args.csv)
        x_col = args.x_col or header[0]
        y_col = args.y_col or (header[1] if len(header) > 1 else None)
        if y_col is None:
            raise DataError("need two columns for a paired comparison")
        if x_col == y_col:
            raise ConfigError(f"--x-col and --y-col must name two columns, not {x_col!r} twice")
        x, y = _column(header, rows, x_col), _column(header, rows, y_col)
        for i, (a, b) in enumerate(zip(x, y), start=1):
            with located(f"data row {i}"):
                if not math.isfinite(a - b):
                    raise DataError(f"{x_col!r} - {y_col!r} overflows the float range")
        return x, y


def _compare_from_results(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    if not (args.method_a and args.method_b):
        raise ConfigError("--results needs --method-a and --method-b")
    if args.method_a == args.method_b:
        raise ConfigError(f"--method-a and --method-b must differ, not {args.method_a!r} twice")
    path = Path(args.results) / "best_per_target.csv"
    scores: dict[str, dict[str, float]] = {}
    with located(path):
        header, rows = _read_csv_rows(path)
        methods, targets, f_measures = (
            _column(header, rows, name, numeric)
            for name, numeric in (("method", False), ("target", False), ("f_measure", True))
        )
        for method, target, f_measure in zip(methods, targets, f_measures):
            if target in scores.setdefault(method, {}):
                raise DataError(f"two rows for method {method!r} and target {target!r}")
            scores[method][target] = f_measure
        for method in (args.method_a, args.method_b):
            if method not in scores:
                raise DataError(f"no rows for method {method!r}")
        common = sorted(set(scores[args.method_a]) & set(scores[args.method_b]))
        if not common:
            raise DataError("no common targets for the two methods")
        x = [scores[args.method_a][t] for t in common]
        y = [scores[args.method_b][t] for t in common]
        for target, a, b in zip(common, x, y):
            with located(f"target {target!r}"):
                if not math.isfinite(a - b):
                    raise DataError(
                        f"{args.method_a!r} - {args.method_b!r} overflows the float range"
                    )
        return x, y


def _cmd_compare(args: argparse.Namespace) -> int:
    from cpdp_ifs.stats import compare_paired

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
    if args.source == args.target:
        raise ConfigError(
            f"source and target must be distinct data sets, not {args.source!r} twice"
        )
    wanted = dataclasses.replace(
        config,
        datasets=tuple(d for d in config.datasets if d.name in (args.source, args.target)),
    )
    summaries = {
        name: summarize(labels, len(schema.feature_names))
        for name, _, schema, _, labels in load_datasets(wanted, parse_csv, parse_arff)
    }
    value = dpr(summaries[args.source].defect_ratio, summaries[args.target].defect_ratio)
    low = value < DPR_IMPROVEMENT_THRESHOLD
    print(f"dpr={value:.6f}")
    print(f"low_dpr={'true' if low else 'false'} (threshold {DPR_IMPROVEMENT_THRESHOLD})")
    return EXIT_OK


def _cmd_box(args: argparse.Namespace) -> int:
    from cpdp_ifs.experiment import BoxplotSummary, emit_boxplot_summary, write_table

    if bool(args.csv) == bool(args.results):
        raise ConfigError("box needs exactly one of --csv or --results")
    if args.results:
        # The report holds this table, computed from the unrounded f-measures.
        path = Path(args.results) / "boxplot_summary.csv"
        with located(path):
            try:
                sys.stdout.write(path.read_text(encoding="utf-8"))
            except UnicodeDecodeError as exc:
                raise DataError(str(exc)) from None
        return EXIT_OK
    groups: dict[str, list[float]] = {}
    with located(args.csv):
        header, rows = _read_csv_rows(args.csv)
        for group, value in zip(
            _column(header, rows, args.group_col, numeric=False),
            _column(header, rows, args.value_col),
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
    except (OSError, DataError) as exc:
        # Unreadable or malformed files and unusable data (degenerate pairing,
        # undefined DPR, ...); any other ValueError is a program fault.
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
