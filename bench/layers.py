"""Per-layer tracing of one ``cpdp-ifs`` command, from outside the program.

Run as a script, this is the traced child:

    python3 bench/layers.py SPANS_JSON run --config CONFIG --out DIR

It times the cold import of ``cpdp_ifs.cli``, wraps the module-level names
through which each layer is called, runs the CLI's ``main`` and writes the
spans to SPANS_JSON. Wrappers sit on the binding each caller uses:
``experiment._RUNNERS`` holds the route functions captured at import time,
``predictors`` imported its helpers by name, and ``profiles`` and
``learner.classify`` resolve ``preprocess_matrix`` and ``predict_proba`` in
their own modules.

Imported, it turns recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

from tracing import BOOKKEEPING, Span, Tracer, array_key, nearest_rank, self_times, tail_percentile

ROUTES = ("cpdp_pure", "ifs_our", "ifs_min", "mix")

PER_LAYER: dict[str, str] = {
    "cli.import_s": "s",
    "corpus.load_calls": "count",
    "corpus.load_s": "s",
    "corpus.input_bytes": "bytes",
    "corpus.intersect_calls": "count",
    "corpus.intersect_s": "s",
    "preprocess.calls": "count",
    "preprocess.s": "s",
    "preprocess.useful_ratio": "ratio",
    "profiles.calls": "count",
    "profiles.rows": "count",
    "profiles.s": "s",
    "profiles.us_per_row": "us",
    "profiles.useful_ratio": "ratio",
    "learner.train_calls": "count",
    "learner.train_s": "s",
    "learner.iterations": "count",
    "learner.train_useful_ratio": "ratio",
    "learner.predict_proba_calls": "count",
    "learner.predict_s": "s",
    **{
        f"predictors.{route}.{metric}": unit
        for route in ROUTES
        for metric, unit in (("pairs", "count"), ("self_s", "s"), ("pair_ms_p50", "ms"))
    },
    "predictors.pair_ms_tail": "ms",
    "predictors.failures": "count",
    "stats.calls": "count",
    "stats.s": "s",
    "stats.exact_tests": "count",
    "stats.asymptotic_tests": "count",
    "experiment.pairs_wall_s": "s",
    "experiment.pair_busy_s": "s",
    "experiment.pool_parallelism": "ratio",
    "experiment.self_s": "s",
    "experiment.write_s": "s",
    "experiment.report_files": "count",
    "experiment.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "src.lines": "lines",
}


# The metrics each boundary feeds. A boundary that a workload should reach
# but that was never called leaves its metrics unmeasured, never 0 s.
SOURCES: dict[str, tuple[str, ...]] = {
    "corpus.load": ("corpus.load_calls", "corpus.load_s", "corpus.input_bytes"),
    "corpus.intersect": ("corpus.intersect_calls", "corpus.intersect_s"),
    "preprocess.matrix": ("preprocess.calls", "preprocess.s", "preprocess.useful_ratio"),
    "profiles.project": (
        "profiles.calls",
        "profiles.rows",
        "profiles.s",
        "profiles.us_per_row",
        "profiles.useful_ratio",
    ),
    "learner.train": (
        "learner.train_calls",
        "learner.train_s",
        "learner.iterations",
        "learner.train_useful_ratio",
    ),
    "learner.predict_proba": ("learner.predict_proba_calls", "learner.predict_s"),
    **{
        f"predictors.{route}": tuple(
            f"predictors.{route}.{metric}" for metric in ("pairs", "self_s", "pair_ms_p50")
        )
        for route in ROUTES
    },
    "stats.compare_paired": ("stats.exact_tests", "stats.asymptotic_tests"),
    "experiment.execute_pairs": ("experiment.pairs_wall_s", "experiment.pool_parallelism"),
    "experiment.write_report": ("experiment.write_s",),
}


def _input_bytes(span: Span, args: tuple, result) -> None:
    span.attrs["bytes"] = os.path.getsize(args[0])


def _preprocess_key(span: Span, args: tuple, result) -> None:
    span.attrs["key"] = f"{array_key(args[0])}|{args[1]!r}"


def _profile_key(span: Span, args: tuple, result) -> None:
    span.attrs["key"] = f"{args[0].name}|{args[1:]!r}"
    span.attrs["rows"] = result.n_instances


def _train_key(span: Span, args: tuple, result) -> None:
    span.attrs["key"] = f"{array_key(args[0])}|{array_key(args[1])}"
    span.attrs["iterations"] = result.meta.iterations


def _test_branch(span: Span, args: tuple, result) -> None:
    span.attrs["branch"] = result.method_note.split(",", 1)[0]


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer boundary; return the boundaries that were not found."""
    from cpdp_ifs import cli, experiment, learner, predictors, profiles

    missing = []

    def wrap(owner, attr, name, after=None, adopt_threads=False):
        try:
            tracer.wrap(owner, attr, name, after, adopt_threads)
        except AttributeError:
            missing.append(f"{owner.__name__}.{attr}")

    wrap(cli, "run_plan", "experiment.run_plan")
    wrap(experiment, "_execute_pairs", "experiment.execute_pairs", adopt_threads=True)
    wrap(experiment, "write_report", "experiment.write_report")
    wrap(experiment, "load_csv", "corpus.load", _input_bytes)
    wrap(experiment, "load_arff", "corpus.load", _input_bytes)
    wrap(predictors, "intersect_features", "corpus.intersect")
    wrap(predictors, "preprocess_matrix", "preprocess.matrix", _preprocess_key)
    wrap(profiles, "preprocess_matrix", "preprocess.matrix", _preprocess_key)
    wrap(predictors, "characterize_project", "profiles.project", _profile_key)
    wrap(predictors, "train", "learner.train", _train_key)
    wrap(predictors, "predict_proba", "learner.predict_proba")
    wrap(learner, "predict_proba", "learner.predict_proba")
    wrap(predictors, "classify", "learner.classify")
    wrap(experiment, "run_mix", "predictors.mix")
    wrap(experiment, "compare_paired", "stats.compare_paired", _test_branch)
    wrap(experiment, "dpr", "stats.dpr")
    wrap(experiment, "pearson", "stats.pearson")
    runners = getattr(experiment, "_RUNNERS", None)
    if runners is None:
        missing.append("cpdp_ifs.experiment._RUNNERS")
    else:
        for method, runner in list(runners.items()):
            runners[method] = tracer.wrapped(runner, f"predictors.{method.value}")
    return missing


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def metrics(spans: list[Span]) -> tuple[dict[str, float | None], list[str]]:
    """Per-layer metrics of one traced run, plus detail lines to print.

    Every workload reaches every boundary; the metrics of a boundary never
    called are ``None`` (unmeasured), never 0 s. The caller adds ``cli.import_s``, the report size, ``trace.overhead_ratio``
    and ``src.lines``.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    def distinct(name: str) -> float | None:
        return _ratio(len({s.attrs["key"] for s in named(name)}), len(named(name)))

    out: dict[str, float | None] = {}
    details: list[str] = []

    out["corpus.load_calls"] = len(named("corpus.load"))
    out["corpus.load_s"] = total("corpus.load")
    out["corpus.input_bytes"] = sum(s.attrs["bytes"] for s in named("corpus.load"))
    out["corpus.intersect_calls"] = len(named("corpus.intersect"))
    out["corpus.intersect_s"] = total("corpus.intersect")

    out["preprocess.calls"] = len(named("preprocess.matrix"))
    out["preprocess.s"] = total("preprocess.matrix")
    out["preprocess.useful_ratio"] = distinct("preprocess.matrix")

    profiled = named("profiles.project")
    rows = sum(s.attrs["rows"] for s in profiled)
    profile_self = sum(own[s.id] for s in profiled)
    out["profiles.calls"] = len(profiled)
    out["profiles.rows"] = rows
    out["profiles.s"] = profile_self
    out["profiles.us_per_row"] = _ratio(profile_self * 1e6, rows)
    out["profiles.useful_ratio"] = distinct("profiles.project")

    out["learner.train_calls"] = len(named("learner.train"))
    out["learner.train_s"] = total("learner.train")
    out["learner.iterations"] = sum(s.attrs["iterations"] for s in named("learner.train"))
    out["learner.train_useful_ratio"] = distinct("learner.train")
    out["learner.predict_proba_calls"] = len(named("learner.predict_proba"))
    out["learner.predict_s"] = total("learner.predict_proba")

    pair_ms: list[float] = []
    for route in ROUTES:
        runs = named(f"predictors.{route}")
        ms = sorted(s.duration * 1e3 for s in runs)
        out[f"predictors.{route}.pairs"] = len(runs)
        out[f"predictors.{route}.self_s"] = sum(own[s.id] for s in runs)
        out[f"predictors.{route}.pair_ms_p50"] = nearest_rank(ms, 50) if ms else None
        p = tail_percentile(len(ms))
        if p is not None:
            tail = nearest_rank(ms, p)
            details.append(f"predictors.{route}.pair_ms_p{p} = {tail:.3f} ms (n={len(ms)})")
        if route != "mix":
            pair_ms.extend(ms)
    pair_ms.sort()
    p = tail_percentile(len(pair_ms))
    out["predictors.pair_ms_tail"] = None
    if p is not None:
        out["predictors.pair_ms_tail"] = nearest_rank(pair_ms, p)
        details.append(f"predictors.pair_ms_tail is p{p} of n={len(pair_ms)} pool pairs")
    reasons = Counter(
        s.attrs["error"]
        for route in ROUTES
        for s in named(f"predictors.{route}")
        if "error" in s.attrs
    )
    out["predictors.failures"] = sum(reasons.values())
    details.extend(f"predictors.failures.{reason} = {n}" for reason, n in sorted(reasons.items()))

    tests = named("stats.compare_paired")
    stats_spans = tests + named("stats.dpr") + named("stats.pearson")
    out["stats.calls"] = len(stats_spans)
    out["stats.s"] = sum(s.duration for s in stats_spans)
    out["stats.exact_tests"] = sum(s.attrs.get("branch") == "exact" for s in tests)
    out["stats.asymptotic_tests"] = sum(s.attrs.get("branch") == "asymptotic" for s in tests)

    wall = total("experiment.execute_pairs")
    busy = sum(s.duration for route in ROUTES[:3] for s in named(f"predictors.{route}"))
    out["experiment.pairs_wall_s"] = wall
    out["experiment.pair_busy_s"] = busy
    out["experiment.pool_parallelism"] = _ratio(busy, wall)
    out["experiment.self_s"] = sum(
        own[s.id] for s in named("experiment.run_plan") + named("experiment.execute_pairs")
    )
    out["experiment.write_s"] = total("experiment.write_report")

    for name, fed in SOURCES.items():
        if not named(name):
            out.update(dict.fromkeys(fed))
            details.append(f"unmeasured: {name} was never called")
    details.append(f"trace bookkeeping, excluded from every layer: {total(BOOKKEEPING):.3f} s")
    return out, details


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    from cpdp_ifs import cli

    import_s = time.perf_counter() - start
    missing = install(tracer)
    code = cli.main(cli_args)
    payload = {
        "import_s": import_s,
        "exit_code": code,
        "missing": missing,
        "spans": [vars(s) for s in tracer.spans],
    }
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
