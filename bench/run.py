#!/usr/bin/env python3
"""The cpdp-ifs benchmark: real CLI runs on generated corpora.

    python3 bench/run.py --workload demo --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --record-golden

Run from the root of a source checkout. Each run generates the workload's
corpus from the seed, then, one child process at a time (a closed loop with
one client), alternates ``cpdp-ifs ingest`` and ``cpdp-ifs run`` in fresh
interpreters for about ``--seconds`` and at least three times, and reports
medians. ``--trace 1`` instead pairs each untraced ``run`` with a traced
one (``bench/layers.py``) and reports the per-layer metrics.

Every run first generates the default seed's inputs and checks them against
the digests in ``golden.json``, so a change to the generated data fails
loudly instead of comparing different data. Reports of one run must be
identical across its repetitions and, at the default seed, match the golden
report digest. The last line of stdout is the result as JSON; the lines
before it give samples and machine context. ``--record-golden`` rewrites ``golden.json`` after a
deliberate change to the generated data or to the reports.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import paper_corpus
from tracing import Span

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 7
MIN_REPS = 3
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    planned_pairs: int
    methods: tuple[str, ...] = ()  # empty: the demo generator writes its own config


WORKLOADS = {
    # README quick-start corpus: short rows, so import, the thread pool
    # (workers: 2) and per-pair overhead weigh most; the only ARFF input.
    "demo": Workload(planned_pairs=14 + 42 + 42 + 8),
    # Paper-shaped widths, all four methods: the profile kernel and the
    # learner on wide rows; 13 targets take the asymptotic Wilcoxon branch.
    "paper": Workload(
        planned_pairs=46 + 110 + 110 + 13, methods=("cpdp_pure", "ifs_our", "ifs_min", "mix")
    ),
}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pair_success_ratio": "ratio"}


@dataclass(frozen=True)
class Child:
    wall_s: float
    exit_code: int
    peak_rss_mb: float


def spawn(argv: list[str], log: Path) -> Child:
    """Run one child to its end; wall time from spawn to exit, and the peak
    RSS from the child's own rusage."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024)


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "cpdp_ifs.cli", *args]


def rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def make_inputs(name: str, seed: int, directory: Path) -> Path:
    """Generate the workload's corpus into ``directory``; return its config."""
    directory.mkdir(parents=True, exist_ok=True)
    report = rel(directory.parent / "report")
    if not WORKLOADS[name].methods:
        generator = [sys.executable, "scripts/make_demo_corpus.py", "--out", rel(directory)]
        child = spawn([*generator, "--seed", str(seed)], directory.parent / "generate.log")
        if child.exit_code != 0:
            raise RuntimeError(f"demo corpus generator exited {child.exit_code}")
        return directory / "config.json"
    return paper_corpus.write_corpus(directory, seed, list(WORKLOADS[name].methods), report)


@dataclass
class RunResult:
    child: Child
    completed: int
    digest: str | None
    problems: list[str]


def run_once(name: str, config: Path, traced_spans: Path | None = None) -> RunResult:
    """One ``cpdp-ifs run`` into the workload's fixed report directory."""
    report = config.parent.parent / "report"
    shutil.rmtree(report, ignore_errors=True)
    args = ("run", "--config", rel(config), "--out", rel(report))
    if traced_spans is None:
        argv = cli(*args)
    else:
        argv = [sys.executable, str(BENCH / "layers.py"), str(traced_spans), *args]
    child = spawn(argv, config.parent.parent / "run.log")
    if child.exit_code != 0:
        return RunResult(child, 0, None, [f"run exited {child.exit_code}"])
    try:
        completed, problems = checks.manifest_counts(report, WORKLOADS[name].planned_pairs)
        return RunResult(child, completed, checks.report_digest(report), problems)
    except (OSError, ValueError, KeyError) as exc:
        return RunResult(child, 0, None, [f"unreadable report: {exc!r}"])


def ingest_once(config: Path) -> tuple[Child, list[str]]:
    log = config.parent.parent / "ingest.log"
    child = spawn(cli("ingest", "--config", rel(config)), log)
    if child.exit_code != 0:
        return child, [f"ingest exited {child.exit_code}"]
    projects = len(json.loads(config.read_text(encoding="utf-8"))["datasets"])
    summaries = sum(" instances=" in line for line in log.read_text(encoding="utf-8").splitlines())
    return child, [] if summaries == projects else [f"ingest summarized {summaries} of {projects} projects"]


def spread(values: list[float]) -> str:
    text = f"median={statistics.median(values):.6g} n={len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" q1={q1:.6g} q3={q3:.6g}"
    return text + " samples=" + ",".join(f"{v:.4f}" for v in values)


def machine_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "loadavg": os.getloadavg(),
    }


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src" / "cpdp_ifs").rglob("*.py"))


def measure(name: str, config: Path, seconds: float, trace: bool):
    """The closed loop; returns (metrics, attempted, failed, report digest, problems)."""
    planned = WORKLOADS[name].planned_pairs
    samples: dict[str, list[float]] = {}
    digests: set[str | None] = set()
    problems: list[str] = []
    attempted = failed = reps = 0
    spans_path = config.parent.parent / "spans.json"
    details: list[str] = []
    start = time.perf_counter()
    rep_s: list[float] = []
    # Stop before a repetition that would likely end past ``seconds``, so a
    # run lasts about ``seconds`` rather than up to one repetition longer.
    while reps < (1 if trace else MIN_REPS) or (
        time.perf_counter() - start + statistics.median(rep_s) <= seconds
    ):
        rep_start = time.perf_counter()
        reps += 1
        if not trace:
            ingest, ingest_problems = ingest_once(config)
            samples.setdefault("setup_s", []).append(ingest.wall_s)
            problems += ingest_problems
        runs = [run_once(name, config)]
        if trace:
            spans_path.unlink(missing_ok=True)
            runs.append(run_once(name, config, spans_path))
        for result in runs:
            attempted += planned
            failed += planned if result.problems else planned - result.completed
            problems += result.problems
            digests.add(result.digest)
        samples.setdefault("run_s", []).append(runs[0].child.wall_s)
        samples.setdefault("peak_rss_mb", []).append(runs[0].child.peak_rss_mb)
        if trace and not runs[1].problems:
            samples.setdefault("traced_run_s", []).append(runs[1].child.wall_s)
            values, details = traced_metrics(name, spans_path, config)
            for key, value in values.items():
                samples.setdefault(key, []).append(value)
        if problems:
            break  # a broken run is reported at once, not repeated
        rep_s.append(time.perf_counter() - rep_start)
    if len(digests) != 1:
        problems.append(f"reports differ across repetitions: {len(digests)} digests")
    digest = digests.pop() if len(digests) == 1 else None
    if details:
        print("last traced run:")
        for line in details:
            print(f"  {line}")
    for key, values in samples.items():
        measured = [v for v in values if v is not None]
        print(f"{key}: {spread(measured) if measured else 'unmeasured'}")

    def median(key: str) -> float | None:
        values = samples.get(key, [])
        return None if None in values or not values else statistics.median(values)

    if trace:
        metrics = {key: median(key) for key in layers.PER_LAYER}
        if "traced_run_s" in samples:
            metrics["trace.overhead_ratio"] = median("traced_run_s") / median("run_s")
        metrics["src.lines"] = src_lines()
    else:
        metrics = {key: median(key) for key in ("run_s", "setup_s", "peak_rss_mb")}
        metrics["pair_success_ratio"] = (attempted - failed) / attempted
    return metrics, attempted, failed, digest, problems


def traced_metrics(name: str, spans_path: Path, config: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics and detail lines of the traced run just finished."""
    payload = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = [Span(**s) for s in payload["spans"]]
    values, details = layers.metrics(spans)
    details += [f"unmeasured: boundary {b} not found" for b in payload["missing"]]
    report = config.parent.parent / "report"
    files = [p for p in report.rglob("*") if p.is_file()]
    values["cli.import_s"] = payload["import_s"]
    values["experiment.report_files"] = len(files)
    values["experiment.report_bytes"] = sum(p.stat().st_size for p in files)
    return values, details


def check_golden_inputs(name: str, golden: dict) -> None:
    """Generate the default seed's inputs; raise if their digests changed."""
    config = make_inputs(name, DEFAULT_SEED, ROOT / ".bench_work" / name / "golden")
    checks.check_inputs(checks.file_digests(config.parent), golden["inputs"][name], name)


def record_golden() -> int:
    golden: dict = {"seed": DEFAULT_SEED, "inputs": {}, "reports": {}}
    for name in WORKLOADS:
        work = ROOT / ".bench_work" / name
        shutil.rmtree(work, ignore_errors=True)
        config = make_inputs(name, DEFAULT_SEED, work / "golden")
        result = run_once(name, config)
        if result.problems:
            print(f"{name}: {result.problems}", file=sys.stderr)
            return 1
        golden["inputs"][name] = checks.file_digests(config.parent)
        golden["reports"][name] = result.digest
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    for needed in ("src/cpdp_ifs/cli.py", "scripts/make_demo_corpus.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found; run from the root of a source checkout", file=sys.stderr)
            return 2
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")

    name = args.workload
    work = ROOT / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    context = machine_context()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    try:
        check_golden_inputs(name, golden)
    except checks.InputMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    config = make_inputs(name, args.seed, work / "inputs")
    inputs = checks.file_digests(config.parent)
    print(f"inputs seed={args.seed}: " + json.dumps(inputs, sort_keys=True))
    metrics, attempted, failed, digest, problems = measure(name, config, args.seconds, bool(args.trace))
    if args.seed == DEFAULT_SEED and digest != golden["reports"][name]:
        problems.append(f"report digest {digest} != golden {golden['reports'][name]}")
    if checks.file_digests(config.parent) != inputs:
        problems.append("input files changed during the run")

    context["loadavg_end"] = os.getloadavg()
    print("context: " + json.dumps(context))
    for problem in problems:
        print(f"check failed: {problem}")
    for key, value in metrics.items():
        if value is None:
            print(f"unmeasured: {key}")
    units = layers.PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if v is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
