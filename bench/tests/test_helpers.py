"""Tests of the benchmark's own helpers: python3 -m pytest bench/tests"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Span, Tracer, covered, nearest_rank, self_times, tail_percentile  # noqa: E402


def test_self_time_subtracts_union_of_overlapping_pool_children():
    parent = Span(1, None, "experiment.execute_pairs", 0.0, 10.0)
    # Two pool threads: A runs [0, 6] then [6, 9]; B runs [1, 5] then [5, 8].
    children = [
        Span(2, 1, "predictors.ifs_our", 0.0, 6.0, thread=1),
        Span(3, 1, "predictors.ifs_our", 6.0, 9.0, thread=1),
        Span(4, 1, "predictors.ifs_min", 1.0, 5.0, thread=2),
        Span(5, 1, "predictors.ifs_min", 5.0, 8.0, thread=2),
        Span(6, 4, "learner.train", 2.0, 3.0, thread=2),
    ]
    own = self_times([parent, *children])
    assert own[1] == pytest.approx(1.0)  # only [9, 10] is uncovered
    assert own[4] == pytest.approx(3.0)
    assert own[2] == pytest.approx(6.0)
    assert sum(c.duration for c in children[:4]) == pytest.approx(16.0)  # busy, not wall


def test_covered_clips_children_to_the_interval():
    assert covered((2.0, 4.0), [(0.0, 3.0), (3.5, 9.0)]) == pytest.approx(1.5)
    assert covered((0.0, 1.0), []) == 0.0


def test_pool_thread_spans_take_the_submitting_span_as_parent():
    tracer = Tracer()
    work = tracer.wrapped(lambda: threading.get_ident(), "predictors.cpdp_pure")

    def execute():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(work) for _ in range(6)]]

    tracer.wrapped(execute, "experiment.execute_pairs", adopt_threads=True)()
    pool_span = next(s for s in tracer.spans if s.name == "experiment.execute_pairs")
    pairs = [s for s in tracer.spans if s.name == "predictors.cpdp_pure"]
    assert len(pairs) == 6
    assert all(s.parent == pool_span.id for s in pairs)
    assert all(s.thread != pool_span.thread for s in pairs)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(106) == 90
    assert tail_percentile(156) == 93
    assert tail_percentile(266) == 96
    assert tail_percentile(20) == 50
    assert tail_percentile(19) is None
    for n in (20, 57, 98, 1000):
        p = tail_percentile(n)
        values = sorted(float(i) for i in range(n))
        beyond = sum(v > nearest_rank(values, p) for v in values)
        assert beyond >= 10
        if p < 99:
            assert sum(v > nearest_rank(values, p + 1) for v in values) < 10


def _write_report(directory: Path, output_dir: str, workers: int) -> None:
    (directory / "models").mkdir(parents=True)
    (directory / "results.csv").write_text("method,f_measure\nifs_our,0.5\n")
    (directory / "models" / "m.json").write_text('{"weights": [1.0]}\n')
    manifest = {
        "config": {"output_dir": output_dir, "workers": workers},
        "config_hash": output_dir * 2,
        "completed": 1,
        "failed": 0,
        "planned_pairs": {"ifs_our": 1},
    }
    (directory / "manifest.json").write_text(json.dumps(manifest))


def test_report_digest_ignores_the_config_echo(tmp_path):
    _write_report(tmp_path / "a", "out/a", 1)
    _write_report(tmp_path / "b", "out/b", 2)
    assert checks.report_digest(tmp_path / "a") == checks.report_digest(tmp_path / "b")

    (tmp_path / "b" / "models" / "m.json").write_text('{"weights": [1.5]}\n')
    assert checks.report_digest(tmp_path / "a") != checks.report_digest(tmp_path / "b")


def test_report_digest_sees_the_manifest_counts(tmp_path):
    _write_report(tmp_path / "a", "out", 1)
    before = checks.report_digest(tmp_path / "a")
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    manifest["completed"] = 2
    (tmp_path / "a" / "manifest.json").write_text(json.dumps(manifest))
    assert checks.report_digest(tmp_path / "a") != before


def test_input_digest_mismatch_fails_loudly(tmp_path):
    (tmp_path / "p0.csv").write_text("loc,bug\n1,0\n")
    recorded = checks.file_digests(tmp_path)
    checks.check_inputs(checks.file_digests(tmp_path), recorded, "paper")

    (tmp_path / "p0.csv").write_text("loc,bug\n2,0\n")
    (tmp_path / "p1.csv").write_text("loc,bug\n1,1\n")
    with pytest.raises(checks.InputMismatch) as raised:
        checks.check_inputs(checks.file_digests(tmp_path), recorded, "paper")
    message = str(raised.value)
    assert "paper" in message and "p0.csv" in message and "p1.csv: expected no file" in message


def test_manifest_counts_flag_failed_and_missing_pairs(tmp_path):
    _write_report(tmp_path, "out", 1)
    assert checks.manifest_counts(tmp_path, 1) == (1, [])
    completed, problems = checks.manifest_counts(tmp_path, 2)
    assert problems == ["planned 1 pairs, expected 2"]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_unreached_layers_are_unmeasured_not_zero():
    spans = [
        Span(1, None, "experiment.run_plan", 0.0, 4.0),
        Span(2, 1, "experiment.execute_pairs", 0.5, 3.5),
        Span(3, 2, "predictors.cpdp_pure", 0.5, 2.0),
        Span(4, 3, "learner.train", 0.6, 1.6, attrs={"key": "a", "iterations": 7}),
        Span(5, 2, "predictors.ifs_min", 2.0, 3.0),
        Span(6, 5, "learner.train", 2.1, 2.6, attrs={"key": "a", "iterations": 5}),
    ]
    values, details = layers.metrics(spans)
    assert values["profiles.s"] is None and values["profiles.us_per_row"] is None
    assert values["predictors.ifs_our.pair_ms_p50"] is None
    assert values["learner.train_calls"] == 2 and values["learner.iterations"] == 12
    assert values["learner.train_useful_ratio"] == 0.5
    assert values["experiment.pool_parallelism"] == pytest.approx(2.5 / 3.0)
    assert values["experiment.self_s"] == pytest.approx(1.0 + 0.5)
    assert values["corpus.load_s"] is None and values["stats.exact_tests"] is None
    assert "unmeasured: corpus.load was never called" in details
