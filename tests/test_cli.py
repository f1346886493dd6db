import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cpdp_ifs.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_PARTIAL, main

from synth import corpus_projects, write_corpus, write_project_csv


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_corpus")
    write_corpus(tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def report_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_report")
    code = main(["run", "--config", str(corpus_dir / "config.json"), "--out", str(out)])
    assert code == EXIT_OK
    return out


class TestIngest:
    def test_summarizes_every_dataset(self, corpus_dir, capsys):
        code = main(["ingest", "--config", str(corpus_dir / "config.json")])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("fam_a_p0: family=fam_a instances=110")
        assert "defect_ratio=" in lines[0]

    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = main(["ingest", "--config", str(tmp_path / "absent.json")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_broken_dataset_exits_2(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("a,bug\n1,oops\n", encoding="utf-8")
        config = {"datasets": [{"name": "bad", "path": "bad.csv"}], "methods": ["cpdp_pure"]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code = main(["ingest", "--config", str(tmp_path / "config.json")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestRun:
    def test_writes_report(self, report_dir, capsys):
        for name in ("results.csv", "best_per_target.csv", "manifest.json"):
            assert (report_dir / name).exists()

    def test_partial_failure_exits_3(self, tmp_path, capsys):
        # two families with disjoint metric names: ifs_min cannot intersect
        projects = [p for p in corpus_projects() if p.name in ("fam_a_p0", "fam_a_p1")]
        specs = []
        for i, project in enumerate(projects):
            if i == 1:
                import dataclasses

                from cpdp_ifs.corpus import FeatureSchema

                schema = FeatureSchema(
                    feature_names=tuple(f"other_{j}" for j in range(project.n_features)),
                    label_column="bug",
                )
                project = dataclasses.replace(
                    project, name="solo", dataset_family="fam_z", schema=schema
                )
            write_project_csv(tmp_path / f"{project.name}.csv", project)
            specs.append(
                {
                    "name": project.name,
                    "path": f"{project.name}.csv",
                    "family": project.dataset_family,
                }
            )
        config = {
            "datasets": specs,
            "methods": ["ifs_min"],
            "output_dir": str(tmp_path / "rep"),
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code = main(["run", "--config", str(tmp_path / "config.json")])
        assert code == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "no common metrics" in err

    def test_run_accepts_only_config_and_out(self, corpus_dir, capsys):
        for flag in (["--workers", "1"], ["--log-filter"]):
            code = main(["run", "--config", str(corpus_dir / "config.json"), *flag])
            assert code == EXIT_CONFIG
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_wrongly_typed_config_exits_1_without_traceback(self, tmp_path):
        config = {"datasets": [{"name": "a", "path": "a.csv", "alias_map": 5}]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "cpdp_ifs.cli", "run", "--config",
             str(tmp_path / "config.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_CONFIG
        assert "config error: datasets[0].alias_map" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        (tmp_path / "config.json").write_text('{"surprise": 1}', encoding="utf-8")
        code = main(["run", "--config", str(tmp_path / "config.json")])
        assert code == EXIT_CONFIG


class TestCompare:
    def test_from_results_directory(self, report_dir, capsys):
        code = main(
            [
                "compare",
                "--results",
                str(report_dir),
                "--method-a",
                "cpdp_pure",
                "--method-b",
                "ifs_our",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "n_pairs=" in out
        assert "p_value=" in out
        assert "cliffs_delta=" in out

    def test_from_csv_with_explicit_columns(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text(
            "name,a,b\nr1,0.50,0.40\nr2,0.60,0.30\nr3,0.70,0.20\nr4,0.40,0.45\n",
            encoding="utf-8",
        )
        code = main(
            ["compare", "--csv", str(path), "--x-col", "a", "--y-col", "b",
             "--method", "exact"]
        )
        assert code == EXIT_OK
        out = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert out["n_pairs"] == "4"
        assert out["note"].startswith("exact")

    def test_csv_with_utf8_bom(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("\ufeffa,b\n0.5,0.4\n0.6,0.3\n0.7,0.6\n", encoding="utf-8")
        code = main(["compare", "--csv", str(path), "--x-col", "a", "--y-col", "b"])
        assert code == EXIT_OK
        assert "n_pairs=3" in capsys.readouterr().out

    def test_default_columns_are_first_two(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("a,b\n0.5,0.4\n0.6,0.3\n0.7,0.6\n", encoding="utf-8")
        assert main(["compare", "--csv", str(path)]) == EXIT_OK

    def test_both_sources_rejected(self, report_dir, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        code = main(["compare", "--csv", str(path), "--results", str(report_dir)])
        assert code == EXIT_CONFIG
        assert "exactly one" in capsys.readouterr().err

    def test_neither_source_rejected(self, capsys):
        assert main(["compare"]) == EXIT_CONFIG

    def test_results_without_methods_rejected(self, report_dir, capsys):
        code = main(["compare", "--results", str(report_dir)])
        assert code == EXIT_CONFIG
        assert "--method-a" in capsys.readouterr().err

    def test_unknown_method_name_exits_2(self, report_dir, capsys):
        code = main(
            [
                "compare",
                "--results",
                str(report_dir),
                "--method-a",
                "cpdp_pure",
                "--method-b",
                "nope",
            ]
        )
        assert code == EXIT_DATA
        assert "no rows for method" in capsys.readouterr().err

    def test_degenerate_pairing_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("a,b\n0.5,0.5\n0.6,0.6\n", encoding="utf-8")
        code = main(["compare", "--csv", str(path)])
        assert code == EXIT_DATA
        assert "degenerate pairing" in capsys.readouterr().err

    def test_single_column_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("a\n0.5\n0.6\n", encoding="utf-8")
        code = main(["compare", "--csv", str(path)])
        assert code == EXIT_DATA
        assert "two columns" in capsys.readouterr().err

    def test_non_numeric_cell_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("a,b\n0.5,oops\n0.6,0.3\n", encoding="utf-8")
        assert main(["compare", "--csv", str(path)]) == EXIT_DATA


class TestDpr:
    def test_reports_value_and_flag(self, corpus_dir, capsys):
        code = main(
            [
                "dpr",
                "--config",
                str(corpus_dir / "config.json"),
                "--source",
                "fam_a_p0",
                "--target",
                "fam_b_p1",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("dpr=")
        assert "low_dpr=" in out
        assert "threshold 0.64" in out

    def test_unknown_dataset_exits_1(self, corpus_dir, capsys):
        code = main(
            [
                "dpr",
                "--config",
                str(corpus_dir / "config.json"),
                "--source",
                "fam_a_p0",
                "--target",
                "ghost",
            ]
        )
        assert code == EXIT_CONFIG
        assert "not in the config" in capsys.readouterr().err

    def test_zero_defect_target_exits_2(self, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("a,bug\n1,1\n2,0\n3,1\n", encoding="utf-8")
        (tmp_path / "t.csv").write_text("a,bug\n1,0\n2,0\n3,0\n", encoding="utf-8")
        config = {
            "datasets": [
                {"name": "s", "path": "s.csv"},
                {"name": "t", "path": "t.csv"},
            ],
            "methods": ["cpdp_pure"],
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code = main(
            ["dpr", "--config", str(tmp_path / "config.json"), "--source", "s",
             "--target", "t"]
        )
        assert code == EXIT_DATA
        assert "no defective instances" in capsys.readouterr().err


class TestBox:
    def test_from_results_directory(self, report_dir, capsys):
        code = main(["box", "--results", str(report_dir)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out == (report_dir / "boxplot_summary.csv").read_text(encoding="utf-8")
        lines = out.strip().splitlines()
        assert lines[0].startswith("group,n,minimum")
        groups = {line.split(",")[0] for line in lines[1:]}
        assert groups == {"cpdp_pure", "ifs_min", "ifs_our", "mix"}

    def test_from_csv_with_custom_columns(self, tmp_path, capsys):
        path = tmp_path / "vals.csv"
        path.write_text(
            "tool,score\nx,1.0\nx,2.0\nx,3.0\nx,4.0\nx,100.0\n", encoding="utf-8"
        )
        code = main(
            ["box", "--csv", str(path), "--group-col", "tool", "--value-col", "score"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split(",")[0] == "x"
        assert lines[1].endswith("100.000000")  # the outlier column

    def test_missing_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "vals.csv"
        path.write_text("tool,score\nx,1.0\n", encoding="utf-8")
        code = main(["box", "--csv", str(path), "--group-col", "nope"])
        assert code == EXIT_DATA
        assert "not found" in capsys.readouterr().err

    def test_both_sources_rejected(self, tmp_path, capsys):
        assert main(["box", "--csv", "x.csv", "--results", "y"]) == EXIT_CONFIG


class TestUsage:
    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["ingest"]) == EXIT_CONFIG

    def test_import_leaves_scipy_stats_unloaded(self):
        code = "import cpdp_ifs.cli, sys; assert 'scipy.stats' not in sys.modules"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_run_loads_no_scipy_module(self, corpus_dir, tmp_path):
        code = (
            "import sys, cpdp_ifs.cli\n"
            "status = cpdp_ifs.cli.main(sys.argv[1:])\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert status == 0 and not loaded, (status, sorted(loaded))\n"
        )
        argv = ["run", "--config", str(corpus_dir / "config.json"), "--out", str(tmp_path)]
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "manifest.json").exists()

    def test_console_script_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "cpdp_ifs.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "ingest" in result.stdout
        assert "compare" in result.stdout


class TestIndicatorWeights:
    def test_one_row_project_is_skipped_not_a_traceback(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        projects = [p for p in corpus_projects() if p.name in ("fam_a_p0", "fam_b_p0")]
        one = corpus_projects()[-1]
        projects.append(
            dataclasses.replace(one, name="tiny", matrix=one.matrix[:1], labels=one.labels[:1])
        )
        specs = []
        for project in projects:
            write_project_csv(tmp_path / f"{project.name}.csv", project)
            specs.append(
                {
                    "name": project.name,
                    "path": f"{project.name}.csv",
                    "family": project.dataset_family,
                }
            )
        (tmp_path / "config.json").write_text(json.dumps({"datasets": specs}), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        result = subprocess.run(
            [sys.executable, str(repo / "scripts" / "indicator_weights.py"),
             "--config", str(tmp_path / "config.json")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        skipped = sorted(line for line in result.stderr.splitlines() if line.startswith("skipped"))
        assert skipped == [
            f"skipped {pair}: insufficient rows for normalization (need at least 2)"
            for pair in ("fam_a_p0->tiny", "fam_b_p0->tiny", "tiny->fam_a_p0", "tiny->fam_b_p0")
        ]
        assert result.stdout.splitlines()[0] == "pairs scored: 2"
