import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpdp_ifs.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_PARTIAL, main
from cpdp_ifs.profiles import INDICATOR_NAMES

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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cpdp_ifs.cli", *args], capture_output=True, text=True
    )


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

    def test_config_not_utf8_exits_1_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"datasets": [{"name": "caf\xe9", "path": "a.csv"}]}')
        assert main(["ingest", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: 'utf-8' codec")

    def test_colliding_feature_names_exit_1(self, tmp_path, capsys):
        config = {"datasets": [{"name": "a", "path": "a.csv", "feature_names": ["loc", "LOC"]}]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code = main(["ingest", "--config", str(tmp_path / "config.json")])
        assert code == EXIT_CONFIG
        assert "config error: invalid datasets[0] settings" in capsys.readouterr().err

    def test_broken_dataset_exits_2(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("a,bug\n1,oops\n", encoding="utf-8")
        config = {"datasets": [{"name": "bad", "path": "bad.csv"}], "methods": ["cpdp_pure"]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code = main(["ingest", "--config", str(tmp_path / "config.json")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("p.csv", "a,b,bug\r\n1,2,0\r\n3,inf,1\r\n", "non-finite feature cell at data row 2"),
            ("p.csv", "\ufeffa,bug\n1,0\n2,1,\n", "data row 2 has 3 cells, expected 2"),
            (
                "p.arff",
                "@relation r\n@attribute a numeric\n@attribute bug {0,1}\n@data\n1,0\n{0 1}\n",
                "sparse ARFF data is not supported (row 2)",
            ),
        ],
    )
    def test_malformed_dataset_exits_2_without_traceback(self, tmp_path, name, text, message):
        (tmp_path / name).write_bytes(text.encode("utf-8"))
        config = {"datasets": [{"name": "p", "path": name}]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("ingest", "--config", str(tmp_path / "config.json"))
        assert result.returncode == EXIT_DATA
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["ingest", "run"])
    @pytest.mark.parametrize(
        "name, data",
        [
            ("p.csv", b"loc,bug\n1,0\n2,1\ncaf\xe9,0\n"),
            ("p.arff", b"@relation caf\xe9\n@attribute loc numeric\n@attribute bug {0,1}\n@data\n"),
        ],
        ids=["csv", "arff"],
    )
    def test_data_file_not_utf8_exits_2_naming_the_file(
        self, tmp_path, capsys, command, name, data
    ):
        (tmp_path / name).write_bytes(data)
        config = {"datasets": [{"name": "p", "path": name}]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        args = [command, "--config", str(tmp_path / "config.json")]
        if command == "run":
            args += ["--out", str(tmp_path / "report")]
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: dataset 'p': {tmp_path / name}: 'utf-8' codec")

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("p.csv", "loc,LOC,cbo,bug\n1,2,3,0\n4,5,6,1\n", "p.csv: duplicate feature names ['loc']"),
            ("p.csv", "bug,loc,cbo,BUG\n0,1,2,1\n1,3,4,0\n", "p.csv: duplicate label column 'bug'"),
            (
                "p.arff",
                "@relation r\n@attribute loc numeric\n@attribute LOC numeric\n"
                "@attribute cbo numeric\n@attribute bug {0,1}\n@data\n1,2,3,0\n4,5,6,1\n",
                "p.arff: duplicate feature names ['loc']",
            ),
            (
                "p.arff",
                "@relation r\n@attribute bug {0,1}\n@attribute loc numeric\n"
                "@attribute cbo numeric\n@attribute BUG {0,1}\n@data\n0,1,2,1\n1,3,4,0\n",
                "p.arff: duplicate label column 'bug'",
            ),
        ],
    )
    def test_repeated_selected_column_exits_2_without_traceback(self, tmp_path, name, text, message):
        (tmp_path / name).write_text(text, encoding="utf-8")
        config = {"datasets": [{"name": "p", "path": name, "feature_names": ["loc", "cbo"]}]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        result = run_cli("ingest", "--config", str(tmp_path / "config.json"))
        assert result.returncode == EXIT_DATA
        assert message in result.stderr
        assert "Traceback" not in result.stderr


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

    @pytest.mark.parametrize("column", ["method", "target", "f_measure"])
    def test_results_missing_column_exits_2(self, tmp_path, column):
        header = ["method", "target", "source", "f_measure"]
        rows = [["cpdp_pure", "t", "s", "0.5"], ["ifs_our", "t", "s", "0.4"]]
        keep = [i for i, name in enumerate(header) if name != column]
        lines = [",".join(row[i] for i in keep) for row in [header, *rows]]
        (tmp_path / "best_per_target.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = run_cli("compare", "--results", str(tmp_path),
                         "--method-a", "cpdp_pure", "--method-b", "ifs_our")
        assert result.returncode == EXIT_DATA
        assert f"column {column!r} not found" in result.stderr
        assert "Traceback" not in result.stderr

    def test_results_duplicate_row_exits_2(self, tmp_path):
        lines = [
            "method,target,source,f_measure",
            "cpdp_pure,t1,s,0.5",
            "ifs_our,t1,s,0.4",
            "cpdp_pure,t2,s,0.5",
            "cpdp_pure,t2,s2,0.9",
            "ifs_our,t2,s,0.4",
        ]
        path = tmp_path / "best_per_target.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = run_cli("compare", "--results", str(tmp_path),
                         "--method-a", "cpdp_pure", "--method-b", "ifs_our")
        assert result.returncode == EXIT_DATA
        assert str(path) in result.stderr
        assert "two rows for method 'cpdp_pure' and target 't2'" in result.stderr
        assert "Traceback" not in result.stderr

    def test_degenerate_pairing_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("a,b\n0.5,0.5\n0.6,0.6\n", encoding="utf-8")
        code = main(["compare", "--csv", str(path)])
        assert code == EXIT_DATA
        assert "degenerate pairing" in capsys.readouterr().err

    def test_exact_on_more_than_200_pairs_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("a,b\n" + "".join(f"{i},0\n" for i in range(1, 202)), encoding="utf-8")
        code = main(["compare", "--csv", str(path), "--method", "exact"])
        assert code == EXIT_DATA
        assert "use method 'asymptotic'" in capsys.readouterr().err

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

    def test_repeated_column_name_exits_2(self, tmp_path, capsys):
        # csv.DictReader would read the last of the repeated columns.
        path = tmp_path / "scores.csv"
        path.write_text("a,b,b\n0.5,0.4,0.1\n0.6,0.3,0.2\n0.7,0.6,0.3\n", encoding="utf-8")
        assert main(["compare", "--csv", str(path), "--x-col", "a", "--y-col", "b"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {path}: duplicate column names ['b']" in err

    def test_results_repeated_column_name_exits_2(self, tmp_path, capsys):
        path = tmp_path / "best_per_target.csv"
        path.write_text(
            "method,target,source,f_measure,f_measure\n"
            "cpdp_pure,t,s,0.5,0.1\nifs_our,t,s,0.4,0.2\n",
            encoding="utf-8",
        )
        argv = ["compare", "--results", str(tmp_path), "--method-a", "cpdp_pure",
                "--method-b", "ifs_our"]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {path}: duplicate column names ['f_measure']" in err

    def test_results_extra_cell_exits_2(self, tmp_path, capsys):
        path = tmp_path / "best_per_target.csv"
        path.write_text(
            "method,target,source,f_measure\ncpdp_pure,t,s,0.5\nifs_our,t,s,0.4,0.9\n",
            encoding="utf-8",
        )
        argv = ["compare", "--results", str(tmp_path), "--method-a", "cpdp_pure",
                "--method-b", "ifs_our"]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {path}: data row 2 has 5 cells, expected 4" in err

    def test_csv_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"a,b\n0.5,0.4\n0.6,0.3\n0.7,0.2\n# caf\xe9\n")
        assert main(["compare", "--csv", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {path}: 'utf-8' codec")

    def test_results_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "best_per_target.csv"
        path.write_bytes(b"method,target,source,f_measure\ncpdp_pure,caf\xe9,s,0.5\n")
        argv = ["compare", "--results", str(tmp_path), "--method-a", "cpdp_pure",
                "--method-b", "ifs_our"]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {path}: 'utf-8' codec")


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

    def test_short_row_exits_2(self, tmp_path):
        path = tmp_path / "vals.csv"
        path.write_text("method,f_measure\nx,1.0\ny\n", encoding="utf-8")
        result = run_cli("box", "--csv", str(path))
        assert result.returncode == EXIT_DATA
        assert "missing value in column 'f_measure' at data row 2" in result.stderr
        assert "Traceback" not in result.stderr

    def test_both_sources_rejected(self, tmp_path, capsys):
        assert main(["box", "--csv", "x.csv", "--results", "y"]) == EXIT_CONFIG

    def test_extra_cell_exits_2(self, tmp_path, capsys):
        # csv.DictReader would drop the cells beyond the header.
        path = tmp_path / "vals.csv"
        path.write_text("method,f_measure\nx,0.5\nx,0.5,0.9\n", encoding="utf-8")
        assert main(["box", "--csv", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {path}: data row 2 has 3 cells, expected 2" in err

    def test_csv_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "vals.csv"
        path.write_bytes(b"method,f_measure\ncaf\xe9,0.5\n")
        assert main(["box", "--csv", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {path}: 'utf-8' codec")

    def test_results_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "boxplot_summary.csv"
        path.write_bytes(b"group,n\ncaf\xe9,1\n")
        assert main(["box", "--results", str(tmp_path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {path}: 'utf-8' codec")

    def test_signed_zero_cells_print_as_before(self, tmp_path, capsys):
        # Which zero lands at a quartile's index is up to the partition, and
        # the sign shows in the output.
        path = tmp_path / "zeros.csv"
        path.write_text(
            "group,value\na,-0\na,0\na,-0.0\na,0\nb,0\nb,-0\nb,1\nb,-0.0\nb,0.0\n"
            "c,-0\nd,0\nd,-0\n",
            encoding="utf-8",
        )
        argv = ["box", "--csv", str(path), "--group-col", "group", "--value-col", "value"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == (
            "group,n,minimum,first_quartile,median,third_quartile,maximum,lower_whisker,"
            "upper_whisker,outliers\n"
            "a,4,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,\n"
            "b,5,0.000000,0.000000,0.000000,0.000000,1.000000,0.000000,0.000000,1.000000\n"
            "c,1,-0.000000,-0.000000,-0.000000,-0.000000,-0.000000,-0.000000,-0.000000,\n"
            "d,2,-0.000000,0.000000,0.000000,0.000000,-0.000000,-0.000000,-0.000000,\n"
        )


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

    # Run after a command: it exits 0 and loaded neither scipy, numpy.ma nor
    # hashlib's OpenSSL backend.
    UNLOADED_CHECK = (
        "import sys, cpdp_ifs.cli\n"
        "status = cpdp_ifs.cli.main(sys.argv[1:])\n"
        "unwanted = ('scipy', 'numpy.ma', 'hashlib', '_hashlib')\n"
        "loaded = [m for m in sys.modules if m in unwanted or m.startswith('scipy.')]\n"
        "assert status == 0 and not loaded, (status, sorted(loaded))\n"
    )

    def test_run_loads_no_scipy_module(self, corpus_dir, tmp_path):
        argv = ["run", "--config", str(corpus_dir / "config.json"), "--out", str(tmp_path)]
        result = subprocess.run(
            [sys.executable, "-c", self.UNLOADED_CHECK, *argv], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "manifest.json").exists()

    def test_ingest_loads_no_openssl(self, corpus_dir):
        argv = ["ingest", "--config", str(corpus_dir / "config.json")]
        result = subprocess.run(
            [sys.executable, "-c", self.UNLOADED_CHECK, *argv], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout

    def test_box_loads_no_numpy_ma(self, tmp_path):
        path = tmp_path / "vals.csv"
        path.write_text("method,f_measure\nx,0.5\nx,0.25\nx,1\ny,0\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-c", self.UNLOADED_CHECK, "box", "--csv", str(path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("group,n,minimum")

    # Run after any command but run: it exits 0 and loaded no thread pool,
    # so neither concurrent.futures nor the logging it imports.
    NO_POOL_CHECK = (
        "import sys, cpdp_ifs.cli\n"
        "status = cpdp_ifs.cli.main(sys.argv[1:])\n"
        "loaded = [m for m in ('concurrent.futures', 'logging') if m in sys.modules]\n"
        "assert status == 0 and not loaded, (status, loaded)\n"
    )

    @pytest.mark.parametrize("command", ["ingest", "dpr", "compare", "box"])
    def test_only_run_loads_the_thread_pool(self, corpus_dir, tmp_path, command):
        config = ["--config", str(corpus_dir / "config.json")]
        scores = tmp_path / "scores.csv"
        scores.write_text("method,f_measure\nx,0.5\nx,0.25\ny,0.75\n", encoding="utf-8")
        argv = {
            "ingest": ["ingest", *config],
            "dpr": ["dpr", *config, "--source", "fam_a_p0", "--target", "fam_b_p1"],
            "compare": ["compare", "--csv", str(corpus_dir / "fam_a_p0.csv"),
                        "--x-col", "loc", "--y-col", "cbo"],
            "box": ["box", "--csv", str(scores)],
        }[command]
        result = subprocess.run(
            [sys.executable, "-c", self.NO_POOL_CHECK, *argv], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout

    def test_every_dataclass_has_its_own_docstring(self):
        # Without one, dataclass builds a docstring from inspect.signature at import.
        import importlib
        import pkgutil

        import cpdp_ifs

        found = []
        for info in pkgutil.iter_modules(cpdp_ifs.__path__):
            module = importlib.import_module(f"cpdp_ifs.{info.name}")
            for name, obj in vars(module).items():
                if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                        and obj.__module__ == module.__name__):
                    found.append(name)
                    assert obj.__doc__ and not obj.__doc__.startswith(f"{name}("), name
        assert len(found) == 21

    def test_every_private_helper_is_used_in_src(self):
        # A private function or class that only tests reach is dead code.
        import ast

        src = Path(__file__).resolve().parents[1] / "src" / "cpdp_ifs"
        trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted(src.glob("*.py"))}
        used = {
            node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        unused = [
            f"{file}: {node.name}" for file, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and node.name not in used
        ]
        assert not unused, f"private helpers nothing in src/ uses: {unused}"

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
    @staticmethod
    def run_script(tmp_path, projects):
        repo = Path(__file__).resolve().parents[1]
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
        return subprocess.run(
            [sys.executable, str(repo / "scripts" / "indicator_weights.py"),
             "--config", str(tmp_path / "config.json")],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_one_row_project_is_skipped_not_a_traceback(self, tmp_path):
        projects = [p for p in corpus_projects() if p.name in ("fam_a_p0", "fam_b_p0")]
        one = corpus_projects()[-1]
        projects.append(
            dataclasses.replace(one, name="tiny", matrix=one.matrix[:1], labels=one.labels[:1])
        )
        result = self.run_script(tmp_path, projects)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        skipped = sorted(line for line in result.stderr.splitlines() if line.startswith("skipped"))
        assert skipped == [
            f"skipped {pair}: insufficient rows for normalization (need at least 2)"
            for pair in ("fam_a_p0->tiny", "fam_b_p0->tiny", "tiny->fam_a_p0", "tiny->fam_b_p0")
        ]
        assert result.stdout.splitlines()[0] == "pairs scored: 2"

    def test_one_scored_pair_leaves_the_sd_empty(self, tmp_path):
        source, target = (p for p in corpus_projects() if p.name in ("fam_a_p0", "fam_b_p0"))
        single_class = dataclasses.replace(target, labels=np.zeros_like(target.labels))
        result = self.run_script(tmp_path, [source, single_class])
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines() == [
            "skipped fam_b_p0->fam_a_p0: "
            "degenerate training set: all labels belong to one class"
        ]
        lines = result.stdout.splitlines()
        assert lines[0] == "pairs scored: 1"
        assert len(lines) == 2 + len(INDICATOR_NAMES)
        for line in lines[2:]:
            assert len(line.split()) == 2, line
            assert "nan" not in line
