import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdp_ifs.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_PARTIAL, main

from synth import corpus_projects, write_corpus, write_project_csv

# Every command runs in this process, through main, so a numpy RuntimeWarning
# that a child would have printed to stderr fails the test instead, and so
# does an exception that escapes main.
pytestmark = pytest.mark.filterwarnings("error")


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


# Run as ``python -c MODULE_RECORD RECORD_PATH COMMAND ARGS...``: it runs the
# command through main and writes its status and the modules loaded after
# ``import cpdp_ifs.cli`` and after main to RECORD_PATH, so that stdout stays
# the command's own.
MODULE_RECORD = (
    "import sys, cpdp_ifs.cli\n"
    "loaded = {'after_import': sorted(sys.modules)}\n"
    "status = cpdp_ifs.cli.main(sys.argv[2:])\n"
    "loaded['after_main'] = sorted(sys.modules)\n"
    "import json\n"
    "with open(sys.argv[1], 'w', encoding='utf-8') as record:\n"
    "    json.dump({'status': status, **loaded}, record)\n"
)


@pytest.fixture(scope="module")
def command_child(corpus_dir, tmp_path_factory):
    """Each command run once in a ``MODULE_RECORD`` child of its own, by name,
    for the tests that check which modules a command loads; a second request
    reuses the record, with the child's argv and stdout added."""
    tmp = tmp_path_factory.mktemp("command_children")
    config = ["--config", str(corpus_dir / "config.json")]
    scores = tmp / "vals.csv"
    scores.write_text("method,f_measure\nx,0.5\nx,0.25\nx,1\ny,0\n", encoding="utf-8")
    argvs = {
        "run": ["run", *config, "--out", str(tmp / "report")],
        "ingest": ["ingest", *config],
        "dpr": ["dpr", *config, "--source", "fam_a_p0", "--target", "fam_b_p1"],
        "compare": ["compare", "--csv", str(corpus_dir / "fam_a_p0.csv"),
                    "--x-col", "loc", "--y-col", "cbo"],
        "box": ["box", "--csv", str(scores)],
    }
    records = {}

    def child(command):
        if command not in records:
            path = tmp / f"{command}.json"
            result = subprocess.run(
                [sys.executable, "-c", MODULE_RECORD, str(path), *argvs[command]],
                capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            records[command] = {**json.loads(path.read_text(encoding="utf-8")),
                                "argv": argvs[command], "stdout": result.stdout}
        return records[command]

    return child


class TestIngest:
    def test_summarizes_every_dataset(self, corpus_dir, capsys):
        code = main(["ingest", "--config", str(corpus_dir / "config.json")])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("fam_a_p0: family=fam_a instances=110")
        assert "defect_ratio=" in lines[0]

    def test_config_with_a_bom_is_read(self, corpus_dir, tmp_path, capsys):
        config = json.loads((corpus_dir / "config.json").read_text(encoding="utf-8"))
        for dataset in config["datasets"]:
            dataset["path"] = str(corpus_dir / dataset["path"])
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text(json.dumps(config), encoding="utf-8")
        bom.write_text(json.dumps(config), encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["ingest", "--config", str(plain)]) == EXIT_OK
        want = capsys.readouterr()
        assert main(["ingest", "--config", str(bom)]) == EXIT_OK
        assert capsys.readouterr() == want

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
            (
                "p.csv", "a,b,bug\r\n1,2,0\r\n3,inf,1\r\n",
                "data row 2: non-finite value 'inf' in column 'b'",
            ),
            ("p.csv", "\ufeffa,bug\n1,0\n2,1,\n", "data row 2: 3 cells, expected 2"),
            ("p.csv", "bug\n0\n1\n", "a project needs at least one instance and one feature"),
            (
                "p.arff",
                "@relation r\n@attribute a numeric\n@attribute bug {0,1}\n@data\n1,0\n{0 1}\n",
                "data row 2: sparse ARFF data is not supported",
            ),
            (
                "p.arff",
                "@relation r\n@attribute 'a numeric\n@attribute bug {0,1}\n@data\n1,0\n",
                "malformed attribute declaration \"@attribute 'a numeric\"",
            ),
            (
                "p.arff",
                "@relation r\n@attribute a string\n@attribute bug {0,1}\n@data\nx,0\n",
                "unsupported attribute type 'string' (only numeric and nominal)",
            ),
            (
                "p.arff",
                "@relation r\n@attribute a numeric\noops\n@attribute bug {0,1}\n@data\n1,0\n",
                "unexpected line before @data: 'oops'",
            ),
            ("p.arff", "@relation r\n@data\n1,0\n", "no @attribute declarations"),
            (
                "p.arff",
                "@relation r\n@attribute a numeric\n@attribute bug {0,1}\n@data\n",
                "empty file (no data rows)",
            ),
        ],
    )
    def test_malformed_dataset_exits_2_without_traceback(
        self, tmp_path, capsys, name, text, message
    ):
        (tmp_path / name).write_bytes(text.encode("utf-8"))
        config = {"datasets": [{"name": "p", "path": name}]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["ingest", "--config", str(tmp_path / "config.json")]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: dataset 'p': {tmp_path / name}: {message}\n"

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
            ("p.csv", "loc,bug\n1,0\n2,1\n", "p.csv: feature column 'cbo' not found"),
        ],
    )
    def test_repeated_selected_column_exits_2_without_traceback(
        self, tmp_path, capsys, name, text, message
    ):
        (tmp_path / name).write_text(text, encoding="utf-8")
        config = {"datasets": [{"name": "p", "path": name, "feature_names": ["loc", "cbo"]}]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["ingest", "--config", str(tmp_path / "config.json")]) == EXIT_DATA
        # ``message`` starts with the file's name, which follows its directory.
        assert capsys.readouterr().err == f"data error: dataset 'p': {tmp_path}{os.sep}{message}\n"


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

    def test_target_statistics_past_the_float_range_fail_the_pair(self, tmp_path, capsys):
        # The mean of b's loc overflows; unchecked, it would give NaN
        # probabilities and so an all-clean confusion matrix for a->b.
        (tmp_path / "a.csv").write_text("loc,cbo,bug\n1,2,0\n2,3,1\n3,1,0\n4,5,1\n", "utf-8")
        (tmp_path / "b.csv").write_text(
            "loc,cbo,bug\n1e308,2,0\n1e308,3,1\n6,1,0\n7,5,1\n", "utf-8"
        )
        config = {
            "datasets": [{"name": "a", "path": "a.csv", "family": "f"},
                         {"name": "b", "path": "b.csv", "family": "g"}],
            "methods": ["ifs_min"],
            "output_dir": str(tmp_path / "rep"),
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(tmp_path / "config.json")]) == EXIT_PARTIAL
        assert sorted(capsys.readouterr().err.splitlines()) == [
            f"failed: ifs_min {pair}: column statistics overflow the float range"
            for pair in ("a->b", "b->a")
        ]
        results = (tmp_path / "rep" / "results.csv").read_text(encoding="utf-8")
        assert results.splitlines()[1:] == []

    def test_a_program_fault_in_a_pair_is_raised_not_a_failure_row(
        self, corpus_dir, tmp_path, monkeypatch
    ):
        from cpdp_ifs import predictors

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast")

        monkeypatch.setattr(predictors, "predict_proba", broken)
        argv = ["run", "--config", str(corpus_dir / "config.json"), "--out", str(tmp_path)]
        with pytest.raises(ValueError, match="operands could not be broadcast"):
            main(argv)

    def test_run_accepts_only_config_and_out(self, corpus_dir, capsys):
        for flag in (["--workers", "1"], ["--log-filter"]):
            code = main(["run", "--config", str(corpus_dir / "config.json"), *flag])
            assert code == EXIT_CONFIG
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_wrongly_typed_config_exits_1_without_traceback(self, tmp_path, capsys):
        config = {"datasets": [{"name": "a", "path": "a.csv", "alias_map": 5}]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(tmp_path / "config.json")]) == EXIT_CONFIG
        assert "config error: datasets[0].alias_map" in capsys.readouterr().err

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        (tmp_path / "config.json").write_text('{"surprise": 1}', encoding="utf-8")
        code = main(["run", "--config", str(tmp_path / "config.json")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("field, prefix", [
        ("path", "invalid datasets[0] settings: path"),
        ("output_dir", "invalid config settings: output_dir"),
        ("--out", "invalid --out: output_dir"),
    ], ids=["path", "output_dir", "--out"])
    def test_nul_in_a_configured_path_exits_1(self, tmp_path, capsys, field, prefix):
        # The operating system takes no path with a NUL in it.
        config = {"datasets": [{"name": "p", "path": "p.csv"}], "output_dir": "report"}
        argv = ["run", "--config", str(tmp_path / "config.json")]
        if field == "--out":
            argv += ["--out", "r\0x"]
        else:
            (config["datasets"][0] if field == "path" else config)[field] = "p\0x"
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {prefix} must not contain a NUL character\n"
        )


class TestRunFaultInjection:
    """One fault in a valid 3-project corpus stops ``run`` before any pair
    trains: exit 1 or 2, one stderr line naming where the fault is, no report."""

    HEADER = ("wmc", "loc", "cbo", "bug")
    ROWS = 6

    @classmethod
    def tables(cls) -> dict[str, list[list[str]]]:
        return {
            f"p{k}": [list(cls.HEADER)] + [
                [str(1 + i + k), str(10 * (i + 1)), str((i * 7 + k) % 5), str(int(i % 3 == 0))]
                for i in range(cls.ROWS)
            ]
            for k in range(3)
        }

    @classmethod
    def run_with(cls, tmp: Path, fault=None) -> tuple[int, str, str, str]:
        """``run`` over the corpus with ``fault`` applied: its exit code,
        stdout, stderr and the text its one stderr line must contain."""
        tables = cls.tables()
        config = {"datasets": [{"name": name, "path": f"{name}.csv"} for name in tables],
                  "methods": ["cpdp_pure"], "learner": {}, "preprocessing": {}}
        out, where, bad_byte = tmp / "report", "", None
        kind, *args = fault or (None,)
        if kind in ("cell", "short", "label", "repeat", "byte"):
            where = f"{tmp / args[0]}.csv: "
        if kind == "cell":
            project, row, column, value = args
            tables[project][row][column] = value
            where += f"data row {row}: "
        elif kind == "short":
            project, row = args
            tables[project][row].pop()
            where += f"data row {row}: "
        elif kind == "label":
            tables[args[0]][0][-1] = "defects"
        elif kind == "repeat":
            project, copied, to = args
            tables[project][0][to] = tables[project][0][copied]
        elif kind == "byte":
            bad_byte = args
        elif kind in ("unknown_key", "typed_key"):
            path, value = args
            parent, _, key = path.rpartition(".")
            holders = {"": config, "datasets[1]": config["datasets"][1]}
            holders.get(parent, config.get(parent))[key] = value
            where = (f"{parent or 'config'} has unknown keys: [{key!r}]" if kind == "unknown_key"
                     else f"{path} must be")
        elif kind == "out_through_file":
            (tmp / "afile").write_text("keep\n", encoding="utf-8")
            out, where = tmp / "afile" / "report", f"{str(tmp / 'afile')!r}"
        for name, rows in tables.items():
            lines = [",".join(row).encode("utf-8") for row in rows]
            if bad_byte and bad_byte[0] == name:
                lines[bad_byte[1]] = b"\xff" + lines[bad_byte[1]]
            (tmp / f"{name}.csv").write_bytes(b"\n".join(lines) + b"\n")
        (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", "--config", str(tmp / "config.json"), "--out", str(out)])
        return code, stdout.getvalue(), stderr.getvalue(), where

    projects = st.sampled_from(["p0", "p1", "p2"])
    rows = st.integers(1, ROWS)
    faults = st.one_of(
        st.tuples(st.just("cell"), projects, rows, st.integers(0, len(HEADER) - 1),
                  st.sampled_from(["nan", "1e999", "2#x", ""])),
        st.tuples(st.just("short"), projects, rows),
        st.tuples(st.just("byte"), projects, st.integers(0, ROWS)),
        st.tuples(st.just("label"), projects),
        st.tuples(st.just("repeat"), projects, *[st.integers(0, len(HEADER) - 1)] * 2).filter(
            lambda fault: fault[2] != fault[3]),
        st.tuples(st.just("unknown_key"),
                  st.sampled_from(["seed", "datasets[1].colour", "learner.steps"]), st.just(1)),
        st.tuples(st.just("typed_key"), st.sampled_from([
            ("workers", "2"), ("workers", True), ("datasets[1].family", 3),
            ("learner.ridge", "x"), ("preprocessing.log_filter", 1), ("methods", "cpdp_pure"),
        ])).map(lambda fault: (fault[0], *fault[1])),
        st.just(("out_through_file",)),
    )

    def test_the_unfaulted_corpus_runs(self, tmp_path):
        code, out, err, _ = self.run_with(tmp_path)
        assert (code, err) == (EXIT_OK, "")
        assert (tmp_path / "report" / "results.csv").exists()

    @settings(max_examples=40)
    @given(fault=faults)
    def test_one_fault_exits_with_one_line_and_no_report(self, fault):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            code, out, err, where = self.run_with(tmp, fault)
            data_fault = fault[0] in ("cell", "short", "byte", "label", "repeat")
            assert code == (EXIT_DATA if data_fault else EXIT_CONFIG), (code, err)
            assert out == "" and err.endswith("\n") and err.count("\n") == 1, err
            assert where in err and "Traceback" not in err, (where, err)
            assert {p.name for p in tmp.iterdir()} <= {
                "p0.csv", "p1.csv", "p2.csv", "config.json", "afile"}


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

    def test_difference_past_the_float_range_exits_2_naming_the_row(self, tmp_path, capsys):
        # Each overflowing difference would become inf and tie with the others.
        path = tmp_path / "scores.csv"
        path.write_text(
            "a,b\n1e308,-1e308\n-1e308,1e308\n0.5,0.25\n0.1,0.3\n0.7,0.2\n", encoding="utf-8"
        )
        assert main(["compare", "--csv", str(path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == f"data error: {path}: data row 1: 'a' - 'b' overflows the float range\n"
        assert captured.out == ""

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
    def test_results_missing_column_exits_2(self, tmp_path, capsys, column):
        header = ["method", "target", "source", "f_measure"]
        rows = [["cpdp_pure", "t", "s", "0.5"], ["ifs_our", "t", "s", "0.4"]]
        keep = [i for i, name in enumerate(header) if name != column]
        lines = [",".join(row[i] for i in keep) for row in [header, *rows]]
        (tmp_path / "best_per_target.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["compare", "--results", str(tmp_path), "--method-a", "cpdp_pure",
                "--method-b", "ifs_our"]
        assert main(argv) == EXIT_DATA
        assert f"column {column!r} not found" in capsys.readouterr().err

    def test_results_duplicate_row_exits_2(self, tmp_path, capsys):
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
        argv = ["compare", "--results", str(tmp_path), "--method-a", "cpdp_pure",
                "--method-b", "ifs_our"]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err
        assert "two rows for method 'cpdp_pure' and target 't2'" in err

    def test_results_difference_past_the_float_range_exits_2_naming_the_target(
        self, tmp_path, capsys
    ):
        path = tmp_path / "best_per_target.csv"
        path.write_text(
            "method,target,source,precision,recall,f_measure\n"
            "a,t0,s,0,0,0.5\nb,t0,s,0,0,0.25\na,t1,s,0,0,1e308\nb,t1,s,0,0,-1e308\n",
            encoding="utf-8",
        )
        argv = ["compare", "--results", str(tmp_path), "--method-a", "a", "--method-b", "b"]
        assert main(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == (
            f"data error: {path}: target 't1': 'a' - 'b' overflows the float range\n"
        )
        assert captured.out == ""

    def test_results_without_common_targets_exits_2(self, tmp_path, capsys):
        path = tmp_path / "best_per_target.csv"
        path.write_text("method,target,f_measure\na,t0,0.5\nb,t1,0.25\n", encoding="utf-8")
        argv = ["compare", "--results", str(tmp_path), "--method-a", "a", "--method-b", "b"]
        assert main(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == f"data error: {path}: no common targets for the two methods\n"
        assert captured.out == ""

    def test_a_program_fault_in_compare_paired_is_raised_not_exit_2(self, tmp_path, monkeypatch):
        import cpdp_ifs.stats

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast")

        monkeypatch.setattr(cpdp_ifs.stats, "compare_paired", broken)
        path = tmp_path / "scores.csv"
        path.write_text("a,b\n0.5,0.4\n0.6,0.3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="operands could not be broadcast"):
            main(["compare", "--csv", str(path)])

    def test_results_same_method_twice_exits_1(self, report_dir, capsys):
        argv = ["compare", "--results", str(report_dir), "--method-a", "ifs_our",
                "--method-b", "ifs_our"]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: --method-a and --method-b must differ, not 'ifs_our' twice\n"
        )

    @pytest.mark.parametrize("columns", [["--x-col", "a", "--y-col", "a"], ["--x-col", "b"]])
    def test_csv_same_column_twice_exits_1(self, tmp_path, capsys, columns):
        # With --x-col b alone, the default --y-col is the second column, b too.
        path = tmp_path / "scores.csv"
        path.write_text("a,b\n0.5,0.25\n0.6,0.5\n", encoding="utf-8")
        assert main(["compare", "--csv", str(path), *columns]) == EXIT_CONFIG
        twice = columns[1]
        assert capsys.readouterr().err == (
            f"config error: --x-col and --y-col must name two columns, not {twice!r} twice\n"
        )

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
        # A lookup by name would read only one of the repeated columns.
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
        assert f"data error: {path}: data row 2: 5 cells, expected 4" in err

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

    def test_same_source_and_target_exits_1_before_loading(self, tmp_path, capsys):
        # The data files do not exist, so loading either would exit 2.
        config = {"datasets": [{"name": "s", "path": "s.csv"}, {"name": "t", "path": "t.csv"}]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        code = main(["dpr", "--config", str(tmp_path / "config.json"), "--source", "s",
                     "--target", "s"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: source and target must be distinct data sets, not 's' twice\n"
        )

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

    def test_short_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "vals.csv"
        path.write_text("method,f_measure\nx,1.0\ny\n", encoding="utf-8")
        assert main(["box", "--csv", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{path}: data row 2: missing value in column 'f_measure'" in err

    def test_both_sources_rejected(self, tmp_path, capsys):
        assert main(["box", "--csv", "x.csv", "--results", "y"]) == EXIT_CONFIG

    def test_span_past_the_float_range_exits_2_naming_the_group(self, tmp_path, capsys):
        path = tmp_path / "vals.csv"
        path.write_text("method,f_measure\nx,0.5\ny,1e308\ny,-1e308\n", encoding="utf-8")
        assert main(["box", "--csv", str(path)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err == "data error: group 'y' spans more than the float range\n"
        assert captured.out == ""

    def test_extra_cell_exits_2(self, tmp_path, capsys):
        # A lookup by column would ignore the cells beyond the header.
        path = tmp_path / "vals.csv"
        path.write_text("method,f_measure\nx,0.5\nx,0.5,0.9\n", encoding="utf-8")
        assert main(["box", "--csv", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {path}: data row 2: 3 cells, expected 2" in err

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

    def test_signed_zero_cells_print_as_zero(self, tmp_path, capsys):
        # A -0 cell is read as -0.0; every zero of a summary, whichever
        # lands at a quartile's index or at an end, prints unsigned.
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
            "c,1,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,\n"
            "d,2,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,0.000000,\n"
        )


class TestScoreTables:
    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e999"])
    @pytest.mark.parametrize("source", ["compare --csv", "box --csv", "compare --results"])
    def test_non_finite_cell_exits_2_naming_file_column_and_row(
        self, tmp_path, capsys, source, token
    ):
        if source == "compare --results":
            path, column = tmp_path / "best_per_target.csv", "f_measure"
            path.write_text(
                f"method,target,source,f_measure\ncpdp_pure,t,s,0.5\nifs_our,t,s,{token}\n",
                encoding="utf-8",
            )
            argv = ["compare", "--results", str(tmp_path), "--method-a", "cpdp_pure",
                    "--method-b", "ifs_our"]
        else:
            path, column = tmp_path / "scores.csv", "b"
            path.write_text(f"a,b\n0.5,0.4\n0.6,{token}\n0.7,0.2\n", encoding="utf-8")
            argv = (["compare", "--csv", str(path)] if source == "compare --csv"
                    else ["box", "--csv", str(path), "--group-col", "a", "--value-col", "b"])
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {path}: data row 2: non-finite value {token!r} in column {column!r}\n"
        )

    @pytest.mark.parametrize("command", ["ingest", "compare --csv"])
    def test_cell_past_the_csv_field_limit_exits_2(self, tmp_path, capsys, command):
        # The csv module refuses a field of more than 131072 characters.
        path = tmp_path / "p.csv"
        path.write_text(f"loc,bug\n{'1' * 200_000},0\n2,1\n", encoding="utf-8")
        if command == "ingest":
            config = {"datasets": [{"name": "p", "path": path.name}]}
            (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv, where = ["ingest", "--config", str(tmp_path / "config.json")], "dataset 'p': "
        else:
            argv, where = ["compare", "--csv", str(path)], ""
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {where}{path}: field larger than field limit (131072)\n"
        )

    def test_compare_reads_a_data_file_as_ingest_does(self, tmp_path, capsys):
        # A BOM, spaces around header cells and a whitespace-only row.
        (tmp_path / "p.csv").write_text(
            "\ufeffloc , cbo,bug\n10,3,0\n20,1,1\n  \n30,7,0\n40,2,1\n", encoding="utf-8"
        )
        config = {"datasets": [{"name": "p", "path": "p.csv", "family": "f"}]}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["ingest", "--config", str(tmp_path / "config.json")]) == EXIT_OK
        assert "instances=4" in capsys.readouterr().out
        argv = ["compare", "--csv", str(tmp_path / "p.csv"), "--x-col", "loc", "--y-col", "cbo"]
        assert main(argv) == EXIT_OK
        assert "n_pairs=4" in capsys.readouterr().out


class TestUsage:
    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["ingest"]) == EXIT_CONFIG

    def test_import_leaves_scipy_stats_unloaded(self, command_child):
        for command in ("run", "ingest", "dpr", "compare", "box"):
            assert "scipy.stats" not in command_child(command)["after_import"], command

    # A command that exits 0 and loaded neither scipy, numpy.ma nor hashlib's
    # OpenSSL backend.
    @staticmethod
    def assert_unwanted_unloaded(record):
        unwanted = {"scipy", "numpy.ma", "hashlib", "_hashlib"}
        loaded = sorted(m for m in record["after_main"]
                        if m in unwanted or m.startswith("scipy."))
        assert record["status"] == EXIT_OK and not loaded, (record["status"], loaded)

    def test_run_loads_no_scipy_module(self, command_child):
        record = command_child("run")
        self.assert_unwanted_unloaded(record)
        out = record["argv"][record["argv"].index("--out") + 1]
        assert (Path(out) / "manifest.json").exists()

    def test_ingest_loads_no_openssl(self, command_child):
        record = command_child("ingest")
        self.assert_unwanted_unloaded(record)
        assert record["stdout"]

    def test_box_loads_no_numpy_ma(self, command_child):
        record = command_child("box")
        self.assert_unwanted_unloaded(record)
        assert record["stdout"].startswith("group,n,minimum")

    @pytest.mark.parametrize("command", ["ingest", "dpr", "compare", "box"])
    def test_only_run_loads_the_thread_pool(self, command_child, command):
        # No thread pool, so neither concurrent.futures nor the logging it imports.
        record = command_child(command)
        loaded = [m for m in ("concurrent.futures", "logging") if m in record["after_main"]]
        assert record["status"] == EXIT_OK and not loaded, (record["status"], loaded)
        assert record["stdout"]

    # Importing the CLI loads no numpy, and after the command exits 0 neither
    # numpy nor any package module beyond cli, config and corpus is loaded.
    @staticmethod
    def assert_no_numpy(record):
        assert "numpy" not in record["after_import"], "import cpdp_ifs.cli loaded numpy"
        allowed = {"cpdp_ifs", "cpdp_ifs.cli", "cpdp_ifs.config", "cpdp_ifs.corpus"}
        loaded = sorted(m for m in record["after_main"]
                        if m.split(".")[0] in ("numpy", "cpdp_ifs") and m not in allowed)
        assert record["status"] == EXIT_OK and not loaded, (record["status"], loaded)

    def test_ingest_loads_no_numpy(self, command_child):
        record = command_child("ingest")
        self.assert_no_numpy(record)
        assert len(record["stdout"].splitlines()) == 8

    def test_dpr_loads_no_numpy(self, command_child):
        record = command_child("dpr")
        self.assert_no_numpy(record)
        # The bytes of the route that built both projects with numpy.
        assert record["stdout"] == "dpr=0.945455\nlow_dpr=false (threshold 0.64)\n"

    @staticmethod
    def _records() -> dict[str, dict[str, type]]:
        """Every dataclass and every NamedTuple defined in the package, by name."""
        import importlib
        import pkgutil

        import cpdp_ifs

        found: dict[str, dict[str, type]] = {"dataclass": {}, "namedtuple": {}}
        for info in pkgutil.iter_modules(cpdp_ifs.__path__):
            module = importlib.import_module(f"cpdp_ifs.{info.name}")
            for name, obj in vars(module).items():
                if not isinstance(obj, type) or obj.__module__ != module.__name__:
                    continue
                if dataclasses.is_dataclass(obj):
                    found["dataclass"][name] = obj
                elif issubclass(obj, tuple) and hasattr(obj, "_fields"):
                    found["namedtuple"][name] = obj
        return found

    def test_every_dataclass_has_its_own_docstring(self):
        # Without one, dataclass builds a docstring from inspect.signature at
        # import, and namedtuple one that lists the fields.
        found = self._records()
        for name, obj in {**found["dataclass"], **found["namedtuple"]}.items():
            assert obj.__doc__ and not obj.__doc__.startswith(f"{name}("), name
        assert sorted(found["namedtuple"]) == [
            "BestRow", "BoxplotSummary", "ComparisonResult", "ComparisonRow", "DatasetSummary",
            "DprRow", "FailureRecord", "PairPlan", "ReportBundle", "ResultRow", "TrainingMeta",
            "WilcoxonResult",
        ]

    def test_a_dataclass_checks_its_input_or_is_read_from_the_config(self):
        # A record that only carries fields is a NamedTuple: a dataclass earns
        # its generated methods by a __post_init__ of its own, or because the
        # config reader reads its fields, defaults and hints.
        import typing

        from cpdp_ifs.config import ExperimentConfig

        config_types, pending = set(), [ExperimentConfig]
        while pending:
            hint = pending.pop()
            if dataclasses.is_dataclass(hint) and hint not in config_types:
                config_types.add(hint)
                pending.extend(typing.get_type_hints(hint).values())
            pending.extend(typing.get_args(hint))
        for name, obj in self._records()["dataclass"].items():
            assert "__post_init__" in vars(obj) or obj in config_types, name

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

    def test_only_corpus_reads_csv(self):
        # Every CSV table is read by corpus.read_table, so one file has one reading.
        import ast

        readers = {"reader", "DictReader"}
        src = Path(__file__).resolve().parents[1] / "src" / "cpdp_ifs"
        users = {
            path.name for path in src.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Attribute) and node.attr in readers
                and isinstance(node.value, ast.Name) and node.value.id == "csv")
            or (isinstance(node, ast.ImportFrom) and node.module == "csv"
                and readers & {alias.name for alias in node.names})
        }
        assert users == {"corpus.py"}

    def test_no_module_imports_threading(self):
        # Each method's pairs run on one pool task over a memo of their own, so
        # no state in src/ is shared between threads and nothing takes a lock.
        import ast

        src = Path(__file__).resolve().parents[1] / "src" / "cpdp_ifs"
        users = {
            path.name for path in src.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Import)
                and any(alias.name.split(".")[0] == "threading" for alias in node.names))
            or (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "threading")
        }
        assert users == set()

    def test_no_module_imports_a_name_it_does_not_use(self):
        # Each name has one home: a module imports a name to use it, not to
        # export it. A name read only in an annotation counts as used.
        import ast

        src = Path(__file__).resolve().parents[1] / "src" / "cpdp_ifs"
        unused = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    names = [alias.asname or alias.name for alias in node.names]
                else:
                    continue
                unused.extend(f"{path.name}:{node.lineno} {name}" for name in names
                              if name not in used)
        assert not unused, f"imported names the module never uses: {unused}"

    def test_every_name_is_imported_from_its_home(self):
        # Each name has one home: ``from cpdp_ifs[.M] import N`` binds N from
        # the module whose top level defines it, or N is a submodule.
        import ast

        root = Path(__file__).resolve().parents[1]
        modules = sorted((root / "src" / "cpdp_ifs").glob("*.py"))
        # The names each module's top level defines, by module ("" for the
        # package, which also holds its submodules).
        defined = {"": {path.stem for path in modules}}
        for path in modules:
            names = defined.setdefault("" if path.stem == "__init__" else path.stem, set())
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))

        misplaced = []
        for tree_dir in ("src", "tests", "scripts"):
            for path in sorted((root / tree_dir).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if not (isinstance(node, ast.ImportFrom) and node.level == 0
                            and (node.module or "").split(".")[0] == "cpdp_ifs"):
                        continue
                    module = node.module.partition(".")[2]
                    misplaced.extend(
                        f"{path.relative_to(root)}:{node.lineno} {alias.name}"
                        for alias in node.names if alias.name not in defined[module]
                    )
        assert not misplaced, f"names imported from a module that does not define them: {misplaced}"

    # The functions in src/ whose except clause names ValueError: each reads a
    # cell or a config object, or sets run --out on one, and catches the
    # ValueError of float() or of a config type's own checks. Everywhere else a
    # data fault is caught as DataError, so a ValueError of a program fault is
    # never taken for one.
    VALUE_ERROR_CATCHERS = {
        "binarize_label", "parse_number", "_parse_rows", "_read_object", "_cmd_run",
    }

    def test_only_listed_functions_catch_value_error(self):
        import ast

        def catches(node, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from catches(child, child.name)
                    continue
                if isinstance(child, ast.ExceptHandler) and child.type is not None:
                    types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                    if any(isinstance(t, ast.Name) and t.id == "ValueError" for t in types):
                        yield function, child.lineno
                yield from catches(child, function)

        src = Path(__file__).resolve().parents[1] / "src" / "cpdp_ifs"
        used, unlisted = set(), []
        for path in sorted(src.glob("*.py")):
            for function, line in catches(ast.parse(path.read_text(encoding="utf-8")), ""):
                if function in self.VALUE_ERROR_CATCHERS:
                    used.add(function)
                else:
                    unlisted.append(f"{path.name}:{line} {function or '<module>'}")
        assert not unlisted, f"except ValueError outside VALUE_ERROR_CATCHERS: {unlisted}"
        assert used == self.VALUE_ERROR_CATCHERS

    # Each test that starts a child interpreter, by file and the qualified name
    # of its enclosing class or function, and why the process is the claim.
    CHILD_STARTERS = {
        # Which modules a command loads: one child per command.
        ("test_cli.py", "command_child"),
        # The console script as a shell starts it.
        ("test_cli.py", "TestUsage.test_console_script_help"),
        # An import without the built-in SHA-256 modules.
        ("test_experiment.py", "TestConfigHash.test_hashlib_fallback_gives_pinned_digest"),
        # entrypoint's exit status and gc.freeze(), on a golden run and faults.
        ("test_experiment.py", "TestCliChild"),
        # The benchmark's wrappers patch module globals.
        ("test_experiment.py", "TestBenchLayers"),
    }

    def test_only_listed_tests_start_a_child(self):
        # A child interpreter costs 0.1-0.3 s, so a command's exit code and
        # messages are checked through main; a new child needs a line above.
        import ast

        starters = {"run", "Popen", "call", "check_call", "check_output"}

        def starts(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from starts(child, f"{scope}.{child.name}" if scope else child.name)
                    continue
                if (isinstance(child, ast.ImportFrom) and child.module == "subprocess") or (
                    isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "subprocess" and child.func.attr in starters
                ):
                    yield scope, child.lineno
                yield from starts(child, scope)

        used, unlisted = set(), []
        for path in sorted(Path(__file__).parent.glob("*.py")):
            for scope, line in starts(ast.parse(path.read_text(encoding="utf-8")), ""):
                entry = next((e for e in self.CHILD_STARTERS if e[0] == path.name and (
                    scope == e[1] or scope.startswith(e[1] + "."))), None)
                if entry is None:
                    unlisted.append(f"{path.name}:{line} {scope}")
                else:
                    used.add(entry)
        assert not unlisted, f"child processes outside CHILD_STARTERS: {unlisted}"
        assert used == self.CHILD_STARTERS

    def test_readme_examples_run(self, capsys):
        from cpdp_ifs.config import parse_config

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (config,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        parsed = parse_config(json.loads(config))
        assert [spec.name for spec in parsed.datasets] == ["ant", "eclipse"]
        (library,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        exec(compile(library, "README.md", "exec"), {})
        assert capsys.readouterr().out == "0.6666666666666666 [0 0 1 1]\n"

    def test_version_is_read_from_the_package(self):
        # One home: the build reads cpdp_ifs.__version__, which each manifest records.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert "version" not in declared["project"]
        assert declared["project"]["dynamic"] == ["version"]
        assert declared["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "cpdp_ifs.__version__"
        }

    def test_console_script_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "cpdp_ifs.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "ingest" in result.stdout
        assert "compare" in result.stdout
