import contextlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpdp_ifs.cli import EXIT_DATA, EXIT_OK, main

from cpdp_ifs.corpus import (
    DataFormatError,
    FeatureSchema,
    NoCommonMetricsError,
    Project,
    binarize_label,
    intersect_features,
    load_arff,
    load_csv,
    summarize,
)

from oracles import reference_load_arff, reference_load_csv
from synth import corpus_projects, write_project_arff, write_project_csv


def make_project(names, matrix, labels, name="p", family="fam"):
    schema = FeatureSchema(feature_names=tuple(names), label_column="bug")
    return Project(name=name, dataset_family=family, schema=schema,
                   matrix=np.asarray(matrix, dtype=float), labels=np.asarray(labels))


class TestBinarizeLabel:
    def test_defect_counts(self):
        assert [binarize_label(t) for t in ("0", "2", "0")] == [0, 1, 0]

    def test_numeric_variants(self):
        assert binarize_label("1") == 1
        assert binarize_label("0.0") == 0
        assert binarize_label("3.5") == 1
        assert binarize_label("-1") == 0

    @pytest.mark.parametrize("token", ["true", "YES", "y", "buggy", "Defective", "bug"])
    def test_truthy_tokens(self, token):
        assert binarize_label(token) == 1

    @pytest.mark.parametrize("token", ["false", "No", "n", "clean", "non-defective"])
    def test_falsy_tokens(self, token):
        assert binarize_label(token) == 0

    def test_unknown_token(self):
        with pytest.raises(DataFormatError, match="unknown value token"):
            binarize_label("maybe")

    def test_non_finite(self):
        with pytest.raises(DataFormatError):
            binarize_label("nan")


class TestFeatureSchema:
    def test_canonicalization_strips_and_lowers(self):
        schema = FeatureSchema(feature_names=("WMC", " dit "), label_column="bug")
        assert schema.canonical_names() == ("wmc", "dit")

    def test_alias_map_applies(self):
        schema = FeatureSchema(
            feature_names=("NumMethods",),
            label_column="bug",
            alias_map={"nummethods": "wmc"},
        )
        assert schema.canonical_names() == ("wmc",)

    def test_duplicate_after_canonicalization_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            FeatureSchema(feature_names=("loc", "LOC"), label_column="bug")

    def test_label_among_features_rejected(self):
        with pytest.raises(DataFormatError, match="label column"):
            FeatureSchema(feature_names=("bug", "loc"), label_column="bug")


class TestProject:
    def test_matrix_is_read_only(self):
        project = make_project(["a"], [[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            project.matrix[0, 0] = 9.0

    def test_non_binary_labels_rejected(self):
        with pytest.raises(DataFormatError, match="binary"):
            make_project(["a"], [[1.0], [2.0]], [0, 2])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(DataFormatError):
            make_project(["a"], [[1.0], [2.0]], [0, 1, 1])

    def test_schema_width_mismatch_rejected(self):
        with pytest.raises(DataFormatError):
            make_project(["a", "b"], [[1.0], [2.0]], [0, 1])

    def test_non_finite_rejected(self):
        with pytest.raises(DataFormatError, match="non-finite"):
            make_project(["a"], [[np.nan], [2.0]], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(DataFormatError):
            make_project(["a"], np.empty((0, 1)), [])


# A label cell that binarize_label rejects, and the fault it names.
LABEL_FAULTS = pytest.mark.parametrize(
    "cell, fault",
    [("maybe", "unknown value token 'maybe' in label column"),
     ("inf", "non-finite label value 'inf'")],
    ids=["unknown_token", "non_finite"],
)


class TestLoadCsv:
    @LABEL_FAULTS
    def test_label_fault_names_the_file_and_row(self, tmp_path, cell, fault):
        path = tmp_path / "lab.csv"
        path.write_text(f"loc,bug\n1,0\n2,{cell}\n3,1\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as info:
            load_csv(path, FeatureSchema(label_column="bug"))
        assert str(info.value) == f"{path}: {fault} at data row 2"

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_text("wmc,loc,bug\n1,10,0\n2,20,1\n3,30,0\n", encoding="utf-8")
        project = load_csv(path, FeatureSchema(label_column="bug"), family="promise")
        assert project.name == "demo"
        assert project.dataset_family == "promise"
        assert project.schema.feature_names == ("wmc", "loc")
        assert np.array_equal(project.matrix, [[1, 10], [2, 20], [3, 30]])
        assert list(project.labels) == [0, 1, 0]

    def test_feature_subset_and_alias(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_text("NumMethods,loc,bug\n1,10,0\n2,20,1\n", encoding="utf-8")
        schema = FeatureSchema(
            feature_names=("wmc",), label_column="bug", alias_map={"nummethods": "wmc"}
        )
        project = load_csv(path, schema)
        assert project.schema.canonical_names() == ("wmc",)
        assert np.array_equal(project.matrix, [[1], [2]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataFormatError, match="empty file"):
            load_csv(path, FeatureSchema(label_column="bug"))

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,bug\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="empty file"):
            load_csv(path, FeatureSchema(label_column="bug"))

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="label column"):
            load_csv(path, FeatureSchema(label_column="bug"))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,bug\nx,0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="non-numeric"):
            load_csv(path, FeatureSchema(label_column="bug"))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,bug\n1,2,0\n1,0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="cells"):
            load_csv(path, FeatureSchema(label_column="bug"))

    def test_duplicate_feature_names(self, tmp_path):
        path = tmp_path / "dupe.csv"
        path.write_text("a,A,bug\n1,2,0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_csv(path, FeatureSchema(label_column="bug"))

    def test_non_finite_cell(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a,bug\ninf,0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="non-finite"):
            load_csv(path, FeatureSchema(label_column="bug"))

    def test_utf8_bom_not_part_of_first_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffa,b,bug\n1,10,0\n2,20,1\n", encoding="utf-8")
        project = load_csv(path, FeatureSchema(feature_names=("a",), label_column="bug"))
        assert project.schema.feature_names == ("a",)
        assert np.array_equal(project.matrix, [[1], [2]])


class TestLoadArff:
    @LABEL_FAULTS
    def test_numeric_label_fault_names_the_file_and_row(self, tmp_path, cell, fault):
        path = tmp_path / "lab.arff"
        path.write_text(
            "@relation lab\n@attribute loc numeric\n@attribute bug numeric\n"
            f"@data\n1,0\n2,{cell}\n3,1\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError) as info:
            load_arff(path, FeatureSchema(label_column="bug"))
        assert str(info.value) == f"{path}: {fault} at data row 2"

    def test_minimal_nominal_class(self, tmp_path):
        path = tmp_path / "mini.arff"
        path.write_text(
            "% comment\n"
            "@relation mini\n"
            "@attribute size numeric\n"
            "@attribute bug {clean,buggy}\n"
            "@data\n"
            "1.5,clean\n"
            "2.5,buggy\n",
            encoding="utf-8",
        )
        project = load_arff(path, FeatureSchema(label_column="bug"))
        assert project.n_instances == 2
        assert project.n_features == 1
        assert list(project.labels) == [0, 1]

    def test_quoted_attribute_names(self, tmp_path):
        path = tmp_path / "quoted.arff"
        path.write_text(
            "@relation q\n"
            "@attribute 'lines of code' real\n"
            "@attribute bug {false,true}\n"
            "@data\n"
            "3,true\n"
            "4,false\n",
            encoding="utf-8",
        )
        project = load_arff(path, FeatureSchema(label_column="bug"))
        assert project.schema.feature_names == ("lines of code",)
        assert list(project.labels) == [1, 0]

    def test_row_arity_mismatch(self, tmp_path):
        path = tmp_path / "arity.arff"
        path.write_text(
            "@relation a\n@attribute x numeric\n@attribute bug {0,1}\n@data\n1\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match="row arity mismatch"):
            load_arff(path, FeatureSchema(label_column="bug"))

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "missing.arff"
        path.write_text(
            "@relation a\n@attribute x numeric\n@attribute bug {0,1}\n@data\n?,1\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match="missing value"):
            load_arff(path, FeatureSchema(label_column="bug"))

    def test_sparse_rows_rejected(self, tmp_path):
        path = tmp_path / "sparse.arff"
        path.write_text(
            "@relation a\n@attribute x numeric\n@attribute bug {0,1}\n@data\n{0 1, 1 1}\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match="sparse"):
            load_arff(path, FeatureSchema(label_column="bug"))

    def test_nominal_feature_rejected(self, tmp_path):
        path = tmp_path / "nomfeat.arff"
        path.write_text(
            "@relation a\n@attribute x {a,b}\n@attribute y numeric\n"
            "@attribute bug {0,1}\n@data\na,1,0\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match="nominal"):
            load_arff(path, FeatureSchema(label_column="bug"))

    def test_unknown_nominal_label_token(self, tmp_path):
        path = tmp_path / "tok.arff"
        path.write_text(
            "@relation a\n@attribute x numeric\n@attribute bug {clean,buggy}\n@data\n1,broken\n",
            encoding="utf-8",
        )
        with pytest.raises(DataFormatError, match="unknown value token"):
            load_arff(path, FeatureSchema(label_column="bug"))

    def test_missing_data_section(self, tmp_path):
        path = tmp_path / "nodata.arff"
        path.write_text("@relation a\n@attribute x numeric\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="@data"):
            load_arff(path, FeatureSchema(label_column="bug"))

    def test_utf8_bom_before_relation(self, tmp_path):
        path = tmp_path / "bom.arff"
        path.write_text(
            "\ufeff@relation bom\n@attribute a numeric\n@attribute bug {0,1}\n@data\n1,0\n2,1\n",
            encoding="utf-8",
        )
        project = load_arff(path, FeatureSchema(label_column="bug"))
        assert project.schema.feature_names == ("a",)
        assert list(project.labels) == [0, 1]

    def test_missing_relation(self, tmp_path):
        path = tmp_path / "norel.arff"
        path.write_text("@attribute x numeric\n@attribute bug {0,1}\n@data\n1,0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="@relation"):
            load_arff(path, FeatureSchema(label_column="bug"))

    def test_roundtrip_matches_csv(self, tmp_path):
        project = corpus_projects(seed=3)[0]
        write_project_csv(tmp_path / "p.csv", project)
        write_project_arff(tmp_path / "p.arff", project)
        from_csv = load_csv(tmp_path / "p.csv", FeatureSchema(label_column="bug"))
        from_arff = load_arff(tmp_path / "p.arff", FeatureSchema(label_column="bug"))
        assert np.array_equal(from_csv.matrix, from_arff.matrix)
        assert np.array_equal(from_csv.labels, from_arff.labels)
        assert from_csv.schema.feature_names == from_arff.schema.feature_names


# Cells both loaders must parse to the same bits, and cells (or rows) that
# must end in the per-row reference's message.
GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from([" 2.5", "7 ", "-0", "+7", "1_000", ".5", "5.", "1E-300", "4.9e-324"]),
)
BAD_CELLS = st.sampled_from(["?", "nan", "NaN", "inf", "-Infinity", "1e999", "abc", "", " ", "0x10"])
GOOD_LABELS = st.sampled_from(["clean", "buggy", "'buggy'", " buggy"])
CSV_LABELS = st.one_of(GOOD_LABELS, st.sampled_from(["0", "1", "3", "true", "no"]))
BAD_LABELS = st.sampled_from(["maybe", "nan", "?", "", "true"])


@st.composite
def cell_tables(draw, good_labels):
    """(header, data rows, schema): a label column among 1-4 features and
    1-6 rows, with up to two faults: a bad feature cell, a bad label, a '?'
    in any column, or a row one cell short or long. The schema selects every
    feature or some, in any order."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    label_at = draw(st.integers(0, n))
    header = [f"m{i}" for i in range(n)]
    header.insert(label_at, "bug")
    rows = [
        [draw(good_labels if j == label_at else GOOD_CELLS) for j in range(n + 1)]
        for _ in range(m)
    ]
    kinds = ["cell", "label", "missing", "long", "short"]
    faults = draw(st.lists(st.sampled_from(kinds), max_size=2))
    for fault in sorted(faults, key=kinds.index):  # cell positions hold until "short"
        row = rows[draw(st.integers(0, m - 1))]
        if fault == "missing":
            row[draw(st.integers(0, n))] = "?"
        elif fault == "label":
            row[label_at] = draw(BAD_LABELS)
        elif fault == "cell":
            column = draw(st.sampled_from([j for j in range(n + 1) if j != label_at]))
            row[column] = draw(BAD_CELLS)
        elif fault == "long" or len(row) == 1:
            row.append("1")
        else:
            row.pop()
    names = tuple(h for h in header if h != "bug")
    if draw(st.booleans()):
        names = tuple(draw(st.permutations(names))[: draw(st.integers(1, n))])
    return header, rows, FeatureSchema(feature_names=names, label_column="bug")


def _loaded(loader, path, schema):
    """``loader``'s (matrix bytes, label bytes, names), or its error message."""
    try:
        project = loader(path, schema)
        if isinstance(project, tuple):  # a reference loader: build what load_* built
            matrix, labels, names = project
            project = Project(path.stem, "default", replace(schema, feature_names=tuple(names)),
                              matrix, labels)
    except DataFormatError as exc:
        return str(exc)
    return project.matrix.tobytes(), project.labels.tobytes(), project.schema.feature_names


def _ingest_exit_code(path, schema):
    dataset = {"name": "p", "path": path.name, "feature_names": list(schema.feature_names)}
    config = path.parent / "config.json"
    config.write_text(json.dumps({"datasets": [dataset]}), "utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["ingest", "--config", str(config)])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestLoaderFuzz:
    """Both loaders against the per-cell reference in ``oracles``: the same
    bits for well-formed files and the same first fault for malformed ones,
    which the CLI turns into exit 2."""

    @staticmethod
    def check(loader, reference, path, schema):
        want, got = _loaded(reference, path, schema), _loaded(loader, path, schema)
        assert got == want
        assert _ingest_exit_code(path, schema) == (EXIT_DATA if isinstance(want, str) else EXIT_OK)

    @given(
        cell_tables(CSV_LABELS), st.booleans(), st.booleans(), st.booleans(), st.booleans()
    )
    def test_csv(self, fuzz_dir, table, bom, crlf, quoted, trailing_comma):
        header, rows, schema = table
        names = [f'"{h}"' if quoted else h for h in header]
        lines = [",".join(names), *(",".join(row) for row in rows)]
        if trailing_comma:
            lines = [line + "," for line in lines]
        text = ("\r\n" if crlf else "\n").join(lines) + "\n"
        path = fuzz_dir / "fuzz.csv"
        path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
        self.check(load_csv, reference_load_csv, path, schema)

    @given(cell_tables(GOOD_LABELS), st.booleans(), st.booleans(), st.booleans(), st.booleans())
    def test_arff(self, fuzz_dir, table, bom, crlf, quoted, sparse):
        header, rows, schema = table
        lines = ["% fuzzed", "@relation fuzz"]
        for name in header:
            kind = "{clean,buggy}" if name == "bug" else "numeric"
            lines.append(f"@attribute {repr(name) if quoted else name} {kind}")
        lines += ["", "@data", *(",".join(row) for row in rows)]
        if sparse:
            lines.append("{0 1, 1 2}")
        text = ("\r\n" if crlf else "\n").join(lines) + "\n"
        path = fuzz_dir / "fuzz.arff"
        path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
        self.check(load_arff, reference_load_arff, path, schema)


class TestSummarize:
    def test_counts_and_ratio(self):
        project = make_project(["a"], [[1.0], [2.0], [3.0], [4.0]], [0, 1, 1, 0])
        s = summarize(project)
        assert (s.instance_count, s.defect_count, s.metric_count) == (4, 2, 1)
        assert s.defect_ratio == 0.5

    def test_all_clean(self):
        project = make_project(["a"], [[1.0], [2.0]], [0, 0])
        assert summarize(project).defect_ratio == 0.0


class TestIntersectFeatures:
    def test_common_in_first_projects_order(self):
        a = make_project(["wmc", "dit", "loc"], [[1, 2, 3], [4, 5, 6]], [0, 1], name="a")
        b = make_project(["loc", "wmc", "cbo"], [[30, 10, 7], [60, 40, 8]], [1, 0], name="b")
        names, a_cols, b_cols = intersect_features(a, b)
        assert names == ("wmc", "loc")
        assert (a_cols, b_cols) == ((0, 2), (1, 0))
        assert np.array_equal(a.matrix[:, a_cols], [[1, 3], [4, 6]])
        assert np.array_equal(b.matrix[:, b_cols], [[10, 30], [40, 60]])

    def test_identical_schemas_identity(self):
        a = make_project(["x", "y"], [[1, 2], [3, 4]], [0, 1], name="a")
        b = make_project(["x", "y"], [[5, 6], [7, 8]], [1, 0], name="b")
        assert intersect_features(a, b) == (("x", "y"), (0, 1), (0, 1))

    def test_local_names_kept(self):
        b_schema = FeatureSchema(feature_names=("wmc",), label_column="bug")
        b = Project(name="b", dataset_family="f", schema=b_schema,
                    matrix=np.array([[3.0], [4.0]]), labels=np.array([0, 1]))
        a = Project(
            name="a",
            dataset_family="g",
            schema=FeatureSchema(
                feature_names=("NumMethods",),
                label_column="bug",
                alias_map={"nummethods": "wmc"},
            ),
            matrix=np.array([[1.0], [2.0]]),
            labels=np.array([0, 1]),
        )
        names, a_cols, b_cols = intersect_features(a, b)
        assert names == ("wmc",)
        assert [a.schema.feature_names[i] for i in a_cols] == ["NumMethods"]
        assert [b.schema.feature_names[i] for i in b_cols] == ["wmc"]

    def test_disjoint_raises(self):
        a = make_project(["a1"], [[1], [2]], [0, 1], name="a")
        b = make_project(["b1"], [[3], [4]], [0, 1], name="b")
        with pytest.raises(NoCommonMetricsError, match="no common metrics"):
            intersect_features(a, b)

    @given(st.data())
    def test_positional_alignment_property(self, data):
        pool = ["m0", "m1", "m2", "m3", "m4", "m5"]
        a_names = data.draw(st.permutations(pool).map(lambda p: p[:4]))
        b_names = data.draw(st.permutations(pool).map(lambda p: p[:4]))
        a = make_project(a_names, np.arange(8.0).reshape(2, 4), [0, 1], name="a")
        b = make_project(b_names, np.arange(8.0, 16.0).reshape(2, 4), [0, 1], name="b")
        common = set(a_names) & set(b_names)
        if not common:
            with pytest.raises(NoCommonMetricsError):
                intersect_features(a, b)
            return
        names, a_cols, b_cols = intersect_features(a, b)
        # position i names the same canonical metric on both sides
        assert [a.schema.canonical_names()[i] for i in a_cols] == list(names)
        assert [b.schema.canonical_names()[i] for i in b_cols] == list(names)
        assert set(names) == common
        # order follows the first project's schema
        ordered = [n for n in a.schema.canonical_names() if n in common]
        assert list(names) == ordered


def test_every_exported_name_resolves():
    import cpdp_ifs

    missing = [name for name in cpdp_ifs.__all__ if not hasattr(cpdp_ifs, name)]
    assert missing == []
