"""Loading, validation and schema handling for defect data sets.

Supports the two formats the public defect corpora ship in: plain CSV with a
header row, and a dense subset of the attribute-relation (ARFF) format.
Metric names are canonicalized (alias map, then lowercase) so that projects
collected by different groups can be compared by feature identity.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, replace
from operator import itemgetter
from pathlib import Path
from typing import Callable, Mapping

import numpy as np


class DataFormatError(ValueError):
    """A data set file or schema violates the expected format."""


class NoCommonMetricsError(ValueError):
    """Two projects share no metric names; intersection methods cannot run."""


_TRUE_TOKENS = {"true", "yes", "y", "buggy", "defective", "bug", "defect"}
_FALSE_TOKENS = {"false", "no", "n", "clean", "non-defective", "nondefective", "nonbuggy"}


def binarize_label(token: str) -> int:
    """Map a raw label cell to 0/1.

    Numeric values use the count>0 rule (defect counts stay two-class);
    textual values go through a small truthy/falsy token table.
    """
    tok = str(token).strip().strip("'\"")
    try:
        value = float(tok)
    except ValueError:
        low = tok.lower()
        if low in _TRUE_TOKENS:
            return 1
        if low in _FALSE_TOKENS:
            return 0
        raise DataFormatError(f"unknown value token {token!r} in label column") from None
    if not math.isfinite(value):
        raise DataFormatError(f"non-finite label value {token!r}")
    return 1 if value > 0 else 0


@dataclass(frozen=True)
class FeatureSchema:
    """Feature identity of a project: metric names, label column, alias map.

    ``feature_names`` may be empty when the schema is used as a loader
    config, meaning "every non-label column in the file". The alias map
    translates local metric names to canonical ones before the lowercase
    comparison used everywhere else.
    """

    feature_names: tuple[str, ...] = ()
    label_column: str = "bug"
    alias_map: Mapping[str, str] = field(default_factory=dict)
    _canonical: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        aliases = {str(k).strip().lower(): str(v).strip().lower() for k, v in self.alias_map.items()}
        object.__setattr__(self, "alias_map", aliases)
        canon = tuple(map(self.canonical, self.feature_names))
        object.__setattr__(self, "_canonical", canon)
        if len(set(canon)) != len(canon):
            raise DataFormatError("duplicate feature names after canonicalization")
        if self.canonical(self.label_column) in canon:
            raise DataFormatError(f"label column {self.label_column!r} listed among feature names")

    def canonical(self, name: str) -> str:
        low = str(name).strip().lower()
        return self.alias_map.get(low, low)

    def canonical_names(self) -> tuple[str, ...]:
        return self._canonical


@dataclass(frozen=True)
class Project:
    """An immutable defect data set: feature matrix plus binary labels."""

    name: str
    dataset_family: str
    schema: FeatureSchema
    matrix: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=float)
        labels = np.array(self.labels, dtype=np.int8)
        if matrix.ndim != 2:
            raise DataFormatError("feature matrix must be two-dimensional")
        m, n = matrix.shape
        if m < 1 or n < 1:
            raise DataFormatError("a project needs at least one instance and one feature")
        if labels.shape != (m,):
            raise DataFormatError(f"label count {labels.shape} does not match {m} instances")
        if not np.all(np.isfinite(matrix)):
            raise DataFormatError("feature matrix contains non-finite values")
        if not np.all((labels == 0) | (labels == 1)):
            raise DataFormatError("labels must be binary")
        if len(self.schema.feature_names) != n:
            raise DataFormatError(
                f"schema lists {len(self.schema.feature_names)} features, matrix has {n} columns"
            )
        matrix.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "labels", labels)

    @property
    def n_instances(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class DatasetSummary:
    """Instance, defect and metric counts of one project, as ``summarize`` gives them."""

    instance_count: int
    defect_count: int
    defect_ratio: float
    metric_count: int


def summarize(project: Project) -> DatasetSummary:
    """Instance/defect counts and the defect ratio of a project."""
    m = project.n_instances
    defects = int(np.sum(project.labels))
    return DatasetSummary(
        instance_count=m,
        defect_count=defects,
        defect_ratio=defects / m,
        metric_count=project.n_features,
    )


def _read_rows(path: Path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            return [row for row in csv.reader(handle) if row and any(cell.strip() for cell in row)]
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _parse_feature_cell(cell: str, row_no: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataFormatError(
            f"non-numeric feature cell {cell!r} at data row {row_no}, column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise DataFormatError(f"non-finite feature cell at data row {row_no}, column {column!r}")
    return value


def _select_columns(
    header: list[str], schema: FeatureSchema, origin: str
) -> tuple[list[int], int, list[str]]:
    """Resolve the label index and the feature column indices for a file header."""
    canon_header = [schema.canonical(h) for h in header]
    label_canon = schema.canonical(schema.label_column)
    if label_canon not in canon_header:
        raise DataFormatError(f"{origin}: label column {schema.label_column!r} not found")
    if canon_header.count(label_canon) > 1:
        raise DataFormatError(f"{origin}: duplicate label column {schema.label_column!r}")
    label_idx = canon_header.index(label_canon)

    if schema.feature_names:
        indices = []
        for canon in schema.canonical_names():
            if canon not in canon_header:
                raise DataFormatError(f"{origin}: feature column {canon!r} not found")
            if canon_header.count(canon) > 1:
                raise DataFormatError(f"{origin}: duplicate feature names {[canon]}")
            indices.append(canon_header.index(canon))
    else:
        indices = [i for i in range(len(header)) if i != label_idx]
        selected = [canon_header[i] for i in indices]
        if len(set(selected)) != len(selected):
            dupes = sorted({n for n in selected if selected.count(n) > 1})
            raise DataFormatError(f"{origin}: duplicate feature names {dupes}")
    names = [header[i].strip() for i in indices]
    return indices, label_idx, names


def _label_at(path: Path, cell: str, row_no: int) -> int:
    """:func:`binarize_label`, with the file and the data row in its fault."""
    try:
        return binarize_label(cell)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc} at data row {row_no}") from None


_RowFault = Callable[[list[str], int], str | None]
_LabelOf = Callable[[str, int], int]


def _project_from_cells(
    header: list[str], rows: list[list[str]], columns: tuple[list[int], int, list[str]],
    schema_config: FeatureSchema, name: str, family: str,
    row_fault: _RowFault, label_of: _LabelOf,
) -> Project:
    """A Project from a file's data rows of cells, the same for every format.

    ``row_fault`` gives a row's format fault, if any; ``label_of`` turns a
    label cell into 0/1 or raises. Cells are parsed in bulk; on any fault the
    per-row loop runs instead and alone raises, for the first in row order.
    """
    feature_idx, label_idx, feature_names = columns
    m, k = len(rows), len(feature_idx)
    matrix = None
    if k and not any(map(row_fault, rows, itertools.count(1))):
        pick = itemgetter(*feature_idx)
        cells = map(pick, rows) if k == 1 else itertools.chain.from_iterable(map(pick, rows))
        label_cells = map(itemgetter(label_idx), rows)
        try:
            matrix = np.fromiter(map(float, cells), float, m * k).reshape(m, k)
            labels = np.fromiter(map(label_of, label_cells, itertools.count(1)), np.int8, m)
        except ValueError:
            matrix = None
    if matrix is None or not np.isfinite(matrix).all():
        matrix, labels = np.empty((m, k)), np.empty(m, np.int8)
        for r, row in enumerate(rows):
            fault = row_fault(row, r + 1)
            if fault is not None:
                raise DataFormatError(fault)
            for c, idx in enumerate(feature_idx):
                matrix[r, c] = _parse_feature_cell(row[idx], r + 1, header[idx])
            labels[r] = label_of(row[label_idx], r + 1)
    schema = replace(schema_config, feature_names=tuple(feature_names))
    return Project(name, family, schema, matrix, labels)


def load_csv(
    path: str | Path,
    schema_config: FeatureSchema,
    *,
    name: str | None = None,
    family: str = "default",
) -> Project:
    """Load a header-first CSV file into a Project.

    Labels are binarized with :func:`binarize_label`; every feature cell must
    parse as a finite number (no imputation).
    """
    path = Path(path)
    rows = _read_rows(path)
    if not rows:
        raise DataFormatError(f"empty file: {path}")
    header = [h.strip() for h in rows[0]]
    columns = _select_columns(header, schema_config, str(path))
    data_rows = rows[1:]
    if not data_rows:
        raise DataFormatError(f"empty file (header only): {path}")

    def row_fault(row: list[str], row_no: int) -> str | None:
        if len(row) != len(header):
            return f"{path}: data row {row_no} has {len(row)} cells, expected {len(header)}"
        return None

    return _project_from_cells(
        header, data_rows, columns, schema_config, name or path.stem, family,
        row_fault, lambda cell, row_no: _label_at(path, cell, row_no),
    )


def _parse_attribute_line(line: str, path: Path) -> tuple[str, str, tuple[str, ...]]:
    """Parse one ``@attribute`` declaration into (name, kind, nominal_values)."""
    rest = line[len("@attribute"):].strip()
    if not rest:
        raise DataFormatError(f"{path}: malformed attribute declaration {line!r}")
    if rest[0] in "'\"":
        quote = rest[0]
        end = rest.find(quote, 1)
        if end < 0:
            raise DataFormatError(f"{path}: malformed attribute declaration {line!r}")
        attr_name = rest[1:end]
        type_spec = rest[end + 1:].strip()
    else:
        parts = rest.split(None, 1)
        if len(parts) != 2:
            raise DataFormatError(f"{path}: malformed attribute declaration {line!r}")
        attr_name, type_spec = parts[0], parts[1].strip()
    if not attr_name or not type_spec:
        raise DataFormatError(f"{path}: malformed attribute declaration {line!r}")

    if type_spec.startswith("{"):
        if not type_spec.endswith("}"):
            raise DataFormatError(f"{path}: malformed attribute declaration {line!r}")
        values = tuple(v.strip().strip("'\"") for v in type_spec[1:-1].split(","))
        if not all(values):
            raise DataFormatError(f"{path}: malformed attribute declaration {line!r}")
        return attr_name, "nominal", values
    if type_spec.lower() in ("numeric", "real", "integer"):
        return attr_name, "numeric", ()
    raise DataFormatError(
        f"{path}: unsupported attribute type {type_spec!r} (only numeric and nominal)"
    )


def load_arff(
    path: str | Path,
    schema_config: FeatureSchema,
    *,
    name: str | None = None,
    family: str = "default",
) -> Project:
    """Load a dense ARFF file (numeric attributes, nominal class) into a Project."""
    path = Path(path)
    attributes: list[tuple[str, str, tuple[str, ...]]] = []
    data_lines: list[str] = []
    saw_relation = False
    in_data = False
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for raw in handle:
                line = raw.strip()
                if not line or line.startswith("%"):
                    continue
                low = line.lower()
                if in_data:
                    data_lines.append(line)
                elif low.startswith("@relation"):
                    saw_relation = True
                elif low.startswith("@attribute"):
                    attributes.append(_parse_attribute_line(line, path))
                elif low.startswith("@data"):
                    in_data = True
                else:
                    raise DataFormatError(f"{path}: unexpected line before @data: {line!r}")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if not saw_relation:
        raise DataFormatError(f"{path}: missing @relation declaration")
    if not in_data:
        raise DataFormatError(f"{path}: missing @data section")
    if not attributes:
        raise DataFormatError(f"{path}: no @attribute declarations")
    if not data_lines:
        raise DataFormatError(f"empty file (no data rows): {path}")

    header = [a[0] for a in attributes]
    kinds = {a[0]: a[1] for a in attributes}
    nominal_values = {a[0]: set(a[2]) for a in attributes if a[1] == "nominal"}
    columns = _select_columns(header, schema_config, str(path))
    for i in columns[0]:
        if kinds[header[i]] == "nominal":
            raise DataFormatError(
                f"{path}: nominal attribute {header[i]!r} cannot be used as a feature"
            )

    label_name = header[columns[1]]

    def row_fault(cells: list[str], row_no: int) -> str | None:
        if cells[0].startswith("{"):
            return f"{path}: sparse ARFF data is not supported (row {row_no})"
        if len(cells) != len(header):
            return (
                f"{path}: row arity mismatch at data row {row_no}: "
                f"{len(cells)} values for {len(header)} attributes"
            )
        if "?" in cells:
            return f"{path}: missing value ('?') at data row {row_no}"
        return None

    def label_of(cell: str, row_no: int) -> int:
        cell = cell.strip("'\"")
        if kinds[label_name] == "nominal" and cell not in nominal_values[label_name]:
            raise DataFormatError(
                f"{path}: unknown value token {cell!r} at data row {row_no} "
                f"(declared: {sorted(nominal_values[label_name])})"
            )
        return _label_at(path, cell, row_no)

    rows = [list(map(str.strip, line.split(","))) for line in data_lines]
    return _project_from_cells(
        header, rows, columns, schema_config, name or path.stem, family, row_fault, label_of
    )


def intersect_features(
    a: Project, b: Project
) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """Align two projects on their common canonical feature names.

    Returns the shared names in ``a``'s schema order and, for each project,
    the column index of each shared name, so position i refers to the same
    canonical metric on both sides. Raises :class:`NoCommonMetricsError`
    when the canonical name sets are disjoint.
    """
    a_canon = a.schema.canonical_names()
    b_index = {cname: i for i, cname in enumerate(b.schema.canonical_names())}
    a_cols = tuple(i for i, cname in enumerate(a_canon) if cname in b_index)
    if not a_cols:
        raise NoCommonMetricsError(
            f"no common metrics between {a.name!r} ({a.dataset_family}) "
            f"and {b.name!r} ({b.dataset_family})"
        )
    common = tuple(a_canon[i] for i in a_cols)
    return common, a_cols, tuple(b_index[cname] for cname in common)
