"""Loading, validation, schema handling and label summaries of defect data sets.

Supports the two formats the public defect corpora ship in: plain CSV with a
header row, and a dense subset of the attribute-relation (ARFF) format.
Metric names are canonicalized (alias map, then lowercase) so that projects
collected by different groups can be compared by feature identity.

``parse_csv`` and ``parse_arff`` check every cell in pure Python and give a
project's parts unbuilt; ``load_csv`` and ``load_arff`` build those into a
``Project``. Only building one imports numpy, so ``ingest`` and ``dpr``,
which ``summarize`` the parsed labels, never do.

:class:`DataError` is a fault the input data can cause, here or in a later
stage. It states only its fault, and each enclosing layer puts its own part
of the location in front with :func:`located`: a row fault reads
``{file}: data row {n}: {fault}``, a file fault ``{file}: {fault}``.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
from array import array
from dataclasses import dataclass, field, replace
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np


class DataError(ValueError):
    """A fault of the input data: a malformed file, or data no stage can use."""


@contextlib.contextmanager
def located(where: object) -> Iterator[None]:
    """Put ``where: `` in front of a :class:`DataError` raised in the block."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


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
        raise DataError(f"unknown value token {token!r} in label column") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite label value {token!r}")
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
            raise DataError("duplicate feature names after canonicalization")
        if self.canonical(self.label_column) in canon:
            raise DataError(f"label column {self.label_column!r} listed among feature names")

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
        import numpy as np

        matrix = np.array(self.matrix, dtype=float)
        labels = np.asarray(self.labels)
        if matrix.ndim != 2:
            raise DataError("feature matrix must be two-dimensional")
        m, n = matrix.shape
        if m < 1 or n < 1:
            raise DataError("a project needs at least one instance and one feature")
        if labels.shape != (m,):
            raise DataError(f"label count {labels.shape} does not match {m} instances")
        if not np.all(np.isfinite(matrix)):
            raise DataError("feature matrix contains non-finite values")
        # Checked before the cast, which would truncate 0.4 or 256.0 to 0.
        if not np.all((labels == 0) | (labels == 1)):
            raise DataError("labels must be binary")
        labels = labels.astype(np.int8)
        if len(self.schema.feature_names) != n:
            raise DataError(
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


class DatasetSummary(NamedTuple):
    """Instance, defect and metric counts of one project, as ``summarize`` gives them."""

    instance_count: int
    defect_count: int
    defect_ratio: float
    metric_count: int


def summarize(labels: Sequence[int], metric_count: int) -> DatasetSummary:
    """Instance/defect counts and the defect ratio of a data set's 0/1 labels."""
    # Python ints: a sum over an int8 array would wrap at 128.
    defects = sum(map(int, labels))
    return DatasetSummary(len(labels), defects, defects / len(labels), metric_count)


DPR_IMPROVEMENT_THRESHOLD = 0.64
DPR_APPROPRIATE_MAX = 2.5


def dpr(source_defect_ratio: float, target_defect_ratio: float) -> float:
    """Defect proneness ratio: source defect ratio over target defect ratio."""
    if not 0.0 <= source_defect_ratio <= 1.0 or not 0.0 <= target_defect_ratio <= 1.0:
        raise ValueError("defect ratios must lie in [0, 1]")
    if target_defect_ratio == 0.0:
        raise DataError("DPR undefined: target project has no defective instances")
    return source_defect_ratio / target_defect_ratio


def read_table(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Stripped header and data rows of a UTF-8 CSV file, BOM allowed, with
    all-blank rows skipped; an empty or undecodable file, or a cell past the
    ``csv`` module's field limit, is a data error."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = [row for row in csv.reader(handle) if any(cell.strip() for cell in row)]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(str(exc)) from None
    if not rows:
        raise DataError("empty file")
    return [h.strip() for h in rows[0]], rows[1:]


def parse_number(cell: str, column: str) -> float:
    """A numeric cell of ``column`` as a finite float, for data sets and score
    tables alike; anything else is a data error."""
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"non-numeric value {cell!r} in column {column!r}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value {cell!r} in column {column!r}")
    return value


def _select_columns(header: list[str], schema: FeatureSchema) -> tuple[list[int], int, list[str]]:
    """Resolve the label index and the feature column indices for a file header."""
    canon_header = [schema.canonical(h) for h in header]
    label_canon = schema.canonical(schema.label_column)
    if label_canon not in canon_header:
        raise DataError(f"label column {schema.label_column!r} not found")
    if canon_header.count(label_canon) > 1:
        raise DataError(f"duplicate label column {schema.label_column!r}")
    label_idx = canon_header.index(label_canon)

    if schema.feature_names:
        indices = []
        for canon in schema.canonical_names():
            if canon not in canon_header:
                raise DataError(f"feature column {canon!r} not found")
            if canon_header.count(canon) > 1:
                raise DataError(f"duplicate feature names {[canon]}")
            indices.append(canon_header.index(canon))
    else:
        indices = [i for i in range(len(header)) if i != label_idx]
        selected = [canon_header[i] for i in indices]
        if len(set(selected)) != len(selected):
            dupes = sorted({n for n in selected if selected.count(n) > 1})
            raise DataError(f"duplicate feature names {dupes}")
    names = [header[i].strip() for i in indices]
    return indices, label_idx, names


ProjectParts = tuple[str, str, FeatureSchema, Sequence[float], list[int]]


def _parse_rows(
    header: list[str], rows: list[list[str]], columns: tuple[list[int], int, list[str]],
    schema_config: FeatureSchema, name: str, family: str,
    row_fault: Callable[[list[str]], str | None], label_of: Callable[[str], int],
) -> ProjectParts:
    """A file's data rows of cells as a project's parts, the same for every format.

    ``row_fault`` gives a row's format fault, if any; ``label_of`` turns a
    label cell into 0/1 or raises. Cells are parsed in bulk; on any fault the
    per-row loop runs instead and alone raises, for the first in row order,
    with the data row in front.
    """
    feature_idx, label_idx, feature_names = columns
    k = len(feature_idx)
    parsed = False
    if k and not any(map(row_fault, rows)):
        pick = itemgetter(*feature_idx)
        cells = map(pick, rows) if k == 1 else itertools.chain.from_iterable(map(pick, rows))
        try:
            # An array of doubles holds no float objects, which would stay in
            # the allocator's arenas and raise the run's peak memory.
            values = array("d", map(float, cells))
            labels = list(map(label_of, map(itemgetter(label_idx), rows)))
            # A sum is finite only if every value is; a sum of finite values
            # that overflows takes the per-row loop, which finds no fault.
            parsed = math.isfinite(sum(values))
        except ValueError:
            pass
    if not parsed:
        values, labels = array("d"), []
        for row_no, row in enumerate(rows, start=1):
            with located(f"data row {row_no}"):
                fault = row_fault(row)
                if fault is not None:
                    raise DataError(fault)
                values.extend(parse_number(row[idx], header[idx]) for idx in feature_idx)
                labels.append(label_of(row[label_idx]))
    if not k:
        raise DataError("a project needs at least one instance and one feature")
    return name, family, replace(schema_config, feature_names=tuple(feature_names)), values, labels


def _project(parts: ProjectParts) -> Project:
    import numpy as np

    name, family, schema, values, labels = parts
    matrix = np.frombuffer(values).reshape(len(labels), len(schema.feature_names))
    return Project(name, family, schema, matrix, np.array(labels, dtype=np.int8))


def parse_csv(
    path: str | Path,
    schema_config: FeatureSchema,
    *,
    name: str | None = None,
    family: str = "default",
) -> ProjectParts:
    """A header-first CSV file as a project's parts: its name, family and
    schema, its feature values row by row as one array, and its labels.

    Labels are binarized with :func:`binarize_label`; every feature cell must
    parse as a finite number (no imputation).
    """
    path = Path(path)
    with located(path):
        header, data_rows = read_table(path)
        columns = _select_columns(header, schema_config)
        if not data_rows:
            raise DataError("empty file (header only)")

        def row_fault(row: list[str]) -> str | None:
            return f"{len(row)} cells, expected {len(header)}" if len(row) != len(header) else None

        return _parse_rows(
            header, data_rows, columns, schema_config, name or path.stem, family,
            row_fault, binarize_label,
        )


def load_csv(
    path: str | Path,
    schema_config: FeatureSchema,
    *,
    name: str | None = None,
    family: str = "default",
) -> Project:
    """Load a header-first CSV file into a Project, as :func:`parse_csv` reads it."""
    return _project(parse_csv(path, schema_config, name=name, family=family))


def _parse_attribute_line(line: str) -> tuple[str, str, tuple[str, ...]]:
    """Parse one ``@attribute`` declaration into (name, kind, nominal_values)."""
    malformed = DataError(f"malformed attribute declaration {line!r}")
    rest = line[len("@attribute"):].strip()
    if not rest:
        raise malformed
    if rest[0] in "'\"":
        end = rest.find(rest[0], 1)
        if end < 0:
            raise malformed
        attr_name, type_spec = rest[1:end], rest[end + 1:].strip()
    else:
        parts = rest.split(None, 1)
        if len(parts) != 2:
            raise malformed
        attr_name, type_spec = parts[0], parts[1].strip()
    if not attr_name or not type_spec:
        raise malformed

    if type_spec.startswith("{"):
        if not type_spec.endswith("}"):
            raise malformed
        values = tuple(v.strip().strip("'\"") for v in type_spec[1:-1].split(","))
        if not all(values):
            raise malformed
        return attr_name, "nominal", values
    if type_spec.lower() in ("numeric", "real", "integer"):
        return attr_name, "numeric", ()
    raise DataError(f"unsupported attribute type {type_spec!r} (only numeric and nominal)")


def parse_arff(
    path: str | Path,
    schema_config: FeatureSchema,
    *,
    name: str | None = None,
    family: str = "default",
) -> ProjectParts:
    """A dense ARFF file (numeric attributes, nominal class) as a project's
    parts, in :func:`parse_csv`'s form."""
    path = Path(path)
    attributes: list[tuple[str, str, tuple[str, ...]]] = []
    data_lines: list[str] = []
    saw_relation = in_data = False
    with located(path):
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
                        attributes.append(_parse_attribute_line(line))
                    elif low.startswith("@data"):
                        in_data = True
                    else:
                        raise DataError(f"unexpected line before @data: {line!r}")
        except UnicodeDecodeError as exc:
            raise DataError(str(exc)) from None
        if not saw_relation:
            raise DataError("missing @relation declaration")
        if not in_data:
            raise DataError("missing @data section")
        if not attributes:
            raise DataError("no @attribute declarations")
        if not data_lines:
            raise DataError("empty file (no data rows)")

        header = [a[0] for a in attributes]
        kinds = {a[0]: a[1] for a in attributes}
        nominal_values = {a[0]: set(a[2]) for a in attributes if a[1] == "nominal"}
        columns = _select_columns(header, schema_config)
        for i in columns[0]:
            if kinds[header[i]] == "nominal":
                raise DataError(
                    f"nominal attribute {header[i]!r} cannot be used as a feature"
                )
        label_name = header[columns[1]]

        def row_fault(cells: list[str]) -> str | None:
            if cells[0].startswith("{"):
                return "sparse ARFF data is not supported"
            if len(cells) != len(header):
                return f"row arity mismatch: {len(cells)} values for {len(header)} attributes"
            if "?" in cells:
                return "missing value ('?')"
            return None

        def label_of(cell: str) -> int:
            cell = cell.strip("'\"")
            if kinds[label_name] == "nominal" and cell not in nominal_values[label_name]:
                raise DataError(
                    f"unknown value token {cell!r} (declared: {sorted(nominal_values[label_name])})"
                )
            return binarize_label(cell)

        rows = [list(map(str.strip, line.split(","))) for line in data_lines]
        return _parse_rows(
            header, rows, columns, schema_config, name or path.stem, family, row_fault, label_of
        )


def load_arff(
    path: str | Path,
    schema_config: FeatureSchema,
    *,
    name: str | None = None,
    family: str = "default",
) -> Project:
    """Load a dense ARFF file into a Project, as :func:`parse_arff` reads it."""
    return _project(parse_arff(path, schema_config, name=name, family=family))


def intersect_features(
    a: Project, b: Project
) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """Align two projects on their common canonical feature names.

    Returns the shared names in ``a``'s schema order and, for each project,
    the column index of each shared name, so position i refers to the same
    canonical metric on both sides. Raises :class:`DataError` when the
    canonical name sets are disjoint.
    """
    a_canon = a.schema.canonical_names()
    b_index = {cname: i for i, cname in enumerate(b.schema.canonical_names())}
    a_cols = tuple(i for i, cname in enumerate(a_canon) if cname in b_index)
    if not a_cols:
        raise DataError(
            f"no common metrics between {a.name!r} ({a.dataset_family}) "
            f"and {b.name!r} ({b.dataset_family})"
        )
    common = tuple(a_canon[i] for i in a_cols)
    return common, a_cols, tuple(b_index[cname] for cname in common)
