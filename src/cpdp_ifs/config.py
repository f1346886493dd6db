"""The experiment config: its types, its JSON reader and the data set loop.

``load_config`` reads a JSON file, UTF-8 with or without a BOM, into an
``ExperimentConfig``, whose fields, defaults and type hints are the accepted
keys, values and JSON types. Nothing here imports numpy, so ``ingest`` can
check a corpus without it.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import sys
import typing
from collections.abc import Callable, Mapping
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

# CPython's built-in SHA-256 gives the same digest as hashlib's, whose
# OpenSSL backend costs 3.6 MB resident for one digest per run.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # interpreters built without built-in hashes

from cpdp_ifs.corpus import DataError, FeatureSchema, located


class ConfigError(ValueError):
    """The experiment config file is malformed or inconsistent."""


class Method(str, enum.Enum):
    CPDP_PURE = "cpdp_pure"
    IFS_OUR = "ifs_our"
    IFS_MIN = "ifs_min"
    MIX = "mix"


@dataclass(frozen=True)
class PreprocessConfig:
    """Which preprocessing steps to apply before training or profiling.

    ``normalize`` exists so single-instance inputs (which cannot be z-scored)
    can still be profiled.
    """

    log_filter: bool = False
    normalize: bool = True


@dataclass(frozen=True)
class LearnerParams:
    """Ridge, stopping rule and decision threshold of the logistic learner."""

    ridge: float = 1e-8
    max_iterations: int = 200
    tolerance: float = 1e-8
    decision_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError("ridge must be finite and non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError("decision_threshold must lie strictly between 0 and 1")


@dataclass(frozen=True)
class DatasetSpec:
    """One ``datasets`` entry of the config: where a project is and how to read it."""

    name: str
    path: str
    family: str = "default"
    format: str = ""
    label_column: str = FeatureSchema.label_column
    feature_names: tuple[str, ...] = ()
    alias_map: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for required in ("name", "path"):
            if not getattr(self, required):
                raise ValueError(f"{required} must not be empty")
        if "\0" in self.path:
            raise ValueError("path must not contain a NUL character")
        if self.format not in ("", "csv", "arff"):
            raise ValueError(f"unknown format {self.format!r}")
        self.schema()  # a repeated or label-colliding feature name is a config fault

    def schema(self) -> FeatureSchema:
        return FeatureSchema(self.feature_names, self.label_column, self.alias_map)

    def resolved_format(self) -> str:
        if self.format:
            return self.format
        return "arff" if self.path.lower().endswith(".arff") else "csv"


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings; each field but ``base_dir`` is a config key."""

    datasets: tuple[DatasetSpec, ...]
    methods: tuple[Method, ...] = tuple(Method)
    preprocessing: PreprocessConfig = PreprocessConfig()
    learner: LearnerParams = LearnerParams()
    output_dir: str = "results"
    workers: int = 1
    base_dir: Path | None = None

    def __post_init__(self) -> None:
        for required in ("datasets", "methods", "output_dir"):
            if not getattr(self, required):
                raise ValueError(f"{required} must not be empty")
        names = [spec.name for spec in self.datasets]
        if len(set(names)) != len(names):
            raise ValueError("dataset names must be unique")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("methods must be unique")
        missing = {Method.CPDP_PURE, Method.IFS_OUR} - set(self.methods)
        if Method.MIX in self.methods and missing:
            raise ValueError("mix requires both cpdp_pure and ifs_our to be configured")
        if "\0" in self.output_dir:
            raise ValueError("output_dir must not contain a NUL character")
        if self.workers < 1:
            raise ValueError("workers must be a positive integer")

    def to_dict(self) -> dict:
        """Canonical dict of everything that defines the run (no base_dir)."""
        echo = asdict(self)
        del echo["base_dir"]
        for spec, entry in zip(self.datasets, echo["datasets"]):
            entry["format"] = spec.resolved_format()
        return echo


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


_JSON_TYPES = {
    bool: "true or false",
    int: "an integer",
    float: "a finite number",
    str: "a string",
    tuple: "a list",
    Mapping: "an object",
}


def _json_value(value: object, hint: object, key: str) -> object:
    """``value`` as a field of type ``hint``, which fixes its JSON type: a
    bool is not an int, an int serves as a float, and floats are finite."""
    if is_dataclass(hint):
        return _read_object(hint, value, key)
    if isinstance(hint, enum.EnumMeta):
        if value not in [member.value for member in hint]:
            shown = json.dumps(value, default=repr)
            raise ConfigError(f"{key}: unknown {hint.__name__.lower()} {shown}")
        return hint(value)
    kind = typing.get_origin(hint) or hint
    if kind is tuple and type(value) is list:
        item = typing.get_args(hint)[0]
        return tuple(_json_value(v, item, f"{key}[{i}]") for i, v in enumerate(value))
    if kind is Mapping and type(value) is dict:
        item = typing.get_args(hint)[1]
        return {name: _json_value(v, item, f"{key}.{name}") for name, v in value.items()}
    # abs() compares exactly, so NaN, infinities and ints beyond any float fail.
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind in (bool, int, str) and type(value) is kind:
        return value
    shown = json.dumps(value, default=repr)
    raise ConfigError(f"{key} must be {_JSON_TYPES[kind]}, not {shown}")


@functools.cache
def _type_hints(cls: type) -> dict[str, object]:
    return typing.get_type_hints(cls)


def _read_object(cls: type, raw: object, where: str, **given: object):
    """The config dataclass ``cls`` read from the JSON object ``raw``.

    Its fields are the object's keys, their types the values' types, and
    their defaults fill absent keys; fields in ``given`` are set by the
    caller, not read. ``where`` is the object's key path, "" at the root.
    """
    label = where or "config"
    if type(raw) is not dict:
        raise ConfigError(f"{label} must be a JSON object")
    keys = [f for f in fields(cls) if f.name not in given]
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        accepted = ", ".join(repr(f.name) for f in keys)
        raise ConfigError(
            f"{label} has unknown keys: {sorted(unknown)}; {label} accepts only {accepted}"
        )
    hints = _type_hints(cls)
    values = dict(given)
    for f in keys:
        if f.name in raw:
            key = f"{where}.{f.name}" if where else f.name
            values[f.name] = _json_value(raw[f.name], hints[f.name], key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{label} is missing {f.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {label} settings: {exc}") from None


def parse_config(payload: object, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a parsed JSON payload and apply defaults."""
    return _read_object(ExperimentConfig, payload, "", base_dir=base_dir)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(payload, base_dir=path.parent)


def load_datasets(config: ExperimentConfig, load_csv: Callable, load_arff: Callable) -> list:
    """``load(path, schema, name=, family=)`` of every configured data set,
    in config order, with ``load`` picked by its format and its path
    resolved against the config's directory; a fault is a DataError naming the data set."""
    base = config.base_dir or Path.cwd()
    loaded = []
    for spec in config.datasets:
        path = base / spec.path  # an absolute path replaces the base
        loader = load_arff if spec.resolved_format() == "arff" else load_csv
        with located(f"dataset {spec.name!r}"):
            try:
                loaded.append(loader(path, spec.schema(), name=spec.name, family=spec.family))
            except OSError as exc:
                raise DataError(str(exc)) from None
    return loaded
