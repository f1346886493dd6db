"""Synthetic project generators, and the reader of saved models, shared by
the test modules."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from cpdp_ifs.config import LearnerParams
from cpdp_ifs.corpus import FeatureSchema, Project
from cpdp_ifs.learner import Model, TrainingMeta
from make_demo_corpus import planted_matrix, write_arff, write_csv


def planted_project(
    rng: np.random.Generator,
    name: str,
    family: str,
    n_features: int,
    n_instances: int,
    defect_rate: float = 0.3,
    signal: float = 1.5,
    feature_names: tuple[str, ...] | None = None,
) -> Project:
    """A project whose defective instances have a subset of inflated metrics."""
    matrix, labels = planted_matrix(rng, n_instances, n_features, defect_rate, signal)
    if feature_names is None:
        feature_names = tuple(f"{family}_m{i}" for i in range(n_features))
    schema = FeatureSchema(feature_names=feature_names, label_column="bug")
    return Project(name=name, dataset_family=family, schema=schema, matrix=matrix, labels=labels)


def write_project_csv(path: Path, project: Project) -> None:
    write_csv(path, project.schema.feature_names, project.matrix, project.labels)


def write_project_arff(path: Path, project: Project) -> None:
    write_arff(path, project.name, project.schema.feature_names, project.matrix, project.labels)


def corpus_projects(seed: int = 42) -> list[Project]:
    """Three families with partially overlapping metric names.

    Every family shares the 'loc' and 'cbo' columns, so the intersection
    route works across families while each family keeps private metrics.
    """
    rng = np.random.default_rng(seed)
    shared = ("loc", "cbo")
    layout = [
        ("fam_a", 3, 8, 110),
        ("fam_b", 3, 6, 90),
        ("fam_c", 2, 10, 70),
    ]
    projects = []
    for family, count, n_features, base_m in layout:
        names = shared + tuple(f"{family}_m{i}" for i in range(n_features - len(shared)))
        for k in range(count):
            projects.append(
                planted_project(
                    rng,
                    name=f"{family}_p{k}",
                    family=family,
                    n_features=n_features,
                    n_instances=base_m + 10 * k,
                    defect_rate=0.25 + 0.05 * k,
                    feature_names=names,
                )
            )
    return projects


def write_corpus(tmp_path: Path, seed: int = 42, arff_for: str = "fam_b_p0") -> Path:
    """Materialize the synthetic corpus plus a config file; returns the config path."""
    projects = corpus_projects(seed)
    specs = []
    for project in projects:
        if project.name == arff_for:
            file_name = f"{project.name}.arff"
            write_project_arff(tmp_path / file_name, project)
        else:
            file_name = f"{project.name}.csv"
            write_project_csv(tmp_path / file_name, project)
        specs.append({"name": project.name, "path": file_name, "family": project.dataset_family})
    config = {
        "datasets": specs,
        "methods": ["cpdp_pure", "ifs_our", "ifs_min", "mix"],
        "workers": 2,
        "output_dir": str(tmp_path / "report"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path


def load_model(path: str | Path) -> Model:
    """The model that ``learner.save_model`` wrote to ``path``."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return Model(
        weights=np.array(payload["weights"], dtype=float),
        intercept=float(payload["intercept"]),
        feature_names=tuple(payload["feature_names"]),
        params=LearnerParams(**payload["params"]),
        meta=TrainingMeta(
            iterations=payload["meta"]["iterations"],
            final_log_likelihood=payload["meta"]["final_log_likelihood"],
            converged=payload["meta"]["converged"],
            objective_history=tuple(payload["meta"]["objective_history"]),
        ),
    )
