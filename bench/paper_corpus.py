"""Paper-shaped synthetic corpus for the benchmark.

Thirteen projects in three families whose widths follow the public corpora
the method was evaluated on: five projects of 20 metrics (PROMISE width),
five of 61 (AEEEM width) and three of 26 (ReLink width). The first two
families share six CK-style metric names; the third shares only ``loc``
with them, so ``ifs_min`` meets intersections of size 6 and size 1.

Self-contained on purpose: the benchmark's inputs must not change when the
generators under ``scripts/`` or ``tests/`` are edited.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SHARED_CK = ("loc", "wmc", "dit", "noc", "cbo", "rfc")

FAMILIES = (
    # family, projects, metrics, metric names shared with other families
    ("promise", 5, 20, SHARED_CK),
    ("aeeem", 5, 61, SHARED_CK),
    ("relink", 3, 26, ("loc",)),
)

# Row counts per project, spread evenly over this range within each family.
# The paper's corpora hold about 200-1250 rows per project; this range is a
# fifth of that, so one `run` of the unoptimised profile route fits several
# times into a benchmark run. The counts do not depend on the seed, so every
# seed gives the program the same amount of work.
ROWS = (40, 250)


def _metric_names(family: str, width: int, shared: tuple[str, ...]) -> tuple[str, ...]:
    return shared + tuple(f"{family}_m{i}" for i in range(width - len(shared)))


def _project(
    rng: np.random.Generator, n_rows: int, width: int, defect_rate: float
) -> tuple[np.ndarray, np.ndarray]:
    # Metrics of different magnitudes, as real size and coupling metrics have.
    scales = rng.uniform(0.5, 40.0, size=width)
    matrix = rng.gamma(2.0, 1.0, size=(n_rows, width)) * scales
    labels = (rng.random(n_rows) < defect_rate).astype(int)
    # At least two rows of each class, so every project trains and scores.
    labels[:2] = 1
    labels[2:4] = 0
    planted = rng.choice(width, size=max(1, width // 3), replace=False)
    matrix[np.ix_(labels == 1, planted)] *= 2.5
    return matrix, labels


def write_corpus(out: Path, seed: int, methods: list[str], output_dir: str) -> Path:
    """Write every project as CSV plus a config; return the config path.

    The config names only ``datasets``, ``methods`` and ``output_dir``.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    specs = []
    for family, count, width, shared in FAMILIES:
        names = _metric_names(family, width, shared)
        for k in range(count):
            name = f"{family}_p{k}"
            n_rows = ROWS[0] + round(k * (ROWS[1] - ROWS[0]) / (count - 1))
            matrix, labels = _project(rng, n_rows, width, float(rng.uniform(0.15, 0.35)))
            lines = [",".join(names + ("bug",))]
            lines.extend(
                ",".join(f"{v:.6f}" for v in row) + f",{label}" for row, label in zip(matrix, labels)
            )
            (out / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            specs.append({"name": name, "path": f"{name}.csv", "family": family})
    config = {"datasets": specs, "methods": methods, "output_dir": output_dir}
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path
