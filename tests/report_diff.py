"""Semantic diff of two report directories: what a re-pin moved.

A digest test says only that report bytes moved. This names what moved:

- each CSV table whose bytes differ, or that only one report holds;
- for each model file in both reports, the largest move of one weight (the
  intercept included) and the weight that moved. A move is relative to the
  old model's largest weight magnitude, so a weight that is zero up to
  rounding, such as that of an indicator z-scoring made constant, does not
  read as a 100% move;
- each model file that only one report holds;
- each method and target whose best source in ``best_per_target.csv``
  changed.

Two identical reports give no line. Usage:

    python tests/report_diff.py OLD NEW

prints one line per difference and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _pair_files(old: Path, new: Path, pattern: str) -> tuple[list[str], list[str]]:
    """Names both reports hold under ``pattern``, and a line per name only one holds."""
    in_old = {p.relative_to(old).as_posix() for p in old.glob(pattern)}
    in_new = {p.relative_to(new).as_posix() for p in new.glob(pattern)}
    only = [f"{name}: only in {old if name in in_old else new}" for name in sorted(in_old ^ in_new)]
    return sorted(in_old & in_new), only


def _weights(path: Path) -> dict[str, float]:
    model = json.loads(path.read_text(encoding="utf-8"))
    return {**dict(zip(model["feature_names"], model["weights"])), "(intercept)": model["intercept"]}


def _best_sources(path: Path) -> dict[tuple[str, str], str]:
    with open(path, newline="", encoding="utf-8") as handle:
        return {(row["method"], row["target"]): row["source"] for row in csv.DictReader(handle)}


def diff_reports(old: str | Path, new: str | Path) -> list[str]:
    """One line per semantic difference between two report directories."""
    old, new = Path(old), Path(new)
    tables, lines = _pair_files(old, new, "*.csv")
    lines += [f"{name}: bytes differ" for name in tables
              if (old / name).read_bytes() != (new / name).read_bytes()]

    models, only = _pair_files(old, new, "models/*.json")
    for name in models:
        before, after = _weights(old / name), _weights(new / name)
        if before.keys() != after.keys():
            lines.append(f"{name}: feature names differ")
            continue
        move, weight = max((abs(after[k] - before[k]), k) for k in before)
        if move:
            scale = max(abs(value) for value in before.values())
            move = move / scale if scale else math.inf
            lines.append(f"{name}: largest relative weight move {move:.3g} ({weight!r})")
    lines += only

    if "best_per_target.csv" in tables:
        before = _best_sources(old / "best_per_target.csv")
        after = _best_sources(new / "best_per_target.csv")
        for method, target in sorted(before.keys() | after.keys()):
            was, now = before.get((method, target)), after.get((method, target))
            if was != now:
                lines.append(f"best_per_target.csv: {method} target {target!r}: "
                             f"best source {was!r} -> {now!r}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/report_diff.py OLD NEW", file=sys.stderr)
        return 2
    lines = diff_reports(*argv)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
