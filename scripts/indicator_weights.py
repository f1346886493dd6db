#!/usr/bin/env python3
"""Rank the 16 indicators by how much trained profile models lean on them.

Runs every cross-family profile prediction the config allows through
``run_plan`` with the ``ifs_our`` method alone, collects the absolute model
weight of each indicator per pair (the matrices are z-scored before
training, so magnitudes are comparable), and prints the indicators ranked by
their mean absolute weight and its sample deviation, which is left empty when
only one pair was scored. Every pair that failed is printed as skipped.

Usage:
    python3 scripts/indicator_weights.py --config demo_corpus/config.json
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import defaultdict

import numpy as np

from cpdp_ifs.experiment import ConfigError, DataError, load_config, run_plan
from cpdp_ifs.learner import coefficient_magnitudes
from cpdp_ifs.predictors import Method
from cpdp_ifs.profiles import INDICATOR_NAMES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument(
        "--top", type=int, default=len(INDICATOR_NAMES), help="how many indicators to print"
    )
    args = parser.parse_args()
    if args.top < 1:
        parser.error(f"--top must be at least 1, not {args.top}")

    try:
        config = dataclasses.replace(load_config(args.config), methods=(Method.IFS_OUR,))
        bundle = run_plan(config)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if bundle.planned_counts[Method.IFS_OUR.value] == 0:
        print("error: no cross-family pairs in this corpus", file=sys.stderr)
        return 1
    for failure in bundle.failures:
        print(
            f"skipped {failure.source}->{failure.target}: {failure.error}",
            file=sys.stderr,
        )

    magnitudes: dict[str, list[float]] = defaultdict(list)
    for outcome in bundle.outcomes:
        for name, magnitude in coefficient_magnitudes(outcome.model):
            magnitudes[name].append(magnitude)
    completed = len(bundle.outcomes)

    if completed == 0:
        print("error: every pair failed to train", file=sys.stderr)
        return 1

    print(f"pairs scored: {completed}")
    print(f"{'indicator':<24} {'mean |weight|':>14} {'sd':>10}")
    ranked = sorted(
        INDICATOR_NAMES, key=lambda name: float(np.mean(magnitudes[name])), reverse=True
    )
    for name in ranked[: args.top]:
        values = np.array(magnitudes[name])
        # A sample deviation needs two pairs; with one the cell stays empty.
        sd = f" {values.std(ddof=1):>10.4f}" if completed > 1 else ""
        print(f"{name:<24} {values.mean():>14.4f}{sd}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
