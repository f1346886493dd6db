"""Checks on what the benchmark feeds the program and what the program writes."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# manifest.json echoes the config (``config``) and its hash (``config_hash``).
# Both change with ``--out`` or ``workers`` alone, so they are left out of the
# report digest; everything the run computed stays in.
CONFIG_ECHO = ("config", "config_hash")


class InputMismatch(RuntimeError):
    """Generated inputs differ from the digests recorded for them."""


def file_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every regular file directly in ``directory``, by name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def check_inputs(actual: dict[str, str], expected: dict[str, str], label: str) -> None:
    """Raise :class:`InputMismatch` naming every file that differs."""
    if actual == expected:
        return
    problems = [
        f"{name}: expected {expected.get(name, 'no file')}, got {actual.get(name, 'no file')}"
        for name in sorted(set(actual) | set(expected))
        if actual.get(name) != expected.get(name)
    ]
    raise InputMismatch(
        f"{label}: generated inputs differ from the recorded digests; the generator or "
        "its data changed, so results would compare different data:\n  " + "\n  ".join(problems)
    )


def report_digest(report_dir: Path) -> str:
    """SHA-256 over the result CSVs, ``models/*.json`` and the manifest
    without its config echo. File names are hashed with the contents."""
    digest = hashlib.sha256()
    for path in sorted(report_dir.glob("*.csv")) + sorted(report_dir.glob("models/*.json")):
        digest.update(path.relative_to(report_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    manifest = json.loads((report_dir / "manifest.json").read_text(encoding="utf-8"))
    for key in CONFIG_ECHO:
        manifest.pop(key, None)
    digest.update(json.dumps(manifest, sort_keys=True).encode())
    return digest.hexdigest()


def manifest_counts(report_dir: Path, planned_expected: int) -> tuple[int, list[str]]:
    """Completed pairs from ``manifest.json`` and the problems found in it.

    Completed plus failed must equal the planned pairs, which must equal
    the count the workload plans, with no pair failed.
    """
    manifest = json.loads((report_dir / "manifest.json").read_text(encoding="utf-8"))
    planned = sum(manifest["planned_pairs"].values())
    completed, failed = manifest["completed"], manifest["failed"]
    problems = []
    if completed + failed != planned:
        problems.append(f"completed {completed} + failed {failed} != planned {planned}")
    if planned != planned_expected:
        problems.append(f"planned {planned} pairs, expected {planned_expected}")
    if failed:
        problems.append(f"{failed} pairs failed")
    return completed, problems
