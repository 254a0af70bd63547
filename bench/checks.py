"""Correctness checks on the files one benchmark operation writes.

An operation passes when every expected file exists, no run recorded a
fault, every number in its CSV and JSON files is finite, and (checked by the
caller) each file's SHA-256 matches the stored or first-seen hash.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

# Figures embed the command line; they are checked for presence, not hashed.
UNHASHED_SUFFIX = ".svg"
CSV_FIELDS = 11
CSV_FLOAT_FIELDS = 9
CSV_FAULT_FIELD = 10


@dataclass
class OutputCheck:
    out_bytes: int = 0
    hashes: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def check_outputs(out_dir: str, expected: tuple[str, ...]) -> OutputCheck:
    result = OutputCheck()
    present = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
    for name in expected:
        if name not in present:
            result.problems.append(f"{name}: missing")
            continue
        path = os.path.join(out_dir, name)
        result.out_bytes += os.path.getsize(path)
        if name.endswith(".csv"):
            _check_csv(path, name, result)
        elif name.endswith(".json"):
            _check_json(path, name, result)
        if not name.endswith(UNHASHED_SUFFIX):
            result.hashes[name] = sha256_file(path)
    for name in sorted(present - set(expected)):
        result.problems.append(f"{name}: unexpected output")
    return result


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_csv(path: str, name: str, result: OutputCheck) -> None:
    rows = 0
    with open(path) as fh:
        fh.readline()  # header
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != CSV_FIELDS:
                result.problems.append(f"{name}:{lineno}: {len(parts)} fields")
                return
            try:
                finite = all(math.isfinite(float(v)) for v in parts[:CSV_FLOAT_FIELDS])
            except ValueError:
                finite = False
            if not finite:
                result.problems.append(f"{name}:{lineno}: non-finite or non-numeric value")
                return
            if parts[CSV_FAULT_FIELD] != "0":
                result.problems.append(f"{name}:{lineno}: fault recorded")
                return
            rows += 1
    if rows == 0:
        result.problems.append(f"{name}: no rows")


def _check_json(path: str, name: str, result: OutputCheck) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    result.problems.extend(f"{name}: {p}" for p in json_problems(doc))


def json_problems(node, where: str = "$") -> list[str]:
    """Non-finite numbers anywhere, and any non-null `fault` or non-zero
    `fault_count` field."""
    problems = []
    if isinstance(node, dict):
        for key, value in node.items():
            at = f"{where}.{key}"
            if key == "fault" and value is not None:
                problems.append(f"{at}: fault {value!r}")
            elif key == "fault_count" and value != 0:
                problems.append(f"{at}: {value} faults")
            problems.extend(json_problems(value, at))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            problems.extend(json_problems(value, f"{where}[{i}]"))
    elif isinstance(node, float) and not math.isfinite(node):
        problems.append(f"{where}: non-finite {node!r}")
    return problems
