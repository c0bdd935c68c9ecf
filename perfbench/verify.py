"""Output checks for one pipeline run directory, independent of seqcal's
own readers, and the digest that compares runs byte for byte."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from tracing import METHODS

REPORTS = ("ece.csv", "corr.csv", "roc.csv", "abstention.csv", "summary.csv", "gaps.csv")


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def _numbers(value):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)


def _test_ids(run_dir) -> list[str]:
    with open(os.path.join(run_dir, "test.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line)["id"] for line in fh if line.strip()]


def check_predictions(path, test_ids) -> list[str]:
    """Problems with one prediction file: it must hold exactly one record per
    test example, and every number in it must be finite."""
    problems = []
    seen = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line, parse_constant=_reject_constant)
                except ValueError as exc:
                    problems.append(f"{path}:{lineno}: {exc}")
                    continue
                if not isinstance(record, dict) or "id" not in record:
                    problems.append(f"{path}:{lineno}: not a prediction record")
                    continue
                if not all(math.isfinite(x) for x in _numbers(record)):
                    problems.append(f"{path}:{lineno}: non-finite number")
                seen.append(record["id"])
    except OSError as exc:
        return [f"{path}: {exc}"]
    if len(seen) != len(set(seen)):
        problems.append(f"{path}: duplicate ids")
    if sorted(seen) != sorted(test_ids):
        problems.append(f"{path}: {len(seen)} records for {len(test_ids)} test examples")
    return problems


def check_report(path) -> list[str]:
    """Problems with one CSV report: present, a header, rows as wide as it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        return [f"{path}: {exc}"]
    if not rows or not rows[0]:
        return [f"{path}: no header"]
    width = len(rows[0])
    bad = [i for i, row in enumerate(rows[1:], 2) if len(row) != width]
    return [f"{path}:{i}: {len(rows[i - 1])} fields, header has {width}" for i in bad]


def verify_run(run_dir) -> list[str]:
    """Every problem found in a finished run directory; empty means it passes."""
    try:
        test_ids = _test_ids(run_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"test split unreadable: {exc}"]
    problems = []
    for method in METHODS:
        problems += check_predictions(os.path.join(run_dir, "preds", f"{method}.jsonl"), test_ids)
    for name in REPORTS:
        problems += check_report(os.path.join(run_dir, "reports", name))
    return problems


def output_digest(run_dir) -> str:
    """SHA-256 over every file under preds/ and reports/, by relative path."""
    h = hashlib.sha256()
    for sub in ("preds", "reports"):
        base = os.path.join(run_dir, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, run_dir).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
                h.update(b"\0")
    return h.hexdigest()
