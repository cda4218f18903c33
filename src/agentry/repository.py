"""File-backed persistence: the test repository and the results stores.

The repository is one JSON document holding tests; results and progress
records are append-only JSON Lines. Loading validates every invariant and
reports schema violations with question-level diagnostics.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .errors import MalformedRepository
from .grading import ExamReport, ProgressRecord, Test

PathLike = Union[str, Path]

REPOSITORY_FORMAT_VERSION = 1


def load_tests(path: PathLike) -> list[Test]:
    """Read every test in the repository file; an empty file is an empty
    repository. Schema violations raise MalformedRepository naming the
    offending test or question."""
    text = Path(path).read_text()
    if not text.strip():
        return []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRepository(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("tests", []), list):
        raise MalformedRepository(f"{path}: expected an object with a 'tests' array")
    tests = []
    for i, entry in enumerate(doc.get("tests", [])):
        label = entry.get("id", f"#{i}") if isinstance(entry, dict) else f"#{i}"
        try:
            tests.append(Test.from_jsonable(entry))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRepository(f"{path}: test {label!r}: {exc}") from None
    seen = set()
    for test in tests:
        if test.id in seen:
            raise MalformedRepository(f"{path}: duplicate test id {test.id!r}")
        seen.add(test.id)
    return tests


def save_tests(path: PathLike, tests: list[Test]) -> None:
    doc = {
        "format_version": REPOSITORY_FORMAT_VERSION,
        "tests": [t.to_jsonable() for t in tests],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def find_test(path: PathLike, test_id: str) -> Test:
    for test in load_tests(path):
        if test.id == test_id:
            return test
    raise KeyError(f"no test {test_id!r} in {path}")


# ---------------------------------------------------------------------------
# Append-only result stores (JSON Lines)
# ---------------------------------------------------------------------------


def _append_line(path: PathLike, record: dict) -> None:
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    # Path() refuses an int, which open() would take as a file descriptor.
    with Path(path).open("a") as fh:
        fh.write(line + "\n")


def _read_lines(path: PathLike) -> list[dict]:
    target = Path(path)
    if not target.exists():
        return []
    return [json.loads(line) for line in target.read_text().splitlines() if line.strip()]


def store_report(report: ExamReport, store: PathLike) -> None:
    _append_line(store, {"record": "exam_report", **report.to_jsonable()})


def load_reports(store: PathLike) -> list[ExamReport]:
    return [
        ExamReport.from_jsonable(row)
        for row in _read_lines(store)
        if row.get("record") == "exam_report"
    ]


def store_progress(record: ProgressRecord, store: PathLike) -> None:
    _append_line(store, {"record": "progress", **record.to_jsonable()})


def load_progress(store: PathLike) -> list[ProgressRecord]:
    return [
        ProgressRecord.from_jsonable(row)
        for row in _read_lines(store)
        if row.get("record") == "progress"
    ]
