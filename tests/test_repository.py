"""File-backed test repository and the append-only result stores."""

import json
import os
import re
from fractions import Fraction

import pytest

import agentry as ag
from agentry.model import AgentId

from test_grading import random_test
import random


def sample_tests():
    return [
        ag.Test(
            "algebra-1",
            "Algebra basics",
            (
                ag.Question("q1", "single_choice", "?", 0, 2, ("a", "b")),
                ag.Question("q2", "fill_numeric", "?", "0.5", "3/2"),
            ),
        ),
        ag.Test(
            "exam-1",
            "Midterm",
            (ag.Question("q1", "true_false", "?", True, 1),),
            kind=ag.Exam(scheduled_at=10),
        ),
    ]


def test_save_and_load_round_trip(tmp_path):
    path = tmp_path / "repo.json"
    tests = sample_tests()
    ag.save_tests(path, tests)
    assert ag.load_tests(path) == tests


def test_random_repositories_round_trip(tmp_path):
    rng = random.Random(17)
    path = tmp_path / "repo.json"
    for trial in range(20):
        tests = [random_test(rng, f"t{i}") for i in range(rng.randint(0, 5))]
        ag.save_tests(path, tests)
        assert ag.load_tests(path) == tests


def test_empty_file_is_an_empty_repository(tmp_path):
    path = tmp_path / "repo.json"
    path.write_text("")
    assert ag.load_tests(path) == []
    path.write_text("   \n  ")
    assert ag.load_tests(path) == []


def test_missing_file_raises_the_usual_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        ag.load_tests(tmp_path / "nope.json")


def test_invalid_json_is_diagnosed(tmp_path):
    path = tmp_path / "repo.json"
    path.write_text("{not json")
    with pytest.raises(ag.MalformedRepository, match="not valid JSON"):
        ag.load_tests(path)


def test_wrong_top_level_shape_is_diagnosed(tmp_path):
    path = tmp_path / "repo.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ag.MalformedRepository, match="'tests' array"):
        ag.load_tests(path)
    path.write_text(json.dumps({"tests": {"oops": 1}}))
    with pytest.raises(ag.MalformedRepository, match="'tests' array"):
        ag.load_tests(path)


def test_broken_test_entries_are_named(tmp_path):
    path = tmp_path / "repo.json"
    doc = {"tests": [{"id": "broken-1", "title": "x", "questions": []}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ag.MalformedRepository, match="broken-1"):
        ag.load_tests(path)


def test_broken_question_entries_are_named(tmp_path):
    path = tmp_path / "repo.json"
    doc = {
        "tests": [
            {
                "id": "t1",
                "title": "x",
                "questions": [
                    {"id": "q9", "kind": "single_choice", "key": 7, "weight": 1, "options": ["a"]}
                ],
            }
        ]
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ag.MalformedRepository, match="q9"):
        ag.load_tests(path)


@pytest.mark.parametrize("weight", ["1/0", [1], None])
def test_a_bad_weight_is_a_malformed_repository(tmp_path, weight):
    # "1/0" raised ZeroDivisionError and [1] TypeError out of load_tests.
    path = tmp_path / "repo.json"
    entry = sample_tests()[1].to_jsonable()
    entry["questions"][0]["weight"] = weight
    path.write_text(json.dumps({"tests": [entry]}))
    message = f"test 'exam-1': question 'q1' weight must be an int, a finite float, or a decimal or 'a/b' literal, got {weight!r}"
    with pytest.raises(ag.MalformedRepository, match=re.escape(message)):
        ag.load_tests(path)


def test_duplicate_test_ids_are_rejected(tmp_path):
    path = tmp_path / "repo.json"
    entry = sample_tests()[0].to_jsonable()
    path.write_text(json.dumps({"tests": [entry, entry]}))
    with pytest.raises(ag.MalformedRepository, match="duplicate test id"):
        ag.load_tests(path)


def test_find_test(tmp_path):
    path = tmp_path / "repo.json"
    ag.save_tests(path, sample_tests())
    assert ag.find_test(path, "exam-1").kind == ag.Exam(scheduled_at=10)
    with pytest.raises(KeyError):
        ag.find_test(path, "ghost")


# ---------------------------------------------------------------------------
# Result stores
# ---------------------------------------------------------------------------


def test_report_store_appends_and_reads_back(tmp_path):
    store = tmp_path / "reports.jsonl"
    sub = ag.Submission("exam-1", AgentId(4), {"q1": True}, Fraction(1), Fraction(1), 9)
    first = ag.ExamReport("exam-1", ("north",), ("south",), (sub,))
    second = ag.ExamReport("exam-2", (), ("north", "south"), ())
    ag.store_report(first, store)
    ag.store_report(second, store)
    assert ag.load_reports(store) == [first, second]


def test_progress_store_appends_and_reads_back(tmp_path):
    store = tmp_path / "progress.jsonl"
    records = [
        ag.ProgressRecord(AgentId(2), "algebra-1", Fraction(7, 2), at=5),
        ag.ProgressRecord(AgentId(3), "algebra-1", Fraction(0), at=8),
    ]
    for r in records:
        ag.store_progress(r, store)
    assert ag.load_progress(store) == records


def test_stores_ignore_records_of_other_kinds(tmp_path):
    store = tmp_path / "mixed.jsonl"
    report = ag.ExamReport("exam-1", (), (), ())
    progress = ag.ProgressRecord(AgentId(1), "t", Fraction(1), at=0)
    ag.store_report(report, store)
    ag.store_progress(progress, store)
    assert ag.load_reports(store) == [report]
    assert ag.load_progress(store) == [progress]


def test_missing_store_reads_as_empty(tmp_path):
    assert ag.load_reports(tmp_path / "none.jsonl") == []
    assert ag.load_progress(tmp_path / "none.jsonl") == []


def test_store_lines_are_plain_jsonl(tmp_path):
    store = tmp_path / "reports.jsonl"
    ag.store_report(ag.ExamReport("exam-1", (), (), ()), store)
    lines = store.read_text().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["record"] == "exam_report"
    assert row["test_id"] == "exam-1"


def test_a_store_path_must_be_a_path_not_a_file_descriptor(tmp_path):
    # A scenario's push.finalize passes its "store" parameter through as is;
    # an int there used to be opened as a file descriptor, written and closed.
    with open(tmp_path / "spare", "w") as spare:
        fd = spare.fileno()
        with pytest.raises(TypeError):
            ag.store_report(ag.ExamReport("exam-1", (), (), ()), fd)
        with pytest.raises(TypeError):
            ag.store_progress(ag.ProgressRecord(AgentId(1), "t", Fraction(1), at=0), fd)
        os.fstat(fd)  # still open
    assert (tmp_path / "spare").read_text() == ""
