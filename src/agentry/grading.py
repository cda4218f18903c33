"""Question/test data model and the exact-answer grading engine.

Every question kind has an unambiguous key and earns either full weight or
nothing: multiple choice compares as sets, numeric fill-ins compare as
decimals after parsing, text fill-ins compare trimmed and case-folded.
Weights and scores are exact rationals so totals never drift.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Union

from .errors import UnknownQuestionId
from .model import AgentId, Ticks, _is_int, _mistyped, read_bool, read_fraction, read_int, read_list, read_object, read_one_of, read_str

SINGLE_CHOICE = "single_choice"
MULTIPLE_CHOICE = "multiple_choice"
TRUE_FALSE = "true_false"
FILL_NUMERIC = "fill_numeric"
FILL_TEXT = "fill_text"

_CHOICE_KINDS = (SINGLE_CHOICE, MULTIPLE_CHOICE)
# What a multiple-choice key or answer may hold its option indices in.
_INDEX_SETS = (list, tuple, set, frozenset)
_KINDS = (SINGLE_CHOICE, MULTIPLE_CHOICE, TRUE_FALSE, FILL_NUMERIC, FILL_TEXT)


def _read_names(values: Any, label: str) -> tuple[str, ...]:
    """A list or tuple of strings, as a tuple."""
    if not isinstance(values, (list, tuple)):
        raise _mistyped(label, "a list", values)
    return tuple(read_str(value, f"{label} entry") for value in values)


def _read_student(student: Any, label: str) -> None:
    """An AgentId holding an int, as the decoders build it."""
    if not isinstance(student, AgentId):
        raise _mistyped(label, "an AgentId", student)
    read_int(student.value, label)


def weight_to_jsonable(value: Fraction) -> Union[int, str]:
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Question:
    """One exactly-answerable question worth ``weight`` points."""

    id: str
    kind: str
    prompt: str
    key: Any
    weight: Fraction
    options: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        read_str(self.id, "question id")
        read_one_of(self.kind, f"question {self.id!r} kind", _KINDS)
        read_str(self.prompt, "question prompt")
        object.__setattr__(self, "options", _read_names(self.options, "question options"))
        object.__setattr__(self, "weight", read_fraction(self.weight, f"question {self.id!r} weight"))
        if self.weight <= 0:
            raise ValueError(f"question {self.id!r}: weight must be positive")
        if self.kind in _CHOICE_KINDS:
            if not self.options:
                raise ValueError(f"question {self.id!r}: choice question needs options")
            label, last = f"question {self.id!r} key index", len(self.options) - 1
            if self.kind == SINGLE_CHOICE:
                read_int(self.key, label, 0, last)
            elif isinstance(self.key, _INDEX_SETS):
                object.__setattr__(self, "key", frozenset(read_int(i, label, 0, last) for i in self.key))
            else:
                raise ValueError(f"question {self.id!r}: key must be a list of option indices, got {self.key!r}")
        elif self.kind == TRUE_FALSE:
            read_bool(self.key, f"question {self.id!r} key")
        elif self.kind == FILL_NUMERIC:
            try:
                finite = decimal.Decimal(str(self.key)).is_finite()
            except decimal.InvalidOperation:
                finite = False
            if not finite:  # NaN equals nothing, so no answer could match it
                raise _mistyped(f"question {self.id!r} key", "a finite decimal", self.key)
        else:
            read_str(self.key, f"question {self.id!r} key")

    def to_jsonable(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "prompt": self.prompt,
            "key": sorted(self.key) if self.kind == MULTIPLE_CHOICE else self.key,
            "weight": weight_to_jsonable(self.weight),
        }
        if self.options:
            d["options"] = list(self.options)
        return d

    @classmethod
    def from_jsonable(cls, d: dict[str, Any]) -> "Question":
        return cls(read_object(d, "question")["id"], d["kind"], d.get("prompt", ""), d["key"], d["weight"], d.get("options", []))


@dataclass(frozen=True)
class SelfAssessment:
    """Pulled by students whenever they choose."""

    def to_jsonable(self) -> dict[str, Any]:
        return {"kind": "self_assessment"}


@dataclass(frozen=True)
class Exam:
    """Pushed to students at a scheduled virtual time."""

    scheduled_at: Ticks

    def __post_init__(self) -> None:
        read_int(self.scheduled_at, "exam scheduled_at")

    def to_jsonable(self) -> dict[str, Any]:
        return {"kind": "exam", "scheduled_at": self.scheduled_at}


TestKind = Union[SelfAssessment, Exam]


def test_kind_from_jsonable(d: dict[str, Any]) -> TestKind:
    if read_object(d, "test kind")["kind"] == "exam":
        return Exam(scheduled_at=d["scheduled_at"])
    if d["kind"] == "self_assessment":
        return SelfAssessment()
    raise ValueError(f"unknown test kind {d['kind']!r}")


@dataclass(frozen=True)
class Test:
    id: str
    title: str
    questions: tuple[Question, ...]
    kind: TestKind = field(default_factory=SelfAssessment)

    def __post_init__(self) -> None:
        read_str(self.id, "test id")
        read_str(self.title, "test title")
        object.__setattr__(self, "questions", tuple(self.questions))
        if not self.questions:
            raise ValueError(f"test {self.id!r}: needs at least one question")
        seen = set()
        for q in self.questions:
            if q.id in seen:
                raise ValueError(f"test {self.id!r}: duplicate question id {q.id!r}")
            seen.add(q.id)

    @property
    def total_weight(self) -> Fraction:
        return sum((q.weight for q in self.questions), Fraction(0))

    def question(self, qid: str) -> Question:
        for q in self.questions:
            if q.id == qid:
                return q
        raise UnknownQuestionId(f"test {self.id!r} has no question {qid!r}")

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "title": self.title,
            "kind": self.kind.to_jsonable(),
            "questions": [q.to_jsonable() for q in self.questions],
        }

    @classmethod
    def from_jsonable(cls, d: dict[str, Any]) -> "Test":
        d = read_object(d, "test")
        questions = [Question.from_jsonable(q) for q in read_list(d["questions"], "test questions")]
        return cls(d["id"], d.get("title", ""), questions, test_kind_from_jsonable(d.get("kind", {"kind": "self_assessment"})))


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------


def _numbers_equal(a: Any, b: Any) -> bool:
    try:
        return decimal.Decimal(str(a)) == decimal.Decimal(str(b))
    except decimal.InvalidOperation:
        return False


def answer_matches(question: Question, answer: Any) -> bool:
    """Full credit test for one answer; wrong shape simply earns nothing."""
    if question.kind == SINGLE_CHOICE:
        return _is_int(answer) and answer == question.key
    if question.kind == MULTIPLE_CHOICE:
        return isinstance(answer, _INDEX_SETS) and all(_is_int(i) for i in answer) and frozenset(answer) == question.key
    if question.kind == TRUE_FALSE:
        return isinstance(answer, bool) and answer == question.key
    if question.kind == FILL_NUMERIC:
        return not isinstance(answer, bool) and answer is not None and _numbers_equal(answer, question.key)
    return isinstance(answer, str) and answer.strip().casefold() == question.key.strip().casefold()  # FILL_TEXT


@dataclass(frozen=True)
class GradeResult:
    score: Fraction
    max_score: Fraction
    breakdown: dict[str, Fraction]


def grade(test: Test, answers: Mapping[str, Any]) -> GradeResult:
    """Score an answer map: full weight per exactly-matching answer, zero
    otherwise; unanswered questions score zero. Answers for question ids the
    test does not contain signal a client bug and are rejected."""
    known = {q.id for q in test.questions}
    for qid in answers:
        if qid not in known:
            raise UnknownQuestionId(f"answer for unknown question {qid!r}")
    breakdown: dict[str, Fraction] = {}
    for q in test.questions:
        if q.id in answers and answer_matches(q, answers[q.id]):
            breakdown[q.id] = q.weight
        else:
            breakdown[q.id] = Fraction(0)
    score = sum(breakdown.values(), Fraction(0))
    return GradeResult(score=score, max_score=test.total_weight, breakdown=breakdown)


# ---------------------------------------------------------------------------
# Submissions and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Submission:
    """A student's graded answers for one test."""

    test_id: str
    student: AgentId
    answers: dict[str, Any]
    score: Fraction
    max_score: Fraction
    graded_at: Ticks

    def __post_init__(self) -> None:
        read_str(self.test_id, "submission test_id")
        _read_student(self.student, "submission student")
        read_object(self.answers, "submission answers")
        object.__setattr__(self, "score", read_fraction(self.score, "submission score"))
        object.__setattr__(self, "max_score", read_fraction(self.max_score, "submission max_score"))
        read_int(self.graded_at, "submission graded_at")
        if not 0 <= self.score <= self.max_score:
            raise ValueError("score must lie within [0, max_score]")

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "test_id": self.test_id,
            "student": self.student.value,
            "answers": self.answers,
            "score": weight_to_jsonable(self.score),
            "max_score": weight_to_jsonable(self.max_score),
            "graded_at": self.graded_at,
        }

    @classmethod
    def from_jsonable(cls, d: dict[str, Any]) -> "Submission":
        return cls(read_object(d, "submission")["test_id"], AgentId(d["student"]), d["answers"], d["score"], d["max_score"], d["graded_at"])


@dataclass(frozen=True)
class ExamReport:
    """Outcome of one pushed exam: who got it, who was missed, what came back."""

    test_id: str
    delivered: tuple[str, ...]
    missed: tuple[str, ...]
    submissions: tuple[Submission, ...]

    def __post_init__(self) -> None:
        read_str(self.test_id, "report test_id")
        object.__setattr__(self, "delivered", _read_names(self.delivered, "report delivered"))
        object.__setattr__(self, "missed", _read_names(self.missed, "report missed"))
        object.__setattr__(self, "submissions", tuple(self.submissions))
        overlap = set(self.delivered) & set(self.missed)
        if overlap:
            raise ValueError(f"locations both delivered and missed: {sorted(overlap)}")

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "test_id": self.test_id,
            "delivered": list(self.delivered),
            "missed": list(self.missed),
            "submissions": [s.to_jsonable() for s in self.submissions],
        }

    @classmethod
    def from_jsonable(cls, d: dict[str, Any]) -> "ExamReport":
        d = read_object(d, "report")
        submissions = [Submission.from_jsonable(s) for s in read_list(d.get("submissions", []), "report submissions")]
        return cls(d["test_id"], d.get("delivered", []), d.get("missed", []), submissions)


@dataclass(frozen=True)
class ProgressRecord:
    """The only thing a pull session persists: who, which test, what score,
    when. Deliberately no answer map."""

    student: AgentId
    test_id: str
    score: Fraction
    at: Ticks

    def __post_init__(self) -> None:
        _read_student(self.student, "progress student")
        read_str(self.test_id, "progress test_id")
        object.__setattr__(self, "score", read_fraction(self.score, "progress score"))
        read_int(self.at, "progress at")

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "student": self.student.value,
            "test_id": self.test_id,
            "score": weight_to_jsonable(self.score),
            "at": self.at,
        }

    @classmethod
    def from_jsonable(cls, d: dict[str, Any]) -> "ProgressRecord":
        return cls(AgentId(read_object(d, "progress")["student"]), d["test_id"], d["score"], d["at"])
