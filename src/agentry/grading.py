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
from typing import Any, Mapping, Optional, Union

from .errors import UnknownQuestionId
from .model import AgentId, Ticks, _is_int, read_int, read_list, read_object, read_str

SINGLE_CHOICE = "single_choice"
MULTIPLE_CHOICE = "multiple_choice"
TRUE_FALSE = "true_false"
FILL_NUMERIC = "fill_numeric"
FILL_TEXT = "fill_text"

_CHOICE_KINDS = (SINGLE_CHOICE, MULTIPLE_CHOICE)
# What a multiple-choice key or answer may hold its option indices in.
_INDEX_SETS = (list, tuple, set, frozenset)
_KINDS = (SINGLE_CHOICE, MULTIPLE_CHOICE, TRUE_FALSE, FILL_NUMERIC, FILL_TEXT)


def parse_weight(value: Union[int, float, str, Fraction]) -> Fraction:
    """Accept ints, decimal literals, and "a/b" strings; always exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError("weight must be a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


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
        read_str(self.kind, "question kind")
        read_str(self.prompt, "question prompt")
        object.__setattr__(self, "options", tuple(self.options))
        object.__setattr__(self, "weight", parse_weight(self.weight))
        if self.kind not in _KINDS:
            raise ValueError(f"question {self.id!r}: unknown kind {self.kind!r}")
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
            if not isinstance(self.key, bool):
                raise ValueError(f"question {self.id!r}: key must be a boolean")
        elif self.kind == FILL_NUMERIC:
            try:
                decimal.Decimal(str(self.key))
            except decimal.InvalidOperation:
                raise ValueError(f"question {self.id!r}: key must be numeric") from None
        elif self.kind == FILL_TEXT:
            if not isinstance(self.key, str):
                raise ValueError(f"question {self.id!r}: key must be a string")

    def to_jsonable(self) -> dict[str, Any]:
        if self.kind == MULTIPLE_CHOICE:
            key: Any = sorted(self.key)
        else:
            key = self.key
        d: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "prompt": self.prompt,
            "key": key,
            "weight": weight_to_jsonable(self.weight),
        }
        if self.options:
            d["options"] = list(self.options)
        return d

    @classmethod
    def from_jsonable(cls, d: dict[str, Any]) -> "Question":
        return cls(
            id=d["id"],
            kind=d["kind"],
            prompt=d.get("prompt", ""),
            key=d["key"],
            weight=parse_weight(d["weight"]),
            options=read_list(d.get("options", []), "question options"),
        )


@dataclass(frozen=True)
class SelfAssessment:
    """Pulled by students whenever they choose."""

    def to_jsonable(self) -> dict[str, Any]:
        return {"kind": "self_assessment"}


@dataclass(frozen=True)
class Exam:
    """Pushed to students at a scheduled virtual time."""

    scheduled_at: Ticks

    def to_jsonable(self) -> dict[str, Any]:
        return {"kind": "exam", "scheduled_at": self.scheduled_at}


TestKind = Union[SelfAssessment, Exam]


def test_kind_from_jsonable(d: dict[str, Any]) -> TestKind:
    if d["kind"] == "exam":
        return Exam(scheduled_at=read_int(d["scheduled_at"], "exam scheduled_at"))
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
        return cls(
            id=d["id"],
            title=d.get("title", ""),
            questions=[Question.from_jsonable(q) for q in read_list(d["questions"], "test questions")],
            kind=test_kind_from_jsonable(d.get("kind", {"kind": "self_assessment"})),
        )


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
        if isinstance(answer, bool) or answer is None:
            return False
        return _numbers_equal(answer, question.key)
    if question.kind == FILL_TEXT:
        if not isinstance(answer, str):
            return False
        return answer.strip().casefold() == question.key.strip().casefold()
    return False


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
        return cls(
            test_id=d["test_id"],
            student=AgentId(read_int(d["student"], "submission student")),
            answers=read_object(d["answers"], "submission answers"),
            score=parse_weight(d["score"]),
            max_score=parse_weight(d["max_score"]),
            graded_at=d["graded_at"],
        )


@dataclass(frozen=True)
class ExamReport:
    """Outcome of one pushed exam: who got it, who was missed, what came back."""

    test_id: str
    delivered: tuple[str, ...]
    missed: tuple[str, ...]
    submissions: tuple[Submission, ...]

    def __post_init__(self) -> None:
        read_str(self.test_id, "report test_id")
        object.__setattr__(self, "delivered", tuple(self.delivered))
        object.__setattr__(self, "missed", tuple(self.missed))
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
        return cls(
            test_id=d["test_id"],
            delivered=read_list(d.get("delivered", []), "report delivered"),
            missed=read_list(d.get("missed", []), "report missed"),
            submissions=[Submission.from_jsonable(s) for s in read_list(d.get("submissions", []), "report submissions")],
        )


@dataclass(frozen=True)
class ProgressRecord:
    """The only thing a pull session persists: who, which test, what score,
    when. Deliberately no answer map."""

    student: AgentId
    test_id: str
    score: Fraction
    at: Ticks

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "student": self.student.value,
            "test_id": self.test_id,
            "score": weight_to_jsonable(self.score),
            "at": self.at,
        }

    @classmethod
    def from_jsonable(cls, d: dict[str, Any]) -> "ProgressRecord":
        return cls(
            student=AgentId(read_int(d["student"], "progress student")),
            test_id=read_str(d["test_id"], "progress test_id"),
            score=parse_weight(d["score"]),
            at=read_int(d["at"], "progress at"),
        )
