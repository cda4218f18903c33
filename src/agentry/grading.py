"""Question/test data model and the exact-answer grading engine.

Every question kind has an unambiguous key and earns either full weight or
nothing: multiple choice compares as sets, numeric fill-ins compare as
decimals after parsing, text fill-ins compare trimmed and case-folded.
Weights and scores are exact rationals so totals never drift.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Union

from .errors import UnknownQuestionId
from .model import (
    AgentId,
    Ticks,
    _is_int,
    _mistyped,
    agent_column,
    column,
    nested,
    nested_list,
    read_bool,
    read_fraction,
    read_int,
    read_keys,
    read_object,
    read_one_of,
    read_str,
    record,
)

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


def weight_to_jsonable(value: Fraction) -> Union[int, str]:
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _weight(label: str, **options: Any) -> Any:
    """A column holding an exact number, written as an int or "a/b"."""
    return column(read_fraction, label, encode=weight_to_jsonable, **options)


@record(frozen=True, noun="question")
class Question:
    """One exactly-answerable question worth ``weight`` points."""

    id: str = column(read_str, "question id")
    kind: str = column(read_one_of, "question {self.id!r} kind", _KINDS)
    prompt: str = column(read_str, "question prompt", absent="")
    # Read by _check, as what it may hold depends on the kind.
    key: Any = column(encode=lambda key: sorted(key) if isinstance(key, frozenset) else key)
    weight: Fraction = _weight("question {self.id!r} weight")
    options: tuple[str, ...] = column(_read_names, "question options", encode=list, default=(), omit=True)

    def _check(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"question {self.id!r}: weight must be positive")
        if self.kind in _CHOICE_KINDS:
            if not self.options:
                raise ValueError(f"question {self.id!r}: choice question needs options")
            label, last = f"question {self.id!r} key index", len(self.options) - 1
            if self.kind == SINGLE_CHOICE:
                read_int(self.key, label, 0, last)
            elif isinstance(self.key, _INDEX_SETS):
                key = frozenset(read_int(i, label, 0, last) for i in self.key)
                if len(key) != len(self.key):  # a repeat would not read back as written
                    raise _mistyped(f"question {self.id!r} key", "distinct option indices", self.key)
                object.__setattr__(self, "key", key)
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


def test_kind_from_jsonable(d: dict[str, Any]) -> TestKind:
    kind = read_object(d, "test kind")["kind"]
    for cls in (Exam, SelfAssessment):
        if kind == cls._tag:
            return cls.from_jsonable(d)
    raise ValueError(f"unknown test kind {kind!r}")


class TestKind:
    """What a test is: an Exam or a SelfAssessment."""

    _noun = "test kind"
    from_jsonable = staticmethod(test_kind_from_jsonable)


@record(frozen=True, noun="test kind", tag="self_assessment")
class SelfAssessment(TestKind):
    """Pulled by students whenever they choose."""


@record(frozen=True, noun="test kind", tag="exam")
class Exam(TestKind):
    """Pushed to students at a scheduled virtual time."""

    scheduled_at: Ticks = column(read_int, "exam scheduled_at")


@record(frozen=True, noun="test")
class Test:
    id: str = column(read_str, "test id")
    title: str = column(read_str, "test title", absent="")
    questions: tuple[Question, ...] = nested_list(Question, "test questions", tuple)
    kind: TestKind = nested(TestKind, "test kind", default=SelfAssessment())

    def _check(self) -> None:
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


@record(frozen=True, noun="submission")
class Submission:
    """A student's graded answers for one test."""

    test_id: str = column(read_str, "submission test_id")
    student: AgentId = agent_column("submission student")
    answers: dict[str, Any] = column(read_keys, "submission answers")
    score: Fraction = _weight("submission score")
    max_score: Fraction = _weight("submission max_score")
    graded_at: Ticks = column(read_int, "submission graded_at")

    def _check(self) -> None:
        if not 0 <= self.score <= self.max_score:
            raise ValueError("score must lie within [0, max_score]")


@record(frozen=True, noun="report")
class ExamReport:
    """Outcome of one pushed exam: who got it, who was missed, what came back."""

    test_id: str = column(read_str, "report test_id")
    delivered: tuple[str, ...] = column(_read_names, "report delivered", encode=list, absent=())
    missed: tuple[str, ...] = column(_read_names, "report missed", encode=list, absent=())
    submissions: tuple[Submission, ...] = nested_list(Submission, "report submissions", tuple, absent=())

    def _check(self) -> None:
        overlap = set(self.delivered) & set(self.missed)
        if overlap:
            raise ValueError(f"locations both delivered and missed: {sorted(overlap)}")


@record(frozen=True, noun="progress")
class ProgressRecord:
    """The only thing a pull session persists: who, which test, what score,
    when. Deliberately no answer map."""

    student: AgentId = agent_column("progress student")
    test_id: str = column(read_str, "progress test_id")
    score: Fraction = _weight("progress score")
    at: Ticks = column(read_int, "progress at")
