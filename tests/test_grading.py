"""Question model and grading engine.

The oracle at the top restates the credit rules from scratch; the engine is
judged against it on randomized tests further down. test_acceptance leans on
the same generator and oracle at a larger case count.
"""

import decimal
import re
import random
import time
from fractions import Fraction

import pytest

import agentry as ag
from agentry.grading import (
    FILL_NUMERIC,
    FILL_TEXT,
    MULTIPLE_CHOICE,
    SINGLE_CHOICE,
    TRUE_FALSE,
    test_kind_from_jsonable as kind_from_jsonable,
)
from agentry.model import AgentId, read_fraction


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------


def oracle_credit(question, answer):
    """Reference restatement of the credit rules: full weight for an exact
    match in the kind's own comparison space, nothing otherwise."""
    if question.kind == SINGLE_CHOICE:
        return type(answer) is int and answer == question.key
    if question.kind == MULTIPLE_CHOICE:
        if not isinstance(answer, (list, tuple, set, frozenset)):
            return False
        if any(type(element) is not int for element in answer):
            return False
        return set(answer) == set(question.key)
    if question.kind == TRUE_FALSE:
        return type(answer) is bool and answer == question.key
    if question.kind == FILL_NUMERIC:
        if type(answer) is bool or answer is None:
            return False
        try:
            return decimal.Decimal(str(answer)) == decimal.Decimal(str(question.key))
        except decimal.InvalidOperation:
            return False
    if question.kind == FILL_TEXT:
        if not isinstance(answer, str):
            return False
        return answer.strip().casefold() == question.key.strip().casefold()
    return False


def oracle_grade(test, answers):
    breakdown = {}
    for q in test.questions:
        credited = q.id in answers and oracle_credit(q, answers[q.id])
        breakdown[q.id] = q.weight if credited else Fraction(0)
    return sum(breakdown.values(), Fraction(0)), breakdown


# ---------------------------------------------------------------------------
# Random test and answer generation (shared with the acceptance suite)
# ---------------------------------------------------------------------------

_WEIGHTS = [1, 2, 3, "1/2", "3/2", "2/3", 1.5, 0.25]
_NUMERIC_KEYS = ["0.5", "2", "-3.25", "10", "0.125"]
_TEXT_KEYS = ["alpha", "Beta", " gamma ", "Straße"]


def random_question(rng, qid):
    kind = rng.choice([SINGLE_CHOICE, MULTIPLE_CHOICE, TRUE_FALSE, FILL_NUMERIC, FILL_TEXT])
    weight = rng.choice(_WEIGHTS)
    if kind in (SINGLE_CHOICE, MULTIPLE_CHOICE):
        options = tuple(f"opt{i}" for i in range(rng.randint(2, 5)))
        if kind == SINGLE_CHOICE:
            key = rng.randrange(len(options))
        else:
            key = sorted(rng.sample(range(len(options)), rng.randint(1, len(options))))
        return ag.Question(qid, kind, "?", key, weight, options)
    if kind == TRUE_FALSE:
        key = rng.random() < 0.5
    elif kind == FILL_NUMERIC:
        key = rng.choice(_NUMERIC_KEYS)
    else:
        key = rng.choice(_TEXT_KEYS)
    return ag.Question(qid, kind, "?", key, weight)


def random_test(rng, test_id="t"):
    n = rng.randint(1, 6)
    return ag.Test(test_id, "generated", tuple(random_question(rng, f"q{i}") for i in range(n)))


def _correct_answer(rng, q):
    if q.kind == SINGLE_CHOICE:
        return q.key
    if q.kind == MULTIPLE_CHOICE:
        chosen = list(q.key)
        rng.shuffle(chosen)
        shape = rng.choice(["list", "tuple", "set", "frozenset", "dupes"])
        if shape == "tuple":
            return tuple(chosen)
        if shape == "set":
            return set(chosen)
        if shape == "frozenset":
            return frozenset(chosen)
        if shape == "dupes":
            return chosen + chosen[:1]
        return chosen
    if q.kind == TRUE_FALSE:
        return q.key
    if q.kind == FILL_NUMERIC:
        variant = rng.choice(["verbatim", "float", "padded", "signed"])
        if variant == "float":
            return float(q.key)
        if variant == "padded":
            return q.key + "0" if "." in q.key else q.key + ".0"
        if variant == "signed" and not q.key.startswith("-"):
            return "+" + q.key
        return q.key
    return rng.choice([q.key, q.key.upper(), f"  {q.key} "])


def _wrong_answer(rng, q):
    if rng.random() < 0.4:
        # Wrong shape entirely.
        return rng.choice([None, "x", [], {"a": 1}, 3.7, True])
    if q.kind == SINGLE_CHOICE:
        return q.key + 1
    if q.kind == MULTIPLE_CHOICE:
        universe = range(len(q.options) + 1)
        while True:
            guess = set(rng.sample(universe, rng.randint(0, len(universe))))
            if guess != set(q.key):
                return sorted(guess)
    if q.kind == TRUE_FALSE:
        return not q.key
    if q.kind == FILL_NUMERIC:
        return "123456"
    return q.key + "x"


def random_answers(rng, test):
    answers = {}
    for q in test.questions:
        roll = rng.random()
        if roll < 0.2:
            continue  # left blank
        answers[q.id] = _correct_answer(rng, q) if roll < 0.65 else _wrong_answer(rng, q)
    return answers


@pytest.mark.parametrize("seed", range(8))
def test_grade_matches_the_oracle_on_random_tests(seed):
    rng = random.Random(seed)
    for _ in range(50):
        test = random_test(rng)
        answers = random_answers(rng, test)
        want_score, want_breakdown = oracle_grade(test, answers)
        got = ag.grade(test, answers)
        assert got.score == want_score
        assert got.max_score == test.total_weight
        assert got.breakdown == want_breakdown


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def test_read_fraction_forms():
    assert read_fraction(3, "weight") == Fraction(3)
    assert read_fraction(1.5, "weight") == Fraction(3, 2)
    assert read_fraction(0.3, "weight") == Fraction(3, 10)  # the literal, not the double
    assert read_fraction("3/4", "weight") == Fraction(3, 4)
    assert read_fraction("2.5", "weight") == Fraction(5, 2)
    assert read_fraction(Fraction(7, 3), "weight") == Fraction(7, 3)


def test_read_fraction_rejects_booleans_and_garbage():
    for value in [True, False, "three", "1/0", [1], None, float("nan"), float("inf"), "nan", "-inf"]:
        message = f"weight must be an int, a finite float, or a decimal or 'a/b' literal, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_fraction(value, "weight")


def test_read_fraction_rejects_a_literal_past_its_bounds_quickly():
    # Fraction builds 10**exponent, so the first one stalled the reader.
    start = time.perf_counter()
    for value in ["1e999999999", "1E-1001", "1" * 1001, "1e1_001"]:
        message = f"weight must be an int, a finite float, or a decimal or 'a/b' literal, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_fraction(value, "weight")
    assert time.perf_counter() - start < 1
    assert read_fraction("2e3", "weight") == 2000 and read_fraction("1e-1000", "weight") == Fraction(1, 10**1000)
    assert read_fraction("1" * 1000, "weight") == int("1" * 1000)


def test_weight_jsonable_round_trips():
    for w in [Fraction(3), Fraction(3, 2), Fraction(-1, 4), Fraction(0)]:
        assert read_fraction(ag.weight_to_jsonable(w), "weight") == w
    assert ag.weight_to_jsonable(Fraction(3)) == 3
    assert ag.weight_to_jsonable(Fraction(3, 2)) == "3/2"


# ---------------------------------------------------------------------------
# Question validation and serialization
# ---------------------------------------------------------------------------


def q(kind, key, options=(), weight=1):
    return ag.Question("q1", kind, "?", key, weight, tuple(options))


def test_question_rejects_unknown_kind():
    with pytest.raises(ValueError):
        q("essay", "anything")


def test_question_rejects_non_positive_weight():
    with pytest.raises(ValueError):
        q(TRUE_FALSE, True, weight=0)
    with pytest.raises(ValueError):
        q(TRUE_FALSE, True, weight="-1/2")


def test_choice_question_needs_options():
    with pytest.raises(ValueError):
        q(SINGLE_CHOICE, 0)


def test_choice_key_must_index_the_options():
    with pytest.raises(ValueError):
        q(SINGLE_CHOICE, 5, options=("a", "b", "c"))
    with pytest.raises(ValueError):
        q(MULTIPLE_CHOICE, [-1], options=("a", "b"))
    with pytest.raises(ValueError):
        q(SINGLE_CHOICE, "a", options=("a", "b"))


@pytest.mark.parametrize(
    "kind, key, message",
    [
        (SINGLE_CHOICE, "1", "question 'q1' key index must be an integer from 0 to 2, got '1'"),
        (SINGLE_CHOICE, True, "question 'q1' key index must be an integer from 0 to 2, got True"),
        (MULTIPLE_CHOICE, [True, 0.0], "question 'q1' key index must be an integer from 0 to 2, got True"),
        (MULTIPLE_CHOICE, [0, 3], "question 'q1' key index must be an integer from 0 to 2, got 3"),
        (MULTIPLE_CHOICE, "01", "question 'q1': key must be a list of option indices, got '01'"),
        # A repeat read back as the set without it.
        (MULTIPLE_CHOICE, [1, 1, 0], "question 'q1' key must be distinct option indices, got [1, 1, 0]"),
    ],
)
def test_a_choice_key_holds_option_indices_as_written(kind, key, message):
    # int() used to read "1" as 1 and [True, 0.0] as {0, 1}.
    with pytest.raises(ValueError) as err:
        q(kind, key, options=("a", "b", "c"))
    assert str(err.value) == message


def test_multiple_choice_key_normalizes_to_a_set():
    question = q(MULTIPLE_CHOICE, [2, 0], options=("a", "b", "c"))
    assert question.key == frozenset({0, 2})
    assert question.to_jsonable()["key"] == [0, 2]


def test_a_multiple_choice_key_reads_as_the_sorted_set():
    written = {"id": "q1", "kind": MULTIPLE_CHOICE, "prompt": "?", "key": [1, 0], "weight": 1, "options": ["a", "b"]}
    assert ag.Question.from_jsonable(written).to_jsonable()["key"] == [0, 1]


def test_keys_must_match_their_kind():
    with pytest.raises(ValueError):
        q(TRUE_FALSE, 1)
    with pytest.raises(ValueError):
        q(FILL_NUMERIC, "half")
    with pytest.raises(ValueError):
        q(FILL_TEXT, 42)


def test_question_round_trips_for_every_kind():
    rng = random.Random(99)
    for _ in range(40):
        question = random_question(rng, "q1")
        assert ag.Question.from_jsonable(question.to_jsonable()) == question


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def small_test(**kw):
    return ag.Test(
        "t1",
        "Sample",
        (
            ag.Question("a", SINGLE_CHOICE, "?", 1, "1/2", ("x", "y")),
            ag.Question("b", TRUE_FALSE, "?", False, "1/3"),
        ),
        **kw,
    )


def test_test_needs_questions():
    with pytest.raises(ValueError):
        ag.Test("t", "empty", ())


def test_test_rejects_duplicate_question_ids():
    question = ag.Question("a", TRUE_FALSE, "?", True, 1)
    with pytest.raises(ValueError):
        ag.Test("t", "dup", (question, question))


def test_total_weight_is_an_exact_sum():
    assert small_test().total_weight == Fraction(5, 6)


def test_question_lookup():
    test = small_test()
    assert test.question("b").kind == TRUE_FALSE
    with pytest.raises(ag.UnknownQuestionId):
        test.question("zz")


def test_test_round_trips_with_both_kinds():
    pull = small_test()
    push = small_test(kind=ag.Exam(scheduled_at=40))
    assert ag.Test.from_jsonable(pull.to_jsonable()) == pull
    assert ag.Test.from_jsonable(push.to_jsonable()) == push


def test_unknown_test_kind_is_rejected():
    with pytest.raises(ValueError):
        kind_from_jsonable({"kind": "quiz"})


@pytest.mark.parametrize("kind", [ag.Exam(4), ag.SelfAssessment()])
def test_a_test_kind_decodes_by_the_tag_its_class_writes(kind):
    written = kind.to_jsonable()
    assert written["kind"] == type(kind)._tag
    assert kind_from_jsonable(written) == kind


# ---------------------------------------------------------------------------
# Matching boundaries
# ---------------------------------------------------------------------------


def test_single_choice_matching():
    question = q(SINGLE_CHOICE, 1, options=("a", "b", "c"))
    assert ag.answer_matches(question, 1)
    assert not ag.answer_matches(question, 2)
    assert not ag.answer_matches(question, True)  # bools are not indices
    assert not ag.answer_matches(question, "1")
    assert not ag.answer_matches(question, None)


def test_multiple_choice_matching_is_set_equality():
    question = q(MULTIPLE_CHOICE, [0, 2], options=("a", "b", "c"))
    assert ag.answer_matches(question, [2, 0])
    assert ag.answer_matches(question, (0, 2))
    assert ag.answer_matches(question, {0, 2})
    assert ag.answer_matches(question, [0, 2, 0])  # duplicates collapse
    assert not ag.answer_matches(question, ["0", "2"])  # digits are not indices
    assert not ag.answer_matches(question, [0.0, 2])  # nor are floats
    assert not ag.answer_matches(question, [False, 2])  # nor bools
    assert not ag.answer_matches(question, [0])  # subset earns nothing
    assert not ag.answer_matches(question, [0, 1, 2])  # superset too
    assert not ag.answer_matches(question, 0)
    assert not ag.answer_matches(question, "02")
    assert not ag.answer_matches(question, [0, "x"])
    assert not ag.answer_matches(q(MULTIPLE_CHOICE, [0, 1], options=("a", "b")), ["1", 0.9])


def test_true_false_matching():
    question = q(TRUE_FALSE, True)
    assert ag.answer_matches(question, True)
    assert not ag.answer_matches(question, False)
    assert not ag.answer_matches(question, 1)
    assert not ag.answer_matches(question, "true")


def test_numeric_matching_compares_decimals():
    question = q(FILL_NUMERIC, "0.5")
    assert ag.answer_matches(question, "0.5")
    assert ag.answer_matches(question, 0.5)
    assert ag.answer_matches(question, ".5")
    assert ag.answer_matches(question, "0.50")
    assert not ag.answer_matches(question, "1/2")
    assert not ag.answer_matches(question, None)
    assert not ag.answer_matches(question, True)
    assert not ag.answer_matches(question, "abc")
    whole = q(FILL_NUMERIC, "2.0")
    assert ag.answer_matches(whole, 2)
    assert ag.answer_matches(whole, "2")


def test_text_matching_trims_and_casefolds():
    question = q(FILL_TEXT, "mars")
    assert ag.answer_matches(question, "mars")
    assert ag.answer_matches(question, "  Mars ")
    assert ag.answer_matches(question, "MARS")
    assert not ag.answer_matches(question, "mars!")
    assert not ag.answer_matches(question, 42)
    sharp = q(FILL_TEXT, "straße")
    assert ag.answer_matches(sharp, "STRASSE")


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------


def test_grade_scores_and_breakdown():
    result = ag.grade(small_test(), {"a": 1, "b": True})
    assert result.score == Fraction(1, 2)
    assert result.max_score == Fraction(5, 6)
    assert result.breakdown == {"a": Fraction(1, 2), "b": Fraction(0)}


def test_unanswered_questions_score_zero():
    result = ag.grade(small_test(), {})
    assert result.score == 0
    assert result.breakdown == {"a": Fraction(0), "b": Fraction(0)}


def test_answers_for_foreign_questions_are_rejected():
    with pytest.raises(ag.UnknownQuestionId):
        ag.grade(small_test(), {"zz": 1})


def test_no_partial_credit():
    test = ag.Test(
        "t", "multi", (ag.Question("m", MULTIPLE_CHOICE, "?", [0, 1], 4, ("a", "b", "c")),)
    )
    assert ag.grade(test, {"m": [0]}).score == 0
    assert ag.grade(test, {"m": [0, 1]}).score == 4


# ---------------------------------------------------------------------------
# Submissions, reports, progress
# ---------------------------------------------------------------------------


def test_submission_score_must_fit_the_scale():
    with pytest.raises(ValueError):
        ag.Submission("t", AgentId(1), {}, Fraction(9), Fraction(5), 0)
    with pytest.raises(ValueError):
        ag.Submission("t", AgentId(1), {}, Fraction(-1), Fraction(5), 0)


def test_submission_round_trips():
    sub = ag.Submission("t", AgentId(7), {"a": [0, 2]}, Fraction(5, 2), Fraction(17, 2), 12)
    assert ag.Submission.from_jsonable(sub.to_jsonable()) == sub


def test_exam_report_round_trips():
    sub = ag.Submission("t", AgentId(7), {}, Fraction(1), Fraction(2), 3)
    report = ag.ExamReport("t", ("north", "south"), ("river",), (sub,))
    assert ag.ExamReport.from_jsonable(report.to_jsonable()) == report


def test_exam_report_rejects_delivered_and_missed_overlap():
    with pytest.raises(ValueError):
        ag.ExamReport("t", ("north",), ("north",), ())


def test_progress_record_round_trips_and_stays_minimal():
    record = ag.ProgressRecord(AgentId(3), "t9", Fraction(7, 2), at=44)
    assert ag.ProgressRecord.from_jsonable(record.to_jsonable()) == record
    # The persisted shape carries no answers and no scale, by design.
    assert set(record.to_jsonable()) == {"student", "test_id", "score", "at"}


def _written(value, **edits):
    return {**value.to_jsonable(), **edits}


_SUB = ag.Submission("t", AgentId(7), {"a": 1}, Fraction(1), Fraction(2), 3)
_QUESTION = ag.Question("q", "single_choice", "?", 0, 1, ("x", "y"))
_TEST = ag.Test("t", "title", (_QUESTION,), ag.Exam(scheduled_at=5))

# Each record field once converted with str(), int() or tuple(): 5 became
# "5", "3" agent 3 and "ns" the locations ("n", "s").
LOSSY_RECORDS = {
    "question_id_int": (ag.Question, _written(_QUESTION, id=5), "question id must be a string, got 5"),
    "question_prompt_null": (ag.Question, _written(_QUESTION, prompt=None), "question prompt must be a string, got None"),
    "question_options_str": (ag.Question, _written(_QUESTION, options="xy"), "question options must be a list, got 'xy'"),
    "test_title_list": (ag.Test, _written(_TEST, title=["t"]), "test title must be a string, got ['t']"),
    "test_questions_object": (ag.Test, _written(_TEST, questions={}), "test questions must be a list, got {}"),
    "exam_scheduled_at_str": (
        ag.Test,
        _written(_TEST, kind={"kind": "exam", "scheduled_at": "5"}),
        "exam scheduled_at must be an integer, got '5'",
    ),
    "submission_student_str": (ag.Submission, _written(_SUB, student="7"), "submission student must be an integer, got '7'"),
    "submission_answers_list": (ag.Submission, _written(_SUB, answers=[["a", 1]]), "submission answers must be an object, got [['a', 1]]"),
    "submission_graded_at_float": (ag.Submission, _written(_SUB, graded_at=3.0), "submission graded_at must be an integer, got 3.0"),
    "report_delivered_str": (
        ag.ExamReport,
        _written(ag.ExamReport("t", (), (), ()), delivered="ns"),
        "report delivered must be a list, got 'ns'",
    ),
    "progress_at_bool": (
        ag.ProgressRecord,
        _written(ag.ProgressRecord(AgentId(3), "t9", Fraction(1), at=4), at=True),
        "progress at must be an integer, got True",
    ),
}


@pytest.mark.parametrize("case", sorted(LOSSY_RECORDS))
def test_a_record_field_is_read_as_written(case):
    cls, written, message = LOSSY_RECORDS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls.from_jsonable(written)


_EXACT = "an int, a finite float, or a decimal or 'a/b' literal"

# Each record reads its own fields where it is built. Each of these built
# once, to fail later in to_jsonable or in the record's own decoder, or
# raised ZeroDivisionError or TypeError instead of ValueError.
BUILT_RECORDS = {
    "question_kind_unknown": (
        lambda: q("essay", "anything"),
        f"question 'q1' kind must be one of {ag.grading._KINDS}, got 'essay'",
    ),
    "question_weight_zero_denominator": (lambda: q(TRUE_FALSE, True, weight="1/0"), f"question 'q1' weight must be {_EXACT}, got '1/0'"),
    "question_weight_list": (lambda: q(TRUE_FALSE, True, weight=[1]), f"question 'q1' weight must be {_EXACT}, got [1]"),
    "question_true_false_key_int": (lambda: q(TRUE_FALSE, 1), "question 'q1' key must be true or false, got 1"),
    "question_text_key_int": (lambda: q(FILL_TEXT, 42), "question 'q1' key must be a string, got 42"),
    "question_numeric_key_nan": (lambda: q(FILL_NUMERIC, "NaN"), "question 'q1' key must be a finite decimal, got 'NaN'"),
    "question_numeric_key_infinity": (lambda: q(FILL_NUMERIC, "Infinity"), "question 'q1' key must be a finite decimal, got 'Infinity'"),
    "question_numeric_key_snan": (lambda: q(FILL_NUMERIC, "sNaN"), "question 'q1' key must be a finite decimal, got 'sNaN'"),
    "question_numeric_key_word": (lambda: q(FILL_NUMERIC, "half"), "question 'q1' key must be a finite decimal, got 'half'"),
    "question_options_int": (lambda: q(SINGLE_CHOICE, 0, options=(1,)), "question options entry must be a string, got 1"),
    "question_options_float": (lambda: ag.Question("q1", SINGLE_CHOICE, "?", 0, 1, 2.0), "question options must be a list, got 2.0"),
    "exam_scheduled_at_str": (lambda: ag.Exam(scheduled_at="3"), "exam scheduled_at must be an integer, got '3'"),
    "submission_student_int": (
        lambda: ag.Submission("t", 1, {}, Fraction(1), Fraction(2), 0),
        "submission student must be an AgentId, got 1",
    ),
    "submission_answers_list": (
        lambda: ag.Submission("t", AgentId(1), [], Fraction(1), Fraction(2), 0),
        "submission answers must be an object, got []",
    ),
    "submission_score_list": (
        lambda: ag.Submission("t", AgentId(1), {}, [1], Fraction(2), 0),
        f"submission score must be {_EXACT}, got [1]",
    ),
    "report_delivered_int": (lambda: ag.ExamReport("t", (1,), (), ()), "report delivered entry must be a string, got 1"),
    "report_missed_str": (lambda: ag.ExamReport("t", (), "ns", ()), "report missed must be a list, got 'ns'"),
    "progress_test_id_int": (lambda: ag.ProgressRecord(AgentId(1), test_id=5, score=Fraction(1), at=0), "progress test_id must be a string, got 5"),
    # The AgentId now reads its own value, before the record is built.
    "progress_student_value_str": (
        lambda: ag.ProgressRecord(AgentId("1"), "t", Fraction(1), at=0),
        "agent id must be an integer, got '1'",
    ),
    "progress_score_bool": (lambda: ag.ProgressRecord(AgentId(1), "t", True, at=0), f"progress score must be {_EXACT}, got True"),
}


@pytest.mark.parametrize("case", sorted(BUILT_RECORDS))
def test_a_record_raises_where_it_is_built(case):
    build, message = BUILT_RECORDS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_a_float_score_reads_as_its_decimal_literal():
    # A float score used to build and then break to_jsonable.
    sub = ag.Submission("t", AgentId(1), {}, 0.5, 1.5, 0)
    assert (sub.score, sub.max_score) == (Fraction(1, 2), Fraction(3, 2))
    assert ag.Submission.from_jsonable(sub.to_jsonable()) == sub
    record = ag.ProgressRecord(AgentId(1), "t", 0.3, at=0)
    assert record.score == Fraction(3, 10)
    assert ag.ProgressRecord.from_jsonable(record.to_jsonable()) == record


@pytest.mark.parametrize("weight", ["1/0", [1], None, "nan", True])
def test_a_question_decode_reads_its_weight_once(weight):
    written = _written(_QUESTION, weight=weight)
    with pytest.raises(ValueError, match=f"^{re.escape(f'question {_QUESTION.id!r} weight must be {_EXACT}, got {weight!r}')}$"):
        ag.Question.from_jsonable(written)


@pytest.mark.parametrize(
    "decode",
    [ag.Question.from_jsonable, ag.Test.from_jsonable, kind_from_jsonable, ag.Submission.from_jsonable, ag.ExamReport.from_jsonable, ag.ProgressRecord.from_jsonable],
)
def test_a_record_decoder_given_junk_raises_value_error(decode):
    for junk in (5, "x", [], None, True):
        with pytest.raises(ValueError, match="must be an object, got "):
            decode(junk)
