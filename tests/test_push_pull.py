"""End-to-end runs of the two assessment choreographies.

Push: a courier delivers a scheduled exam across client locations, spawns
one-shot user agents, and carries the submissions home. Pull: a student's
client runs a scripted session against the permanent server's delegated
worker over separate command and data channels.
"""

import json
from fractions import Fraction

import pytest

import agentry as ag
from agentry.exam_push import SUBMISSION
from agentry.model import AgentId
from agentry.self_assessment import CMD
from agentry.trace import EventKind

from conftest import events_of, make_mock, make_sim, trace_lines


def exam_test(scheduled_at=4):
    return ag.Test(
        "exam-1",
        "Midterm",
        (
            ag.Question("q1", "single_choice", "pick one", 1, 2, ("a", "b", "c")),
            ag.Question("q2", "fill_text", "fourth planet", "mars", "1/2"),
        ),
        kind=ag.Exam(scheduled_at=scheduled_at),
    )


def spawned_agents(platform):
    return [e.agent for e in events_of(platform, EventKind.SPAWN)]


# ---------------------------------------------------------------------------
# Push
# ---------------------------------------------------------------------------


def test_push_delivers_grades_and_reports(platform_factory, tmp_path):
    p = platform_factory(message=1, migration=2)
    campus = p.create_location("campus")
    north = p.create_location("north")
    south = p.create_location("south")
    plan = [
        ag.PushClientPlan(north, 0, 30, {"q1": 1, "q2": "MARS"}),
        ag.PushClientPlan(south, 0, 40, {"q1": 0}),
    ]
    store = tmp_path / "reports.jsonl"
    report = ag.run_exam_push(p, exam_test(), plan, campus, store)

    assert report.test_id == "exam-1"
    assert report.delivered == ("north", "south")
    assert report.missed == ()
    assert [s.score for s in report.submissions] == [Fraction(5, 2), Fraction(0)]
    assert all(s.max_score == Fraction(5, 2) for s in report.submissions)
    assert all(s.graded_at >= 4 for s in report.submissions)
    students = {s.student for s in report.submissions}
    assert len(students) == 2
    assert ag.load_reports(store) == [report]


def test_push_leaves_no_agent_standing(platform_factory, tmp_path):
    p = platform_factory(message=1, migration=2)
    campus = p.create_location("campus")
    north = p.create_location("north")
    plan = [ag.PushClientPlan(north, 0, 30, {"q1": 1, "q2": "mars"})]
    ag.run_exam_push(p, exam_test(), plan, campus, tmp_path / "r.jsonl")

    everyone = spawned_agents(p)
    assert len(everyone) == 2  # courier plus one user agent
    assert all(not p.is_alive(a) for a in everyone)
    for loc in p.locations():
        assert p.agents_at(loc) == []
    # The user agent lives exactly one tick past its spawn: graded, mailed,
    # gone. No standing infrastructure ever exists on the client side.
    spawn_tick = {e.agent: e.tick for e in events_of(p, EventKind.SPAWN)}
    for e in events_of(p, EventKind.TERMINATE):
        if e.agent != everyone[0]:
            assert e.tick == spawn_tick[e.agent] + 1


def test_push_skips_missed_windows_and_reports_them(platform_factory, tmp_path):
    p = platform_factory(message=1, migration=3)
    campus = p.create_location("campus")
    able = p.create_location("able")
    baker = p.create_location("baker")
    charlie = p.create_location("charlie")
    plan = [
        ag.PushClientPlan(able, 0, 10, {"q1": 1, "q2": "mars"}),
        ag.PushClientPlan(baker, 0, 4, {"q1": 1, "q2": "mars"}),
        ag.PushClientPlan(charlie, 0, 30, {"q1": 2}),
    ]
    store = tmp_path / "reports.jsonl"
    report = ag.run_exam_push(p, exam_test(scheduled_at=0), plan, campus, store)

    assert report.delivered == ("able", "charlie")
    assert report.missed == ("baker",)
    assert len(report.submissions) == 2
    misses = events_of(p, EventKind.OBJECTIVE_MISSED)
    assert [e.detail["location"] for e in misses] == ["baker"]
    # Nobody was ever spawned at the missed location.
    assert [e for e in events_of(p, EventKind.SPAWN) if e.detail["at"] == "baker"] == []


def test_push_with_every_window_missed_still_reports(platform_factory, tmp_path):
    p = platform_factory(message=1, migration=5)
    campus = p.create_location("campus")
    north = p.create_location("north")
    plan = [ag.PushClientPlan(north, 0, 1, {"q1": 1})]
    store = tmp_path / "reports.jsonl"
    report = ag.run_exam_push(p, exam_test(scheduled_at=0), plan, campus, store)

    assert report.delivered == ()
    assert report.missed == ("north",)
    assert report.submissions == ()
    assert all(not p.is_alive(a) for a in spawned_agents(p))


def test_push_returns_only_a_report_this_run_stored(platform_factory, tmp_path, monkeypatch):
    store = tmp_path / "reports.jsonl"

    def one_run(answers):
        p = platform_factory(message=1, migration=2)
        campus = p.create_location("campus")
        north = p.create_location("north")
        plan = [ag.PushClientPlan(north, 0, 30, answers)]
        return ag.run_exam_push(p, exam_test(), plan, campus, store)

    first = one_run({"q1": 1, "q2": "mars"})
    second = one_run({"q1": 0})
    assert [s.score for s in first.submissions + second.submissions] == [Fraction(5, 2), Fraction(0)]
    assert ag.load_reports(store) == [first, second]
    # A run that stores nothing must not hand back an earlier run's report.
    monkeypatch.setattr("agentry.exam_push.store_report", lambda report, store: None)
    with pytest.raises(RuntimeError, match="without storing a report for 'exam-1'"):
        one_run({"q1": 1, "q2": "mars"})


def test_push_rejects_bad_setups(platform_factory, tmp_path):
    p = platform_factory()
    campus = p.create_location("campus")
    north = p.create_location("north")
    plan = [ag.PushClientPlan(north, 0, 30, {})]
    pull_only = ag.Test("t", "x", (ag.Question("q", "true_false", "?", True, 1),))
    with pytest.raises(ValueError, match="not a scheduled exam"):
        ag.build_push_courier(p, pull_only, plan, campus, tmp_path / "r.jsonl")
    with pytest.raises(ValueError, match="at least one client"):
        ag.build_push_courier(p, exam_test(), [], campus, tmp_path / "r.jsonl")
    with pytest.raises(ag.UnknownLocation):
        ag.build_push_courier(
            p, exam_test(), plan, ag.LocationId(99, "ghost"), tmp_path / "r.jsonl"
        )


def test_push_submissions_are_conserved(platform_factory, tmp_path):
    p = platform_factory(message=1, migration=2)
    campus = p.create_location("campus")
    north = p.create_location("north")
    south = p.create_location("south")
    plan = [
        ag.PushClientPlan(north, 0, 30, {"q1": 1, "q2": "mars"}),
        ag.PushClientPlan(south, 0, 40, {}),
    ]
    report = ag.run_exam_push(p, exam_test(), plan, campus, tmp_path / "r.jsonl")

    sends = [e for e in events_of(p, EventKind.SEND) if e.detail["type"] == SUBMISSION]
    delivers = [e for e in events_of(p, EventKind.DELIVER) if e.detail["type"] == SUBMISSION]
    assert len(sends) == len(report.submissions) == 2
    assert len(delivers) == 2
    assert not any(e.detail.get("failed") for e in delivers)


def test_push_runs_identically_across_platforms_and_repeats(tmp_path):
    def one_run(factory, store):
        p = factory(message=1, migration=2)
        campus = p.create_location("campus")
        north = p.create_location("north")
        plan = [ag.PushClientPlan(north, 0, 30, {"q1": 1, "q2": "mars"})]
        ag.run_exam_push(p, exam_test(), plan, campus, store)
        return trace_lines(p)

    first = one_run(lambda **kw: make_sim(seed=9, **kw), tmp_path / "a.jsonl")
    second = one_run(lambda **kw: make_sim(seed=9, **kw), tmp_path / "b.jsonl")
    mocked = one_run(make_mock, tmp_path / "c.jsonl")
    assert first == second
    assert first == mocked


# ---------------------------------------------------------------------------
# Pull
# ---------------------------------------------------------------------------


def write_repo(tmp_path):
    repo = tmp_path / "repo.json"
    ag.save_tests(
        repo,
        [
            ag.Test(
                "algebra-1",
                "Algebra basics",
                (
                    ag.Question("q1", "single_choice", "?", 0, 2, ("x", "y")),
                    ag.Question("q2", "fill_numeric", "?", "0.5", "3/2"),
                ),
            ),
            ag.Test(
                "history-1",
                "History basics",
                (ag.Question("q1", "true_false", "?", False, 1),),
            ),
        ],
    )
    return repo


FULL_SCRIPT_ANSWERS = {"q1": 0, "q2": ".5"}  # exact score 7/2 on algebra-1


def run_session(platform, tmp_path, script, location_name="dorm"):
    repo = write_repo(tmp_path)
    store = tmp_path / "progress.jsonl"
    hall = platform.create_location("hall")
    dorm = platform.create_location(location_name)
    server = ag.setup_session_server(platform, hall)
    log = ag.self_assessment_session(
        platform,
        script,
        client_location=dorm,
        server=server,
        repo=repo,
        progress_store=store,
    )
    return server, store, log


def full_script():
    return [
        ag.ListTests(),
        ag.GetTest("algebra-1"),
        ag.SubmitResults(FULL_SCRIPT_ANSWERS),
        ag.EndSession(),
    ]


def test_pull_session_end_to_end(platform_factory, tmp_path):
    p = platform_factory(message=1)
    server, store, log = run_session(p, tmp_path, full_script())

    assert log.worker is not None and log.worker != server.value
    assert list(log.entries) == [
        {"reply": "init", "worker": log.worker},
        {
            "reply": "list_tests",
            "tests": [
                {"id": "algebra-1", "title": "Algebra basics"},
                {"id": "history-1", "title": "History basics"},
            ],
        },
        {"reply": "get_test", "test_id": "algebra-1"},
        {"local_score": "7/2", "max_score": "7/2", "test_id": "algebra-1"},
        {"reply": "submit", "recorded": "algebra-1"},
    ]

    records = ag.load_progress(store)
    assert len(records) == 1
    assert records[0].student == log.client
    assert records[0].test_id == "algebra-1"
    assert records[0].score == Fraction(7, 2)

    # The only survivor is the permanent server.
    assert p.is_alive(server)
    assert not p.is_alive(log.client)
    assert not p.is_alive(AgentId(log.worker))
    assert [a for a in spawned_agents(p) if p.is_alive(a)] == [server]

    commands = [
        e.detail["session_cmd"]
        for e in events_of(p, EventKind.CUSTOM)
        if "session_cmd" in e.detail
    ]
    assert commands == ["list_tests", "get_test", "submit"]


def test_pull_progress_store_holds_no_answers(platform_factory, tmp_path):
    p = platform_factory(message=1)
    _, store, _ = run_session(p, tmp_path, full_script())
    rows = [json.loads(line) for line in store.read_text().splitlines()]
    assert len(rows) == 1
    assert set(rows[0]) == {"record", "student", "test_id", "score", "at"}
    assert "q1" not in store.read_text()


def test_pull_channels_stay_separate(platform_factory, tmp_path):
    p = platform_factory(message=1)
    server, _, log = run_session(p, tmp_path, full_script())
    client, worker = log.client, AgentId(log.worker)

    sends = events_of(p, EventKind.SEND)
    assert {e.detail["type"] for e in sends} == {CMD, ag.REQUEST, ag.ACK, ag.RESULT}

    commands = [e for e in sends if e.detail["type"] == CMD]
    assert len(commands) == 4  # list, get, submit, end
    assert all(e.agent == client and e.detail["to"] == worker.value for e in commands)

    requests = [e for e in sends if e.detail["type"] == ag.REQUEST]
    assert [AgentId(e.detail["to"]) for e in requests] == [server, worker, worker, worker]
    assert all(e.agent == client for e in requests)

    for tag in (ag.ACK, ag.RESULT):
        replies = [e for e in sends if e.detail["type"] == tag]
        assert len(replies) == 4
        assert all(e.detail["to"] == client.value for e in replies)


def test_pull_error_reply_keeps_the_session_alive(platform_factory, tmp_path):
    p = platform_factory(message=1)
    script = [
        ag.GetTest("ghost-9"),
        ag.GetTest("algebra-1"),
        ag.SubmitResults(FULL_SCRIPT_ANSWERS),
        ag.EndSession(),
    ]
    server, store, log = run_session(p, tmp_path, script)

    failures = [e for e in log.entries if e.get("reply") == "get_test" and "error" in e]
    assert len(failures) == 1
    assert "ghost-9" in failures[0]["error"]
    assert {"reply": "get_test", "test_id": "algebra-1"} in log.entries

    records = ag.load_progress(store)
    assert [r.test_id for r in records] == ["algebra-1"]
    assert records[0].score == Fraction(7, 2)
    assert p.is_alive(server)


def test_pull_sessions_run_concurrently_without_crosstalk(platform_factory, tmp_path):
    p = platform_factory(message=1)
    repo = write_repo(tmp_path)
    store = tmp_path / "progress.jsonl"
    hall = p.create_location("hall")
    dorm_a = p.create_location("dorm-a")
    dorm_b = p.create_location("dorm-b")
    server = ag.setup_session_server(p, hall)

    def script(answers):
        return [ag.GetTest("algebra-1"), ag.SubmitResults(answers), ag.EndSession()]

    alice = ag.build_session_client(p, dorm_a, server, script(FULL_SCRIPT_ANSWERS), repo, store)
    bob = ag.build_session_client(p, dorm_b, server, script({"q1": 1}), repo, store)
    p.run(None)

    log_a = ag.collect_session_log(p, alice)
    log_b = ag.collect_session_log(p, bob)
    assert log_a.worker != log_b.worker

    by_student = {r.student: r.score for r in ag.load_progress(store)}
    assert by_student == {alice: Fraction(7, 2), bob: Fraction(0)}

    assert p.is_alive(server)
    assert [a for a in spawned_agents(p) if p.is_alive(a)] == [server]


def test_pull_missing_server_surfaces_as_a_logged_failure(platform_factory, tmp_path):
    p = platform_factory(message=1)
    repo = write_repo(tmp_path)
    store = tmp_path / "progress.jsonl"
    dorm = p.create_location("dorm")
    ghost = p.reserve_agent_id()
    client = ag.build_session_client(p, dorm, ghost, [ag.EndSession()], repo, store)
    p.run(None)

    log = ag.collect_session_log(p, client)
    assert log.worker is None
    assert list(log.entries) == [{"failure": "init"}]
    failed = [e for e in events_of(p, EventKind.DELIVER) if e.detail.get("failed")]
    assert [e.detail["reason"] for e in failed] == ["unknown agent"]
    assert ag.load_progress(store) == []
    assert not p.is_alive(client)


def test_pull_script_validation():
    with pytest.raises(ValueError, match="empty"):
        ag.validate_script([])
    with pytest.raises(ValueError, match="end with EndSession"):
        ag.validate_script([ag.ListTests()])
    with pytest.raises(ValueError, match="after EndSession"):
        ag.validate_script([ag.EndSession(), ag.ListTests(), ag.EndSession()])
    with pytest.raises(ValueError, match="test id"):
        ag.validate_script([ag.GetTest(""), ag.EndSession()])
    with pytest.raises(ValueError, match="before any GetTest"):
        ag.validate_script([ag.SubmitResults({}), ag.EndSession()])
    with pytest.raises(ValueError, match="not a session command"):
        ag.validate_script(["list", ag.EndSession()])


def test_pull_client_build_validates_the_script(platform_factory, tmp_path):
    p = platform_factory()
    dorm = p.create_location("dorm")
    server = ag.setup_session_server(p, dorm)
    with pytest.raises(ValueError):
        ag.build_session_client(p, dorm, server, [], tmp_path / "r.json", tmp_path / "s.jsonl")
