"""The compulsory-exam push scenario.

One courier agent waits for the exam time, then travels the client
locations under their arrival windows, carrying the test material along. At
each location reached in good time it spawns a short-lived user agent that
grades a scripted answer sheet on the spot and mails the submission back.
The courier then returns home, collects the submissions, persists the exam
report, and ceases to exist. No standing agents ever live on the client
side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .actions import ActionDescriptor, builtin_action
from .adapter import PlatformAdapter
from .behaviors import CYCLIC, ONE_SHOT, Listener, Observer, Task
from .composites import Sequential
from .errors import UnknownLocation
from .grading import Exam, ExamReport, Submission, Test, grade
from .itinerary import Itinerary, ItineraryConfig, Objective, Route
from .model import AgentContext, AgentId, CancelBehavior, LocationId, Message, Ticks, canonical_json, read_agent_id
from .repository import PathLike, load_reports, store_report

SUBMISSION = "SUBMISSION"


@dataclass(frozen=True)
class PushClientPlan:
    """One planned delivery: where, the arrival window (offsets from the
    exam's scheduled time), and the scripted answers used at that location."""

    location: LocationId
    earliest: Ticks
    latest: Optional[Ticks]
    answers: Mapping[str, Any]


def build_push_courier(
    platform: PlatformAdapter,
    test: Test,
    plan: list[PushClientPlan],
    server_location: LocationId,
    store: PathLike,
) -> AgentId:
    """Spawn the courier agent wired for the whole push choreography."""
    if not isinstance(test.kind, Exam):
        raise ValueError(f"test {test.id!r} is not a scheduled exam")
    if not plan:
        raise ValueError("push scenario needs at least one client")
    if platform.location_named(server_location.name) != server_location:
        raise UnknownLocation(f"server location {server_location!r} unknown")
    scheduled = test.kind.scheduled_at
    objectives = [
        Objective(
            location=entry.location,
            earliest_offset=entry.earliest,
            latest_offset=entry.latest,
            stop_tasks=(
                ActionDescriptor(
                    "push.deliver",
                    {"test": test.to_jsonable(), "answers": dict(entry.answers)},
                ),
            ),
        )
        for entry in plan
    ]
    # The way home never expires.
    objectives.append(Objective(location=server_location, earliest_offset=0, latest_offset=None))
    itinerary = Itinerary(
        ItineraryConfig(
            route=Route(tuple(objectives), base_time=scheduled),
            missed_behavior=Task(ActionDescriptor("noop")),  # skip and carry on
        )
    )
    planned_names = [entry.location.name for entry in plan]
    behaviors = [
        Sequential(
            [
                Observer(
                    period=1,
                    trigger=ActionDescriptor("clock_at_least", {"tick": scheduled}),
                    handler=ActionDescriptor("noop"),
                    mode=ONE_SHOT,
                ),
                itinerary,
                Task(ActionDescriptor("push.kickoff_collect")),
                Listener(SUBMISSION, [ActionDescriptor("push.collect")], mode=CYCLIC),
                Task(
                    ActionDescriptor(
                        "push.finalize",
                        {"test_id": test.id, "planned": planned_names, "store": str(store)},
                    )
                ),
            ]
        )
    ]
    return platform.spawn_agent(server_location, behaviors)


def run_exam_push(
    platform: PlatformAdapter,
    test: Test,
    plan: list[PushClientPlan],
    server_location: LocationId,
    store: PathLike,
) -> ExamReport:
    """Run the push choreography to quiescence and return the report it
    persisted. Missed clients are reported, never raised; a run that stored
    no report for the test raises, even when the store holds an earlier
    run's."""
    earlier = len(load_reports(store))
    build_push_courier(platform, test, plan, server_location, store)
    platform.run(None)
    for report in reversed(load_reports(store)[earlier:]):
        if report.test_id == test.id:
            return report
    raise RuntimeError(f"push run finished without storing a report for {test.id!r}")


# ---------------------------------------------------------------------------
# Courier-side and user-side actions
# ---------------------------------------------------------------------------


@builtin_action("push.deliver")
def _deliver(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    """Runs on the courier at a reached client stop: note the delivery and
    spawn the one-shot user agent that sits the test."""
    delivered = ctx.state.setdefault("delivered", [])
    delivered.append(ctx.location.name)
    user_task = ActionDescriptor(
        "push.user_task",
        {
            "test": params["test"],
            "answers": params["answers"],
            "report_to": ctx.agent_id.value,
        },
    )
    ctx.spawn(ctx.location, [Task(user_task)])


@builtin_action("push.user_task")
def _user_task(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    """The user agent's whole life: grade the scripted answers locally and
    mail the submission back to the courier."""
    test = Test.from_jsonable(params["test"])
    answers = dict(params["answers"])
    result = grade(test, answers)
    submission = Submission(
        test_id=test.id,
        student=ctx.agent_id,
        answers=answers,
        score=result.score,
        max_score=result.max_score,
        graded_at=ctx.now,
    )
    ctx.send(
        Message(
            ctx.agent_id,
            read_agent_id(params["report_to"], "report_to"),
            SUBMISSION,
            "",
            canonical_json(submission.to_jsonable()),
            ctx.now,
        )
    )


@builtin_action("push.kickoff_collect")
def _kickoff_collect(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    """Runs once the courier is back home: when nothing was delivered there
    is nothing to wait for, so post a sentinel that closes the collector."""
    ctx.state.setdefault("delivered", [])
    ctx.state.setdefault("submissions", [])
    if not ctx.state["delivered"]:
        ctx.send(Message(ctx.agent_id, ctx.agent_id, SUBMISSION, "", canonical_json({"sentinel": True}), ctx.now))


@builtin_action("push.collect")
def _collect(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    """Collect one submission; close the collector once every delivered
    client has answered."""
    payload = json.loads(message.payload.decode())
    if not payload.get("sentinel"):
        ctx.state.setdefault("submissions", []).append(payload)
    if len(ctx.state.get("submissions", [])) >= len(ctx.state.get("delivered", [])):
        raise CancelBehavior


@builtin_action("push.finalize")
def _finalize(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    """Build and persist the exam report from the courier's own records."""
    delivered = ctx.state.get("delivered", [])
    missed = [name for name in params["planned"] if name not in delivered]
    submissions = [Submission.from_jsonable(s) for s in ctx.state.get("submissions", [])]
    report = ExamReport(params["test_id"], delivered, missed, submissions)
    store_report(report, params["store"])
    ctx.trace(
        {
            "report_stored": params["test_id"],
            "delivered": len(report.delivered),
            "missed": len(report.missed),
        }
    )
