"""The self-assessment pull scenario.

A permanent server agent owns the test repository. A student's client agent
opens a session against it: the init exchange makes the server delegate a
dedicated session worker, and every later step talks to that worker over
two channels at once. The command channel carries plain CMD messages that
drive the worker's session state; the data channel is the usual
REQUEST/ACK/RESULT exchange that moves test material and results. Grading
happens on the client side; only the resulting score travels back, so the
progress store never sees the student's answers.

Scripts are validated up front (see ``validate_script``) and assume a live
server; a missing server surfaces as logged exchange failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from .actions import ActionDescriptor, builtin_action
from .adapter import PlatformAdapter
from .behaviors import (
    CYCLIC,
    Client,
    Listener,
    RequestEnvelope,
    Server,
    Task,
)
from .composites import ANY, Parallel, Sequential
from .grading import ProgressRecord, Test, grade, weight_to_jsonable
from .model import AgentContext, AgentId, Behavior, CancelBehavior, LocationId, Message, canonical_json, read_agent_id
from .repository import PathLike, find_test, load_tests, store_progress

CMD = "CMD"


# ---------------------------------------------------------------------------
# Session scripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ListTests:
    """Ask the session worker for the repository's catalogue."""


@dataclass(frozen=True)
class GetTest:
    """Fetch one test body; it becomes the session's current test."""

    test_id: str


@dataclass(frozen=True)
class SubmitResults:
    """Grade the current test locally and report only the score."""

    answers: Mapping[str, Any]


@dataclass(frozen=True)
class EndSession:
    """Close the session; the worker terminates, the server lives on."""


SessionCommand = Union[ListTests, GetTest, SubmitResults, EndSession]


def validate_script(script: list[SessionCommand]) -> None:
    """Reject malformed scripts before any agent exists.

    A script must be non-empty, must finish with exactly one EndSession, and
    must have fetched a test before the first SubmitResults.
    """
    if not script:
        raise ValueError("session script is empty")
    for i, command in enumerate(script):
        if not isinstance(command, (ListTests, GetTest, SubmitResults, EndSession)):
            raise ValueError(f"script[{i}] is not a session command: {command!r}")
        if isinstance(command, EndSession) and i != len(script) - 1:
            raise ValueError(f"script[{i}]: commands after EndSession")
        if isinstance(command, GetTest) and not command.test_id:
            raise ValueError(f"script[{i}]: GetTest needs a test id")
    if not isinstance(script[-1], EndSession):
        raise ValueError("session script must end with EndSession")
    fetched = False
    for i, command in enumerate(script):
        fetched = fetched or isinstance(command, GetTest)
        if isinstance(command, SubmitResults) and not fetched:
            raise ValueError(f"script[{i}]: SubmitResults before any GetTest")


# ---------------------------------------------------------------------------
# World wiring
# ---------------------------------------------------------------------------


def setup_session_server(platform: PlatformAdapter, at: LocationId) -> AgentId:
    """Spawn the permanent server agent. It never terminates on its own."""
    return platform.spawn_agent(at, [Server()])


def _cmd_send(payload: dict[str, Any]) -> Task:
    return Task(
        ActionDescriptor(
            "send",
            {"to": {"$state": "session_worker"}, "type": CMD, "payload": payload},
        )
    )


def _data_exchange(task: ActionDescriptor, on_result: ActionDescriptor) -> Client:
    return Client(
        server={"$state": "session_worker"},
        request=RequestEnvelope(task),
        on_result=on_result,
        on_failure=ActionDescriptor("session.log_failure", {"step": task.name}),
    )


def build_session_client(
    platform: PlatformAdapter,
    at: LocationId,
    server: AgentId,
    script: list[SessionCommand],
    repo: PathLike,
    progress_store: PathLike,
) -> AgentId:
    """Spawn a client agent that plays the whole script, one step at a time."""
    validate_script(script)
    repo = str(repo)
    children: list[Behavior] = [
        Client(
            server=server.value,
            request=RequestEnvelope(ActionDescriptor("session.init")),
            on_result=ActionDescriptor("session.store_worker"),
            on_failure=ActionDescriptor("session.log_failure", {"step": "init"}),
        )
    ]
    for command in script:
        if isinstance(command, ListTests):
            children.append(
                Parallel(
                    [
                        _cmd_send({"command": "list_tests"}),
                        _data_exchange(
                            ActionDescriptor("session.list_tests", {"repo": repo}),
                            ActionDescriptor("session.store_list"),
                        ),
                    ]
                )
            )
        elif isinstance(command, GetTest):
            children.append(
                Parallel(
                    [
                        _cmd_send({"command": "get_test", "test_id": command.test_id}),
                        _data_exchange(
                            ActionDescriptor(
                                "session.get_test",
                                {"repo": repo, "test_id": command.test_id},
                            ),
                            ActionDescriptor("session.store_test"),
                        ),
                    ]
                )
            )
        elif isinstance(command, SubmitResults):
            children.append(
                Task(ActionDescriptor("session.grade_local", {"answers": dict(command.answers)}))
            )
            children.append(
                Parallel(
                    [
                        _cmd_send({"command": "submit"}),
                        _data_exchange(
                            ActionDescriptor(
                                "session.record_progress",
                                {
                                    "store": str(progress_store),
                                    "student": {"$self": True},
                                    "test_id": {"$state": "current_test_id"},
                                    "score": {"$state": "last_score"},
                                },
                            ),
                            ActionDescriptor("session.store_ack"),
                        ),
                    ]
                )
            )
        else:
            children.append(_cmd_send({"command": "end"}))
    return platform.spawn_agent(at, [Sequential(children)])


@dataclass(frozen=True)
class SessionLog:
    """What a finished session left behind on the client agent."""

    client: AgentId
    worker: Optional[int]
    entries: tuple = field(default_factory=tuple)


def collect_session_log(platform: PlatformAdapter, client: AgentId) -> SessionLog:
    state = platform.agent_state(client)
    return SessionLog(
        client=client,
        worker=state.get("session_worker"),
        entries=tuple(state.get("session_log", [])),
    )


def self_assessment_session(
    platform: PlatformAdapter,
    script: list[SessionCommand],
    *,
    client_location: LocationId,
    server: AgentId,
    repo: PathLike,
    progress_store: PathLike,
) -> SessionLog:
    """Convenience wrapper: one client, one full session, run to quiescence."""
    client = build_session_client(platform, client_location, server, script, repo, progress_store)
    platform.run(None)
    return collect_session_log(platform, client)


# ---------------------------------------------------------------------------
# Worker-side actions (run at the server location)
# ---------------------------------------------------------------------------


@builtin_action("session.init")
def _init(ctx: AgentContext, params: Any, message: Optional[Message]) -> bytes:
    """Turn the freshly delegated worker into a session endpoint.

    The worker grows a Server for the data channel and a command Listener;
    either the "end" command or worker death closes both. The reply tells
    the client where to send everything that follows.
    """
    ctx.attach_behavior(
        ctx.agent_id,
        Parallel(
            [
                Server(),
                Listener(CMD, [ActionDescriptor("session.command")], mode=CYCLIC),
            ],
            completion=ANY,
        ),
    )
    return canonical_json({"worker": ctx.agent_id.value})


@builtin_action("session.command")
def _command(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    payload = json.loads(message.payload.decode())
    command = payload.get("command")
    if command == "end":
        raise CancelBehavior
    ctx.trace({"session_cmd": command})


@builtin_action("session.list_tests")
def _list_tests(ctx: AgentContext, params: Any, message: Optional[Message]) -> bytes:
    tests = load_tests(params["repo"])
    return canonical_json({"tests": [{"id": t.id, "title": t.title} for t in tests]})


@builtin_action("session.get_test")
def _get_test(ctx: AgentContext, params: Any, message: Optional[Message]) -> bytes:
    # Unknown ids raise; the worker turns that into an error reply.
    test = find_test(params["repo"], params["test_id"])
    return canonical_json({"test": test.to_jsonable()})


@builtin_action("session.record_progress")
def _record_progress(ctx: AgentContext, params: Any, message: Optional[Message]) -> bytes:
    record = ProgressRecord(read_agent_id(params["student"], "progress student"), params["test_id"], params["score"], at=ctx.now)
    store_progress(record, params["store"])
    return canonical_json({"recorded": record.test_id})


# ---------------------------------------------------------------------------
# Client-side actions
# ---------------------------------------------------------------------------


def _log(ctx: AgentContext, entry: dict[str, Any]) -> None:
    ctx.state.setdefault("session_log", []).append(entry)


def _payload(message: Message) -> dict[str, Any]:
    return json.loads(message.payload.decode()) if message.payload else {}


@builtin_action("session.store_worker")
def _store_worker(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    payload = _payload(message)
    ctx.state["session_worker"] = payload["worker"]
    _log(ctx, {"reply": "init", "worker": payload["worker"]})


@builtin_action("session.store_list")
def _store_list(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    payload = _payload(message)
    if "error" in payload:
        _log(ctx, {"reply": "list_tests", "error": payload["error"]})
        return
    ctx.state["test_list"] = payload.get("tests", [])
    _log(ctx, {"reply": "list_tests", "tests": payload.get("tests", [])})


@builtin_action("session.store_test")
def _store_test(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    payload = _payload(message)
    if "error" in payload:
        # Keep whatever test we already had; the session goes on.
        _log(ctx, {"reply": "get_test", "error": payload["error"]})
        return
    body = payload["test"]
    ctx.state["current_test"] = body
    ctx.state["current_test_id"] = body["id"]
    _log(ctx, {"reply": "get_test", "test_id": body["id"]})


@builtin_action("session.grade_local")
def _grade_local(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    """Grade on the client; only the score is kept for reporting."""
    if "current_test" not in ctx.state:
        ctx.state.setdefault("current_test_id", "")
        ctx.state["last_score"] = 0
        _log(ctx, {"command": "submit", "error": "no test available"})
        return
    test = Test.from_jsonable(ctx.state["current_test"])
    result = grade(test, dict(params["answers"]))
    ctx.state["last_score"] = weight_to_jsonable(result.score)
    _log(
        ctx,
        {
            "local_score": weight_to_jsonable(result.score),
            "max_score": weight_to_jsonable(result.max_score),
            "test_id": test.id,
        },
    )


@builtin_action("session.store_ack")
def _store_ack(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    _log(ctx, {"reply": "submit", **_payload(message)})


@builtin_action("session.log_failure")
def _log_failure(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    _log(ctx, {"failure": params["step"]})
