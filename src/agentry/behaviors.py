"""The six leaf behavior patterns.

Task runs one action and expires. Observer checks a predicate on a fixed
period and fires a handler. Listener waits for typed messages and fires
callbacks. The Client/Server pair speaks a REQUEST/ACK/RESULT protocol with
per-request worker agents. The role factory attaches registry-built
behaviors to agents that never name the concrete role.

User code fails the same way everywhere: an action, callback or predicate
that raises is traced as an error and the effects it buffered are dropped
(``AgentContext.attempt``). Cyclic behaviors run until cancelled: whichever
action raises CancelBehavior, the behavior being stepped finishes, and the
effects buffered before the cancel stay.
"""

from __future__ import annotations

import json
from typing import Any, Callable, ClassVar, Optional

from .actions import ActionDescriptor, builtin_action, builtin_predicate
from .adapter import PlatformAdapter
from .errors import DuplicateRole, NoCallbacks, UnknownRole, ZeroPeriod
from .model import (
    DONE,
    AgentContext,
    AgentId,
    AnyOf,
    AtTime,
    Behavior,
    Blocked,
    Message,
    OnMessage,
    StepOutcome,
    _is_int,
    _mistyped,
    bound_marker,
    canonical_json,
    column,
    message_from_jsonable,
    message_to_jsonable,
    nested,
    nested_list,
    read_agent_id,
    read_int,
    read_one_of,
    read_str,
    record,
)

ONE_SHOT = "one_shot"
CYCLIC = "cyclic"
_MODES = (ONE_SHOT, CYCLIC)
_PARAM_NODES = (dict, list)

REQUEST = "REQUEST"
ACK = "ACK"
RESULT = "RESULT"

# Outcomes are immutable, so every blocked Server step returns this one.
_AWAIT_REQUEST = Blocked(OnMessage(REQUEST))


def resolve_params(ctx: AgentContext, value: Any) -> Any:
    """Substitute late-bound markers in JSON params.

    ``{"$state": key}`` becomes ``ctx.state[key]`` and ``{"$self": true}``
    becomes the stepping agent's id value; anything else passes through,
    in fresh dicts and lists that share nothing with ``value``.
    Lets behaviors fixed at setup time reference values that only exist at
    run time (a delegated worker's id, a locally computed score).
    """
    if isinstance(value, dict):
        if len(value) == 1:
            if "$state" in value:
                return ctx.state[value["$state"]]
            if "$self" in value:
                return ctx.agent_id.value
        copy: Any = dict(value)
        items: Any = copy.items()
    elif isinstance(value, list):
        copy = list(value)
        items = enumerate(copy)
    else:
        return value
    for k, v in items:
        if isinstance(v, _PARAM_NODES):
            copy[k] = resolve_params(ctx, v)
    return copy


def resolve_agent_ref(ctx: AgentContext, ref: Any) -> AgentId:
    """An agent reference is an id value or a ``{"$state": key}`` marker."""
    resolved = resolve_params(ctx, ref)
    if isinstance(resolved, AgentId):
        return resolved
    return read_agent_id(resolved, "agent reference")


# ---------------------------------------------------------------------------
# Task
# ---------------------------------------------------------------------------


@record(eq=False, repr=False)
class Task(Behavior):
    """One-shot behavior: run the action once, then expire.

    The action's own failure is traced and the task still finishes; one shot
    means one shot.
    """

    kind = "task"
    action: ActionDescriptor = nested(ActionDescriptor, "task action")

    def _step(self, ctx: AgentContext) -> StepOutcome:
        ctx.attempt(ctx.run_action, self.action, None, action=self.action.name)
        return DONE


# ---------------------------------------------------------------------------
# Observer
# ---------------------------------------------------------------------------


@record(eq=False, repr=False)
class Observer(Behavior):
    """Check a predicate every ``period`` ticks; fire the handler on truth.

    The first check happens one period after the behavior starts, and all
    checks stay on that grid: checks that would fall while the agent is in
    transit are skipped, not shifted.
    """

    kind = "observer"
    period: int = column(read_int, "observer period")
    trigger: ActionDescriptor = nested(ActionDescriptor, "observer trigger")
    handler: ActionDescriptor = nested(ActionDescriptor, "observer handler")
    mode: str = column(read_one_of, "mode", _MODES, default=ONE_SHOT)
    _start: Optional[int] = column(read_int, "observer start", null=True, default=None, kw_only=True)
    _next_check: int = column(read_int, "observer next_check", default=0, kw_only=True)
    # The last wait's outcome: derived, not serialized and not compared.
    _blocked: ClassVar[Optional[Blocked]] = None

    def _check(self) -> None:
        if self.period < 1:
            raise ZeroPeriod(f"observer period must be >= 1, got {self.period}")

    def _wait(self) -> StepOutcome:
        """Blocked until the next check; built again only when it moved."""
        blocked = self._blocked
        if blocked is None or blocked.wake.tick != self._next_check:
            self._blocked = blocked = Blocked(AtTime(self._next_check))
        return blocked

    def _step(self, ctx: AgentContext) -> StepOutcome:
        if self._start is None:
            self._start = ctx.now
            self._next_check = ctx.now + self.period
            return self._wait()
        if ctx.now < self._next_check:
            return self._wait()
        behind = (ctx.now - self._start) % self.period
        if behind:
            # Woken off-grid (the agent was away at check time); realign.
            self._next_check = ctx.now + self.period - behind
            return self._wait()
        self._next_check = ctx.now + self.period
        ok, triggered = ctx.attempt(ctx.run_predicate, self.trigger, predicate=self.trigger.name)
        if ok and triggered:
            ctx.attempt(ctx.run_action, self.handler, None, action=self.handler.name)
            if self.mode == ONE_SHOT:
                return DONE
        return self._wait()


# ---------------------------------------------------------------------------
# Listener
# ---------------------------------------------------------------------------


@record(eq=False, repr=False)
class Listener(Behavior):
    """Wait for a message matching ``type_filter`` ("*" grabs everything),
    then fire every callback in registration order with that message.

    The matched message is consumed; non-matching messages stay queued for
    other behaviors. One message is handled per step.
    """

    kind = "listener"
    # No message type matches "": such a listener would never hear.
    type_filter: str = column(read_str, "listener filter", key="filter", nonempty=True)
    callbacks: list[ActionDescriptor] = nested_list(ActionDescriptor, "listener callbacks")
    mode: str = column(read_one_of, "mode", _MODES, default=CYCLIC)

    def _check(self) -> None:
        if not self.callbacks:
            raise NoCallbacks("listener needs at least one callback")

    def _step(self, ctx: AgentContext) -> StepOutcome:
        msg = ctx.take_message(self.type_filter)
        if msg is None:
            return Blocked(OnMessage(self.type_filter))
        for callback in self.callbacks:
            ctx.attempt(ctx.run_action, callback, msg, action=callback.name)
        if self.mode == ONE_SHOT:
            return DONE
        return Blocked(OnMessage(self.type_filter))


# ---------------------------------------------------------------------------
# Role factory
# ---------------------------------------------------------------------------


class RoleRegistry:
    """Role name -> behavior constructor. Registration is idempotent for the
    same constructor and an error for a conflicting one."""

    def __init__(self) -> None:
        self._entries: dict[str, Callable[[bytes], Behavior]] = {}

    def register(self, role: str, constructor: Callable[[bytes], Behavior]) -> None:
        existing = self._entries.get(role)
        if existing is constructor:
            return
        if existing is not None:
            raise DuplicateRole(f"role {role!r} already bound to a different constructor")
        self._entries[role] = constructor

    def construct(self, role: str, params: bytes = b"") -> Behavior:
        try:
            constructor = self._entries[role]
        except KeyError:
            raise UnknownRole(f"no role registered under {role!r}") from None
        return constructor(params)

    def roles(self) -> list[str]:
        return sorted(self._entries)


def assign_role(
    platform: PlatformAdapter,
    registry: RoleRegistry,
    target: AgentId,
    role: str,
    params: bytes = b"",
) -> Behavior:
    """Build the role's behavior and append it to ``target``'s list.

    The target never learns which concrete behavior it was handed; it starts
    being stepped from the next tick.
    """
    behavior = registry.construct(role, params)
    platform.attach_behavior(target, behavior)
    return behavior


# ---------------------------------------------------------------------------
# Client / Server
# ---------------------------------------------------------------------------


@record(noun="request")
class RequestEnvelope:
    """What a client asks of a server: a task plus the conversation id under
    which the result will come back. An empty ``result_slot`` means the
    client draws a fresh conversation id when it first steps."""

    task: ActionDescriptor = nested(ActionDescriptor, "request task")
    result_slot: str = column(read_str, "request result_slot", default="")


_INIT = "init"
_AWAIT_ACK = "await_ack"
_AWAIT_RESULT = "await_result"


def _read_server(server: Any, label: str) -> Any:
    if _is_int(server) or isinstance(server, dict) and set(server) == {"$state"} and isinstance(server["$state"], str):
        return server
    return bound_marker(server, "$agent", _mistyped(label, 'an agent id value or a {"$state": key} marker', server))


@record(eq=False, repr=False)
class Client(Behavior):
    """One request/response exchange with timeout-based failure detection.

    Sends REQUEST, waits for ACK up to ``ack_timeout`` ticks, then for RESULT
    up to ``result_timeout`` ticks. Exactly one of ``on_result`` (with the
    RESULT message) or ``on_failure`` fires, then the behavior expires.
    Timeouts are exact: the failure path runs at precisely send + ack_timeout
    or ack + result_timeout. Only this behavior blocks while waiting; the
    agent's other behaviors keep running.
    """

    kind = "client"
    server: Any = column(_read_server, "client server")
    request: RequestEnvelope = nested(RequestEnvelope, "client request")
    ack_timeout: int = column(read_int, "client ack_timeout", default=50)
    result_timeout: int = column(read_int, "client result_timeout", default=500)
    on_result: Optional[ActionDescriptor] = nested(ActionDescriptor, "client on_result", null=True, default=None)
    on_failure: Optional[ActionDescriptor] = nested(ActionDescriptor, "client on_failure", null=True, default=None)
    _phase: str = column(read_one_of, "client phase", (_INIT, _AWAIT_ACK, _AWAIT_RESULT), default=_INIT, kw_only=True)
    _conversation: str = column(read_str, "client conversation", default="", kw_only=True)
    _deadline: int = column(read_int, "client deadline", default=0, kw_only=True)

    def _check(self) -> None:
        if self.ack_timeout < 1 or self.result_timeout < 1:
            raise ValueError("timeouts must be >= 1 tick")

    def _finish(self, ctx: AgentContext, callback: Optional[ActionDescriptor], message: Optional[Message]) -> StepOutcome:
        if callback is not None:
            ctx.attempt(ctx.run_action, callback, message, action=callback.name)
        return DONE

    def _resolved(self, ctx: AgentContext) -> tuple[AgentId, ActionDescriptor]:
        task = self.request.task
        return resolve_agent_ref(ctx, self.server), ActionDescriptor(task.name, resolve_params(ctx, task.params))

    def _step(self, ctx: AgentContext) -> StepOutcome:
        if self._phase == _INIT:
            ok, resolved = ctx.attempt(self._resolved, ctx, request=self.request.task.name)
            if not ok:  # a marker names state the agent lacks, or no agent id
                return self._finish(ctx, self.on_failure, None)
            server_id, task = resolved
            self._conversation = self.request.result_slot or ctx.new_conversation_id()
            payload = canonical_json({"task": task.to_jsonable(), "conversation": self._conversation})
            ctx.send(Message(ctx.agent_id, server_id, REQUEST, self._conversation, payload, ctx.now))
            self._deadline = ctx.now + self.ack_timeout
            self._phase = _AWAIT_ACK
            return Blocked(AnyOf([OnMessage(ACK), AtTime(self._deadline)]))
        if self._phase == _AWAIT_ACK:
            msg = ctx.take_message(ACK, conversation=self._conversation)
            if msg is not None:
                self._deadline = ctx.now + self.result_timeout
                self._phase = _AWAIT_RESULT
                return Blocked(AnyOf([OnMessage(RESULT), AtTime(self._deadline)]))
            if ctx.now >= self._deadline:
                return self._finish(ctx, self.on_failure, None)
            return Blocked(AnyOf([OnMessage(ACK), AtTime(self._deadline)]))
        msg = ctx.take_message(RESULT, conversation=self._conversation)
        if msg is not None:
            return self._finish(ctx, self.on_result, msg)
        if ctx.now >= self._deadline:
            return self._finish(ctx, self.on_failure, None)
        return Blocked(AnyOf([OnMessage(RESULT), AtTime(self._deadline)]))


@record(eq=False, repr=False)
class Server(Behavior):
    """Cyclic request dispatcher: every valid REQUEST spawns a fresh worker
    agent at the server's location, so slow handlers never block the server
    or each other.

    The worker is a plain Task that sends ACK, runs the request's task (or
    this server's ``handler`` override, which receives the original REQUEST
    message), sends RESULT with the output bytes, and dies. A malformed
    REQUEST is traced and gets no ACK; the client's timeout covers it.
    """

    kind = "server"
    handler: Optional[ActionDescriptor] = nested(ActionDescriptor, "server handler", null=True, default=None)

    def _step(self, ctx: AgentContext) -> StepOutcome:
        msg = ctx.take_message(REQUEST)
        if msg is None:
            return _AWAIT_REQUEST
        try:
            envelope = json.loads(msg.payload.decode())
            task = ActionDescriptor.from_jsonable(envelope["task"])
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            ctx.trace({"error": f"malformed request: {exc}", "conversation": msg.conversation_id})
            return _AWAIT_REQUEST
        effective = self.handler if self.handler is not None else task
        worker_action = ActionDescriptor(
            "client_server.worker",
            {
                "requester": msg.sender.value,
                "conversation": msg.conversation_id,
                "task": effective.to_jsonable(),
                "request": message_to_jsonable(msg),
            },
        )
        ctx.spawn(ctx.location, [Task(worker_action)])
        return _AWAIT_REQUEST


@builtin_action("client_server.worker")
def _worker(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    """One worker lifetime: ACK, compute, RESULT."""
    requester = read_agent_id(params["requester"], "worker requester")
    conversation = params["conversation"]
    task = ActionDescriptor.from_jsonable(params["task"])
    request = message_from_jsonable(params["request"])
    ctx.send(Message(ctx.agent_id, requester, ACK, conversation, b"", ctx.now))
    ok, result = ctx.attempt(ctx.run_action, task, request, action=task.name, conversation=conversation)
    # The client still deserves a reply; errors ride the data channel.
    result = (result or b"") if ok else canonical_json({"error": result})
    ctx.send(Message(ctx.agent_id, requester, RESULT, conversation, result, ctx.now))


# ---------------------------------------------------------------------------
# General-purpose builtin actions and predicates
# ---------------------------------------------------------------------------


@builtin_action("send")
def _send(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    """Send a message described by params: {to, type, payload?, conversation?}."""
    resolved = resolve_params(ctx, params)
    payload = resolved.get("payload")
    data = canonical_json(payload) if payload is not None else b""
    ctx.send(
        Message(
            ctx.agent_id,
            read_agent_id(resolved["to"], "send to"),
            resolved["type"],
            resolved.get("conversation", ""),
            data,
            ctx.now,
        )
    )


@builtin_action("set_state")
def _set_state(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    """Store params["value"] (after marker resolution) under params["key"]."""
    resolved = resolve_params(ctx, params)
    ctx.state[resolved["key"]] = resolved["value"]


@builtin_predicate("always")
def _always(ctx: AgentContext, params: Any) -> bool:
    return True


@builtin_predicate("never")
def _never(ctx: AgentContext, params: Any) -> bool:
    return False


@builtin_predicate("clock_at_least")
def _clock_at_least(ctx: AgentContext, params: Any) -> bool:
    return ctx.now >= read_int(params["tick"], "clock_at_least tick")


@builtin_predicate("state_equals")
def _state_equals(ctx: AgentContext, params: Any) -> bool:
    return ctx.state.get(params["key"]) == params["value"]
