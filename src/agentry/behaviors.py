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
from dataclasses import dataclass
from typing import Any, Callable, Optional

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
    canonical_json,
    make_message,
    message_from_jsonable,
    message_to_jsonable,
    read_action,
    read_int,
    read_list,
    read_object,
    read_one_of,
    read_str,
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
    return AgentId(read_int(resolved, "agent reference"))


# ---------------------------------------------------------------------------
# Task
# ---------------------------------------------------------------------------


class Task(Behavior):
    """One-shot behavior: run the action once, then expire.

    The action's own failure is traced and the task still finishes; one shot
    means one shot.
    """

    kind = "task"

    def __init__(self, action: ActionDescriptor):
        super().__init__()
        self.action = action

    def _step(self, ctx: AgentContext) -> StepOutcome:
        ctx.attempt(ctx.run_action, self.action, None, action=self.action.name)
        return DONE

    def _to_dict_body(self) -> dict[str, Any]:
        return {"action": self.action.to_jsonable()}

    @classmethod
    def _from_dict_body(cls, d: dict[str, Any]) -> "Task":
        return cls(ActionDescriptor.from_jsonable(d["action"]))


# ---------------------------------------------------------------------------
# Observer
# ---------------------------------------------------------------------------


class Observer(Behavior):
    """Check a predicate every ``period`` ticks; fire the handler on truth.

    The first check happens one period after the behavior starts, and all
    checks stay on that grid: checks that would fall while the agent is in
    transit are skipped, not shifted.
    """

    kind = "observer"
    # The last wait's outcome: derived, not serialized and not compared.
    _blocked: Optional[Blocked] = None

    def __init__(
        self,
        period: int,
        trigger: ActionDescriptor,
        handler: ActionDescriptor,
        mode: str = ONE_SHOT,
        *,
        _start: Optional[int] = None,
        _next_check: int = 0,
    ):
        super().__init__()
        self.period = read_int(period, "observer period")
        self.trigger = trigger
        self.handler = handler
        self._start = read_int(_start, "observer start", null=True)
        self._next_check = read_int(_next_check, "observer next_check")
        if period < 1:
            raise ZeroPeriod(f"observer period must be >= 1, got {period}")
        self.mode = read_one_of(mode, "mode", _MODES)

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

    def _to_dict_body(self) -> dict[str, Any]:
        return {
            "period": self.period,
            "trigger": self.trigger.to_jsonable(),
            "handler": self.handler.to_jsonable(),
            "mode": self.mode,
            "start": self._start,
            "next_check": self._next_check,
        }

    @classmethod
    def _from_dict_body(cls, d: dict[str, Any]) -> "Observer":
        return cls(
            period=d["period"],
            trigger=ActionDescriptor.from_jsonable(d["trigger"]),
            handler=ActionDescriptor.from_jsonable(d["handler"]),
            mode=d.get("mode", ONE_SHOT),
            _start=d.get("start"),
            _next_check=d.get("next_check", 0),
        )


# ---------------------------------------------------------------------------
# Listener
# ---------------------------------------------------------------------------


class Listener(Behavior):
    """Wait for a message matching ``type_filter`` ("*" grabs everything),
    then fire every callback in registration order with that message.

    The matched message is consumed; non-matching messages stay queued for
    other behaviors. One message is handled per step.
    """

    kind = "listener"

    def __init__(self, type_filter: str, callbacks: list[ActionDescriptor], mode: str = CYCLIC):
        super().__init__()
        # No message type matches "": such a listener would never hear.
        self.type_filter = read_str(type_filter, "listener filter", nonempty=True)
        if not callbacks:
            raise NoCallbacks("listener needs at least one callback")
        self.callbacks = list(callbacks)
        self.mode = read_one_of(mode, "mode", _MODES)

    def _step(self, ctx: AgentContext) -> StepOutcome:
        msg = ctx.take_message(self.type_filter)
        if msg is None:
            return Blocked(OnMessage(self.type_filter))
        for callback in self.callbacks:
            ctx.attempt(ctx.run_action, callback, msg, action=callback.name)
        if self.mode == ONE_SHOT:
            return DONE
        return Blocked(OnMessage(self.type_filter))

    def _to_dict_body(self) -> dict[str, Any]:
        return {
            "filter": self.type_filter,
            "callbacks": [c.to_jsonable() for c in self.callbacks],
            "mode": self.mode,
        }

    @classmethod
    def _from_dict_body(cls, d: dict[str, Any]) -> "Listener":
        return cls(
            type_filter=d["filter"],
            callbacks=[ActionDescriptor.from_jsonable(c) for c in read_list(d["callbacks"], "listener callbacks")],
            mode=d.get("mode", CYCLIC),
        )


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


@dataclass
class RequestEnvelope:
    """What a client asks of a server: a task plus the conversation id under
    which the result will come back. An empty ``result_slot`` means the
    client draws a fresh conversation id when it first steps."""

    task: ActionDescriptor
    result_slot: str = ""

    def __post_init__(self) -> None:
        read_str(self.result_slot, "request result_slot")

    def to_jsonable(self) -> dict[str, Any]:
        return {"task": self.task.to_jsonable(), "result_slot": self.result_slot}

    @classmethod
    def from_jsonable(cls, d: dict[str, Any]) -> "RequestEnvelope":
        return cls(ActionDescriptor.from_jsonable(read_object(d, "request")["task"]), d.get("result_slot", ""))


_INIT = "init"
_AWAIT_ACK = "await_ack"
_AWAIT_RESULT = "await_result"


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

    def __init__(
        self,
        server: Any,
        request: RequestEnvelope,
        ack_timeout: int = 50,
        result_timeout: int = 500,
        on_result: Optional[ActionDescriptor] = None,
        on_failure: Optional[ActionDescriptor] = None,
        *,
        _phase: str = _INIT,
        _conversation: str = "",
        _deadline: int = 0,
    ):
        super().__init__()
        marker = isinstance(server, dict) and set(server) == {"$state"} and isinstance(server["$state"], str)
        if not (_is_int(server) or marker):
            raise ValueError(f'client server must be an agent id value or a {{"$state": key}} marker, got {server!r}')
        self.server = server
        self.request = request
        self.ack_timeout = read_int(ack_timeout, "client ack_timeout")
        self.result_timeout = read_int(result_timeout, "client result_timeout")
        self.on_result = on_result
        self.on_failure = on_failure
        self._phase = read_one_of(_phase, "client phase", (_INIT, _AWAIT_ACK, _AWAIT_RESULT))
        self._conversation = read_str(_conversation, "client conversation")
        self._deadline = read_int(_deadline, "client deadline")
        if ack_timeout < 1 or result_timeout < 1:
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
            ctx.send(
                make_message(
                    ctx.agent_id, server_id, REQUEST, self._conversation, payload, sent_at=ctx.now
                )
            )
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

    def _to_dict_body(self) -> dict[str, Any]:
        return {
            "server": self.server,
            "request": self.request.to_jsonable(),
            "ack_timeout": self.ack_timeout,
            "result_timeout": self.result_timeout,
            "on_result": self.on_result.to_jsonable() if self.on_result else None,
            "on_failure": self.on_failure.to_jsonable() if self.on_failure else None,
            "phase": self._phase,
            "conversation": self._conversation,
            "deadline": self._deadline,
        }

    @classmethod
    def _from_dict_body(cls, d: dict[str, Any]) -> "Client":
        return cls(
            server=d["server"],
            request=RequestEnvelope.from_jsonable(d["request"]),
            ack_timeout=d.get("ack_timeout", 50),
            result_timeout=d.get("result_timeout", 500),
            on_result=read_action(d.get("on_result"), "client on_result"),
            on_failure=read_action(d.get("on_failure"), "client on_failure"),
            _phase=d.get("phase", _INIT),
            _conversation=d.get("conversation", ""),
            _deadline=d.get("deadline", 0),
        )


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

    def __init__(self, handler: Optional[ActionDescriptor] = None):
        super().__init__()
        self.handler = handler

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

    def _to_dict_body(self) -> dict[str, Any]:
        return {"handler": self.handler.to_jsonable() if self.handler else None}

    @classmethod
    def _from_dict_body(cls, d: dict[str, Any]) -> "Server":
        return cls(read_action(d.get("handler"), "server handler"))


@builtin_action("client_server.worker")
def _worker(ctx: AgentContext, params: Any, message: Optional[Message]) -> None:
    """One worker lifetime: ACK, compute, RESULT."""
    requester = AgentId(read_int(params["requester"], "worker requester"))
    conversation = params["conversation"]
    task = ActionDescriptor.from_jsonable(params["task"])
    request = message_from_jsonable(params["request"])
    ctx.send(make_message(ctx.agent_id, requester, ACK, conversation, b"", sent_at=ctx.now))
    ok, result = ctx.attempt(ctx.run_action, task, request, action=task.name, conversation=conversation)
    # The client still deserves a reply; errors ride the data channel.
    result = (result or b"") if ok else canonical_json({"error": result})
    ctx.send(make_message(ctx.agent_id, requester, RESULT, conversation, result, sent_at=ctx.now))


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
        make_message(
            ctx.agent_id,
            AgentId(read_int(resolved["to"], "send to")),
            resolved["type"],
            resolved.get("conversation", ""),
            data,
            sent_at=ctx.now,
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
