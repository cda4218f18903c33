"""Core runtime model: identities, virtual time, messages, and the behavior contract.

Everything an agent can be or do is expressed through the types here; the
platform modules only schedule them. All mutable agent state (the shell, the
key/value store, behavior internals) must stay JSON-serializable so an agent
can be detached, serialized, moved, and resumed at another location.
"""

from __future__ import annotations

import base64
import functools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterable, Optional

from .actions import resolve_action, resolve_predicate
from .errors import EmptyTypeTag, SteppingDone
from .trace import CANONICAL_ENCODER, EventKind

if TYPE_CHECKING:
    from .adapter import PlatformAdapter

# Simulation time is a dimensionless non-negative integer tick count.
Ticks = int

WILDCARD = "*"


@dataclass(frozen=True, order=True)
class AgentId:
    """Opaque runtime-assigned agent identity; never reused within a runtime."""

    value: int

    def __repr__(self) -> str:
        return f"AgentId({self.value})"


@dataclass(frozen=True, order=True)
class LocationId:
    """Opaque location identity plus its human-readable name.

    Equality and ordering use only ``value``; the name rides along for
    readable traces and serialized routes.
    """

    value: int
    name: str = field(compare=False)

    def __repr__(self) -> str:
        return f"LocationId({self.value}, {self.name!r})"


@dataclass(frozen=True)
class Message:
    """Typed, addressed unit of communication with an opaque payload."""

    sender: AgentId
    receiver: AgentId
    type_tag: str
    conversation_id: str
    payload: bytes
    sent_at: Ticks


def make_message(
    sender: AgentId,
    receiver: AgentId,
    type_tag: str,
    conversation_id: str,
    payload: bytes = b"",
    *,
    sent_at: Ticks = 0,
) -> Message:
    """Build a message, stamping it with the caller's clock reading.

    Raises EmptyTypeTag when ``type_tag`` is empty; self-addressed messages
    are legal.
    """
    if not type_tag:
        raise EmptyTypeTag("message type_tag must be non-empty")
    return Message(sender, receiver, type_tag, conversation_id, bytes(payload), sent_at)


def message_matches(msg: Message, type_filter: str, conversation: str | None = None) -> bool:
    """True when the message passes the type filter (``*`` matches all) and,
    if given, carries the expected conversation id."""
    if type_filter != WILDCARD and msg.type_tag != type_filter:
        return False
    if conversation is not None and msg.conversation_id != conversation:
        return False
    return True


# ---------------------------------------------------------------------------
# Wake conditions and step outcomes
# ---------------------------------------------------------------------------


class WakeCondition:
    """Base for the conditions a blocked behavior waits on.

    Each condition evaluates itself: ``satisfied`` says whether it holds for
    an agent's current situation and ``next_tick`` names the earliest tick
    at which time alone could make it hold (None when no tick can). A
    subclass that does not define ``satisfied`` is rejected when it is first
    checked.

    Wake conditions are immutable values. A behavior may return the same
    instance from many steps, and many behaviors may share one; the runtimes
    never mutate a wake or compare wakes by identity.
    """

    def satisfied(self, now: Ticks, shell: AgentShell, in_transit: bool) -> bool:
        raise TypeError(f"unknown wake condition {self!r}")

    def next_tick(self) -> Ticks | None:
        return None


@dataclass(frozen=True)
class AtTime(WakeCondition):
    """Wake once the clock reaches ``tick`` (clock >= tick)."""

    tick: Ticks

    def satisfied(self, now: Ticks, shell: AgentShell, in_transit: bool) -> bool:
        return now >= self.tick

    def next_tick(self) -> Ticks | None:
        return self.tick


@dataclass(frozen=True)
class OnMessage(WakeCondition):
    """Wake when the inbox holds a message matching ``type_filter``."""

    type_filter: str = WILDCARD

    def satisfied(self, now: Ticks, shell: AgentShell, in_transit: bool) -> bool:
        type_filter = self.type_filter
        if type_filter == WILDCARD:
            return bool(shell.inbox)
        for msg in shell.inbox:
            if msg.type_tag == type_filter:
                return True
        return False


@dataclass(frozen=True)
class OnArrival(WakeCondition):
    """Wake once the agent is present (not in transit) at ``location``."""

    location: LocationId

    def satisfied(self, now: Ticks, shell: AgentShell, in_transit: bool) -> bool:
        return not in_transit and shell.current == self.location


@dataclass(frozen=True)
class AnyOf(WakeCondition):
    """Wake when any member condition is satisfied.

    Needed by composites whose children block on different conditions, and by
    behaviors that race a message against a deadline.
    """

    members: tuple[WakeCondition, ...]

    def __init__(self, members: Iterable[WakeCondition]):
        object.__setattr__(self, "members", tuple(members))

    def satisfied(self, now: Ticks, shell: AgentShell, in_transit: bool) -> bool:
        for member in self.members:
            if member.satisfied(now, shell, in_transit):
                return True
        return False

    def next_tick(self) -> Ticks | None:
        earliest = None
        for member in self.members:
            tick = member.next_tick()
            if tick is not None and (earliest is None or tick < earliest):
                earliest = tick
        return earliest


@dataclass(frozen=True)
class Never(WakeCondition):
    """A condition that is never satisfied; blocks the behavior permanently
    without keeping the runtime busy."""

    def satisfied(self, now: Ticks, shell: AgentShell, in_transit: bool) -> bool:
        return False


class StepOutcome:
    """Base for what a behavior reports after one step.

    Outcomes are immutable values, like the wakes they carry: a behavior may
    return one shared instance (``RUNNING``, ``DONE`` or a module constant
    such as ``Blocked(OnMessage(REQUEST))``) from every step. The runtimes
    never mutate an outcome or compare outcomes by identity; they tell them
    apart with ``isinstance``, so subclasses of ``Running``, ``Blocked`` and
    ``Done`` behave as their bases.
    """


@dataclass(frozen=True)
class Running(StepOutcome):
    """The behavior made progress and wants another step next tick."""


@dataclass(frozen=True)
class Done(StepOutcome):
    """The behavior finished; the runtime must never step it again."""


@dataclass(frozen=True)
class Blocked(StepOutcome):
    """The behavior is waiting; step it again once ``wake`` is satisfied.

    Runtimes may also step a blocked behavior early (for example right after
    a migration); behaviors must treat such spurious steps as no-ops. A
    Blocked is an immutable value that may be shared across steps and
    behaviors (see StepOutcome).
    """

    wake: WakeCondition


RUNNING = Running()
DONE = Done()


class CancelBehavior(BaseException):
    """Raised by user code to end the behavior being stepped.

    Whichever action, callback, activity or predicate raises it, the
    behavior whose step is running finishes (``Behavior.step`` turns the
    cancel into ``Done``); effects buffered before the cancel are kept.
    Derives from BaseException so ``AgentContext.attempt``, which traces
    ordinary errors and carries on, does not swallow it.
    """


# ---------------------------------------------------------------------------
# Behavior contract
# ---------------------------------------------------------------------------

_BEHAVIOR_KINDS: dict[str, type["Behavior"]] = {}


def behavior_kinds() -> dict[str, type["Behavior"]]:
    """Snapshot of all registered behavior kinds (kind name -> class)."""
    return dict(_BEHAVIOR_KINDS)


class Behavior:
    """A resumable unit of agent activity, advanced one quantum per step.

    Subclasses set a class-level ``kind`` string (which auto-registers them
    for deserialization) and implement ``_step``, ``_to_dict_body`` and
    ``_from_dict_body``. Two behaviors compare equal when their serialized
    forms match, internal progress included.
    """

    kind: ClassVar[str]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("kind")
        if kind is None:
            return
        existing = _BEHAVIOR_KINDS.get(kind)
        if existing is not None and existing is not cls:
            raise ValueError(f"behavior kind {kind!r} already registered by {existing.__name__}")
        _BEHAVIOR_KINDS[kind] = cls

    def __init__(self) -> None:
        self._finished = False

    @property
    def finished(self) -> bool:
        return self._finished

    def step(self, ctx: "AgentContext") -> StepOutcome:
        """Advance exactly one quantum. Raises SteppingDone after Done.

        A CancelBehavior raised during the step finishes this behavior."""
        if self._finished:
            raise SteppingDone(f"behavior {self.kind!r} stepped after completion")
        try:
            outcome = self._step(ctx)
        except CancelBehavior:
            outcome = DONE
        if isinstance(outcome, Done):
            self._finished = True
        return outcome

    def _step(self, ctx: "AgentContext") -> StepOutcome:
        raise NotImplementedError

    # Serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"kind": self.kind, "done": self._finished}
        d.update(self._to_dict_body())
        return d

    def _to_dict_body(self) -> dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def _from_dict_body(cls, d: dict[str, Any]) -> "Behavior":
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Behavior):
            return NotImplemented
        return type(other) is type(self) and other.to_dict() == self.to_dict()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} done={self._finished}>"


def behavior_from_dict(d: dict[str, Any]) -> Behavior:
    """Rebuild a behavior from its serialized form, dispatching on ``kind``."""
    kind = d.get("kind")
    cls = _BEHAVIOR_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown behavior kind {kind!r}")
    behavior = cls._from_dict_body(d)
    behavior._finished = bool(d.get("done", False))
    return behavior


def clone_behavior(behavior: Behavior) -> Behavior:
    """Fresh copy of a behavior via a serialization round-trip."""
    return behavior_from_dict(behavior.to_dict())


# ---------------------------------------------------------------------------
# Canonical JSON helpers
# ---------------------------------------------------------------------------


def canonical_json(value: Any) -> bytes:
    """Deterministic JSON encoding: sorted keys, no whitespace, ASCII only."""
    return CANONICAL_ENCODER.encode(value).encode()


def encode_payload(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def decode_payload(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


def location_to_jsonable(loc: LocationId) -> dict[str, Any]:
    return {"value": loc.value, "name": loc.name}


@functools.lru_cache(maxsize=1024)
def _location(value: int, name: str) -> LocationId:
    return LocationId(value, name)


def location_from_jsonable(d: dict[str, Any]) -> LocationId:
    # LocationId is immutable, so every decode of the same pair may share one.
    return _location(int(d["value"]), str(d["name"]))


def message_to_jsonable(msg: Message) -> dict[str, Any]:
    return {
        "sender": msg.sender.value,
        "receiver": msg.receiver.value,
        "type": msg.type_tag,
        "conversation": msg.conversation_id,
        "payload": encode_payload(msg.payload),
        "sent_at": msg.sent_at,
    }


def message_from_jsonable(d: dict[str, Any]) -> Message:
    return Message(
        sender=AgentId(int(d["sender"])),
        receiver=AgentId(int(d["receiver"])),
        type_tag=str(d["type"]),
        conversation_id=str(d["conversation"]),
        payload=decode_payload(d["payload"]),
        sent_at=int(d["sent_at"]),
    )


# ---------------------------------------------------------------------------
# Agent shell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MigrationReport:
    """What an agent knows about its most recent completed move."""

    src: LocationId
    dest: LocationId
    latency: Ticks
    arrived_at: Ticks


@dataclass
class AgentShell:
    """Identity, whereabouts, attached behaviors, and serializable user state."""

    id: AgentId
    home: LocationId
    current: LocationId
    behaviors: list[Behavior]
    state: dict[str, Any] = field(default_factory=dict)
    inbox: deque[Message] = field(default_factory=deque)


def serialize_shell(shell: AgentShell) -> bytes:
    """Encode a whole shell (behavior internals included) as canonical JSON."""
    return canonical_json(
        {
            "id": shell.id.value,
            "home": location_to_jsonable(shell.home),
            "current": location_to_jsonable(shell.current),
            "behaviors": [b.to_dict() for b in shell.behaviors],
            "state": shell.state,
            "inbox": [message_to_jsonable(m) for m in shell.inbox],
        }
    )


def deserialize_shell(data: bytes) -> AgentShell:
    d = json.loads(data)
    return AgentShell(
        id=AgentId(int(d["id"])),
        home=location_from_jsonable(d["home"]),
        current=location_from_jsonable(d["current"]),
        behaviors=[behavior_from_dict(b) for b in d["behaviors"]],
        state=d["state"],
        inbox=deque(message_from_jsonable(m) for m in d["inbox"]),
    )


# ---------------------------------------------------------------------------
# Step context and buffered effects
# ---------------------------------------------------------------------------


@dataclass
class SendEffect:
    message: Message

    def apply(self, platform: PlatformAdapter, agent: AgentId) -> None:
        platform.send(self.message)


@dataclass
class SpawnEffect:
    agent_id: AgentId
    at: LocationId
    behaviors: list[Behavior]

    def apply(self, platform: PlatformAdapter, agent: AgentId) -> None:
        platform.spawn_agent(self.at, self.behaviors, self.agent_id)


@dataclass
class MigrateEffect:
    dest: LocationId

    def apply(self, platform: PlatformAdapter, agent: AgentId) -> None:
        platform.migrate(agent, self.dest)


@dataclass
class AttachEffect:
    target: AgentId
    behavior: Behavior

    def apply(self, platform: PlatformAdapter, agent: AgentId) -> None:
        platform.attach_behavior(self.target, self.behavior)


@dataclass
class TraceEffect:
    kind: EventKind
    detail: dict[str, Any]

    def apply(self, platform: PlatformAdapter, agent: AgentId) -> None:
        platform.trace().emit(platform.now(), self.kind, agent, self.detail)


Effect = SendEffect | SpawnEffect | MigrateEffect | AttachEffect | TraceEffect


# Value -> member, so a step's trace skips the Enum call machinery; a miss
# (or an unhashable kind) still goes through EventKind(kind) for its
# ValueError.
_EVENT_KINDS = {kind.value: kind for kind in EventKind}

# What a trace detail may hold: JSON's scalars (a bool is an int) and its
# containers, dicts keyed by str.
_LEAVES = (str, int, float, type(None))


def _copied(value: Any) -> Any:
    """A copy of a detail value that shares no dict or list with it. Raises
    TypeError for a value JSON cannot encode or a dict key that is not a str."""
    if isinstance(value, _LEAVES):
        return value
    if isinstance(value, dict):
        return {_checked_key(key): _copied(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copied(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_copied(item) for item in value)
    raise TypeError(f"trace detail: object of type {type(value).__name__} is not JSON serializable")


def _checked_key(key: Any) -> str:
    if not isinstance(key, str):
        raise TypeError(f"trace detail: key {key!r} is not a str")
    return key


class AgentContext:
    """What a behavior sees and may do during one step on ``platform``.

    Reads (clock, inbox, state) act on the live shell; writes that touch the
    wider world (sends, spawns, migrations, attachments, trace events) are
    buffered in ``effects``. Each effect is a deferred call to one of the
    platform's own public methods (``send``, ``spawn_agent``, ``migrate``,
    ``attach_behavior``, ``trace().emit``), so an effect does exactly what
    the same call from outside would do at the step's tick. The runtime
    calls ``commit`` when the step returns and before any other behavior
    steps: it applies the effects in order and traces ``behavior_done``.

    A context lives for one step and is slotted: it takes no attributes
    beyond its own. Data a behavior keeps between steps belongs on the
    behavior (serialized with it) or in ``ctx.state``. The outcome a step
    returns and the wakes it carries are immutable values, which the
    runtimes never mutate (see StepOutcome and WakeCondition).
    """

    __slots__ = ("now", "_shell", "_platform", "last_migration", "effects")

    def __init__(
        self,
        now: Ticks,
        shell: AgentShell,
        platform: PlatformAdapter,
        last_migration: Optional[MigrationReport] = None,
    ) -> None:
        self.now = now
        self._shell = shell
        self._platform = platform
        self.last_migration = last_migration
        self.effects: list[Effect] = []

    def commit(self, outcome: StepOutcome, kind: str, slot: int) -> None:
        """The step policy both runtimes share: apply the step's effects in
        order, then, if ``outcome`` is Done, trace ``behavior_done`` for the
        behavior of ``kind`` at index ``slot``, even when an effect raises.
        The runtime records ``outcome`` before it calls this, so a ``run()``
        after a raising effect schedules from that outcome."""
        platform = self._platform
        agent = self._shell.id
        try:
            for effect in self.effects:
                effect.apply(platform, agent)
        finally:
            if isinstance(outcome, Done):
                platform.trace().emit(self.now, EventKind.BEHAVIOR_DONE, agent, {"kind": kind, "slot": slot})

    # Read surface ----------------------------------------------------------

    @property
    def agent_id(self) -> AgentId:
        return self._shell.id

    @property
    def home(self) -> LocationId:
        return self._shell.home

    @property
    def location(self) -> LocationId:
        return self._shell.current

    @property
    def state(self) -> dict[str, Any]:
        return self._shell.state

    def take_message(self, type_filter: str = WILDCARD, conversation: str | None = None) -> Message | None:
        """Remove and return the oldest matching message; non-matching
        messages stay queued for other behaviors."""
        for msg in self._shell.inbox:
            if message_matches(msg, type_filter, conversation):
                self._shell.inbox.remove(msg)
                return msg
        return None

    # Effect surface --------------------------------------------------------

    def send(self, msg: Message) -> None:
        self.effects.append(SendEffect(msg))

    def spawn(self, at: LocationId, behaviors: list[Behavior]) -> AgentId:
        """Request a new agent; its id is reserved immediately, the agent
        materializes when the step's effects are applied."""
        agent_id = self._platform.reserve_agent_id()
        self.effects.append(SpawnEffect(agent_id, at, list(behaviors)))
        return agent_id

    def request_migration(self, dest: LocationId) -> None:
        self.effects.append(MigrateEffect(dest))

    def attach_behavior(self, target: AgentId, behavior: Behavior) -> None:
        """Append a behavior to ``target``'s list; it first steps at the tick
        after this one (or, if ``target`` is in transit, at the tick after
        it arrives)."""
        self.effects.append(AttachEffect(target, behavior))

    def trace(self, detail: dict[str, Any], kind: str = "custom") -> None:
        """Record a trace event. Raises ValueError for a ``kind`` that is not
        an EventKind value, and TypeError for a ``detail`` JSON cannot encode
        (see ``_copied``), before any effect of the step is applied.

        The event keeps a copy of ``detail`` that shares no dict or list
        with it, so later changes to agent state do not rewrite it."""
        try:
            event_kind = _EVENT_KINDS[kind]
        except (KeyError, TypeError):
            event_kind = EventKind(kind)
        copy = dict(detail)
        for key, value in copy.items():
            if not (isinstance(value, _LEAVES) and isinstance(key, str)):
                copy[_checked_key(key)] = _copied(value)
        self.effects.append(TraceEffect(event_kind, copy))

    def new_conversation_id(self) -> str:
        return self._platform.new_conversation_id()

    # Action dispatch -------------------------------------------------------

    def attempt(self, fn: Callable[..., Any], /, *args: Any, **detail: Any) -> tuple[bool, Any]:
        """Run user code without letting its failure escape the step.

        Returns ``(True, fn(*args))``. If ``fn`` raises an Exception, the
        effects it buffered are dropped, so a failed action is never
        half-applied, the error is traced as ``{"error": message, **detail}``
        and ``(False, message)`` is returned. CancelBehavior passes through.
        """
        mark = len(self.effects)
        try:
            return True, fn(*args)
        except Exception as exc:
            del self.effects[mark:]
            error = str(exc)
            self.trace({"error": error, **detail})
            return False, error

    def run_action(self, descriptor: Any, message: Message | None = None) -> bytes | None:
        fn = resolve_action(descriptor.name)
        return fn(self, descriptor.params, message)

    def run_predicate(self, descriptor: Any) -> bool:
        fn = resolve_predicate(descriptor.name)
        return bool(fn(self, descriptor.params))


def wake_satisfied(
    wake: WakeCondition,
    *,
    now: Ticks,
    shell: AgentShell,
    in_transit: bool,
) -> bool:
    """Evaluate a wake condition against an agent's current situation."""
    return wake.satisfied(now, shell, in_transit)


def next_wake_time(wake: WakeCondition) -> Ticks | None:
    """Earliest future tick at which a time-based wake could fire, if any."""
    return wake.next_tick()
