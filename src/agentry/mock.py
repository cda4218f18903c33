"""A second, intentionally naive platform implementation.

Same hosting contract as the simulator, different machinery: fixed integer
delays instead of latency models, plain lists instead of priority queues, and
a clock that walks every tick instead of skipping idle stretches. Behaviors
cannot tell the two apart; the test suite runs against both to prove they
only depend on the adapter contract.

Each behavior records the first tick it may step, and one rule,
``_next_step``, says when it may step next: a tick steps exactly the
behaviors whose next step is that tick, and a run to quiescence stops at the
first tick from which no behavior will ever step again.

The step policy is the simulator's: ``AgentContext.commit`` applies a step's
effects through this platform's own public methods at the step's tick and
traces ``behavior_done``. Only the scheduling is this platform's own, and it
is what the sim == mock tests compare.

A tick is committed when it starts: ``_first_unprocessed`` becomes ``tick +
1`` before anything happens at it, so every spawn first steps at
``_first_unprocessed``, and a ``run()`` after a step or effect raised resumes
at the next tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from .errors import (
    AlreadyMigrating,
    DuplicateLocationName,
    TickBudgetExceeded,
    UnknownAgent,
    UnknownLocation,
)
from .model import (
    AgentContext,
    AgentId,
    AgentShell,
    Behavior,
    Blocked,
    LocationId,
    Message,
    MigrationReport,
    Running,
    Ticks,
    deserialize_shell,
    read_instance,
    read_int,
    read_items,
    read_str,
    read_type,
    serialize_shell,
)
from .trace import EventKind, TraceLog


@dataclass
class _Mail:
    due: Ticks
    seq: int
    msg: Message


@dataclass
class _Entry:
    shell: AgentShell
    outcomes: list[Any]
    first_steps: list[Ticks]
    alive: bool = True
    # The last move (see MigrationReport); the agent is traveling while
    # ``blob`` holds its shell, and behaviors attached meanwhile wait.
    trip: Optional[MigrationReport] = None
    blob: Optional[bytes] = None
    deferred_attach: list[Behavior] = field(default_factory=list)

    @property
    def traveling(self) -> bool:
        return self.blob is not None


class MockPlatform:
    """Linear-scan in-memory platform with fixed delays."""

    def __init__(
        self,
        message_delay: Ticks = 1,
        migration_delay: Ticks = 1,
        max_ticks: Ticks = 10_000,
    ) -> None:
        self.message_delay = read_int(message_delay, "message_delay", 0)
        self.migration_delay = read_int(migration_delay, "migration_delay", 0)
        self.max_ticks = read_int(max_ticks, "max_ticks", 0)
        self._locations: list[LocationId] = []
        self._entries: dict[AgentId, _Entry] = {}
        self._mail: list[_Mail] = []
        self._seq = 0
        self._ids_given = 0
        self._log = TraceLog()
        self._clock: Ticks = 0
        self._first_unprocessed: Ticks = 0
        self._conversations = 0

    # Locations -------------------------------------------------------------

    def create_location(self, name: str) -> LocationId:
        read_str(name, "location name")
        for loc in self._locations:
            if loc.name == name:
                raise DuplicateLocationName(f"location name {name!r} already in use")
        loc = LocationId(len(self._locations) + 1, name)
        self._locations.append(loc)
        return loc

    def locations(self) -> list[LocationId]:
        return list(self._locations)

    def location_named(self, name: str) -> LocationId:
        for loc in self._locations:
            if loc.name == name:
                return loc
        raise UnknownLocation(f"no location named {name!r}")

    def _require_location(self, loc: LocationId) -> None:
        if loc not in self._locations:
            raise UnknownLocation(f"location {loc!r} does not belong to this runtime")

    # Agents ----------------------------------------------------------------

    def reserve_agent_id(self) -> AgentId:
        self._ids_given += 1
        return AgentId(self._ids_given)

    def spawn_agent(
        self,
        at: LocationId,
        behaviors: list[Behavior],
        agent_id: Optional[AgentId] = None,
    ) -> AgentId:
        self._require_location(read_type(at, "spawn location", LocationId, "a LocationId"))
        behaviors = read_items(behaviors, "spawned behaviors", Behavior)
        agent_id = None if agent_id is None else read_type(agent_id, "spawned agent id", AgentId, "an AgentId")
        if agent_id is None:
            agent_id = self.reserve_agent_id()
        elif not 0 < agent_id.value <= self._ids_given or agent_id in self._entries:
            raise ValueError(f"agent id {agent_id!r} was not reserved or is already in use")
        shell = AgentShell(id=agent_id, home=at, current=at, behaviors=behaviors)
        self._entries[agent_id] = _Entry(
            shell=shell,
            outcomes=[None] * len(shell.behaviors),
            first_steps=[self._first_unprocessed] * len(shell.behaviors),
        )
        self._log.emit(self._clock, EventKind.SPAWN, agent_id, {"at": at.name})
        return agent_id

    def _entry(self, agent: AgentId) -> _Entry:
        entry = self._entries.get(agent)
        if entry is None:
            raise UnknownAgent(f"no agent {agent!r}")
        return entry

    def agent_location(self, agent: AgentId) -> Optional[LocationId]:
        entry = self._entry(agent)
        # dead agents keep reporting their final resting place
        return None if entry.traveling else entry.shell.current

    def agents_at(self, location: LocationId) -> list[AgentId]:
        self._require_location(location)
        found = []
        for agent_id, entry in self._entries.items():
            if entry.alive and not entry.traveling and entry.shell.current == location:
                found.append(agent_id)
        return found

    def is_alive(self, agent: AgentId) -> bool:
        entry = self._entries.get(agent)
        return entry is not None and entry.alive

    def agent_state(self, agent: AgentId) -> dict[str, Any]:
        entry = self._entry(agent)
        if entry.traveling:
            return dict(deserialize_shell(entry.blob).state)
        return dict(entry.shell.state)

    # Messaging and migration ----------------------------------------------

    def send(self, msg: Message) -> None:
        read_instance(msg, "sent message", Message)
        sender = self._entry(msg.sender)
        if not sender.alive:
            raise UnknownAgent(f"agent {msg.sender!r} has terminated")
        # A step may move and then send, in the tick its move began.
        if sender.traveling and sender.trip.arrived_at - sender.trip.latency < self._clock:
            raise AlreadyMigrating(f"agent {msg.sender!r} is in transit")
        self._mail.append(_Mail(self._clock + self.message_delay, self._seq, msg))
        self._seq += 1
        self._log.emit(
            self._clock,
            EventKind.SEND,
            msg.sender,
            {"type": msg.type_tag, "to": msg.receiver.value, "conversation": msg.conversation_id},
        )

    def migrate(self, agent: AgentId, dest: LocationId) -> None:
        if dest.__class__ is not LocationId or agent.__class__ is not AgentId:  # a move pays no call
            read_type(dest, "migration destination", LocationId, "a LocationId")
            read_type(agent, "migrating agent", AgentId, "an AgentId")
        self._require_location(dest)
        entry = self._entry(agent)
        if entry.traveling:
            raise AlreadyMigrating(f"agent {agent!r} is already in transit")
        if not entry.alive:
            raise UnknownAgent(f"agent {agent!r} has terminated")
        src = entry.shell.current
        # Serialize first: state that will not serialize must not leave a
        # migrate_start behind.
        entry.blob = serialize_shell(entry.shell)
        self._log.emit(self._clock, EventKind.MIGRATE_START, agent, {"from": src.name, "to": dest.name})
        entry.trip = MigrationReport(src, dest, self.migration_delay, self._clock + self.migration_delay)

    def attach_behavior(self, target: AgentId, behavior: Behavior) -> None:
        entry = self._entry(read_type(target, "attach target", AgentId, "an AgentId"))
        if not entry.alive:
            raise UnknownAgent(f"agent {target!r} has terminated")
        read_instance(behavior, "attached behavior", Behavior)
        if entry.traveling:
            entry.deferred_attach.append(behavior)
            return
        entry.shell.behaviors.append(behavior)
        entry.outcomes.append(None)
        entry.first_steps.append(self._clock + 1)

    # Clock and run loop ----------------------------------------------------

    def now(self) -> Ticks:
        return self._clock

    def trace(self) -> TraceLog:
        return self._log

    def new_conversation_id(self) -> str:
        self._conversations += 1
        return f"c{self._conversations}"

    def run(self, until: Optional[Ticks] = None) -> TraceLog:
        read_int(until, "run until", 0, null=True)
        tick = self._first_unprocessed
        while True:
            if until is not None and tick > until:
                break
            if until is None:
                work = self._next_work(tick)
                if work is None:
                    break
                if tick > self.max_ticks:
                    raise TickBudgetExceeded(
                        f"no quiescence by tick {self.max_ticks} (next work at {work})"
                    )
            self._one_tick(tick)
            tick += 1
        return self._log

    def _next_work(self, from_tick: Ticks) -> Optional[Ticks]:
        """The first tick at or after from_tick at which something happens,
        or None when nothing ever will."""
        ticks = [mail.due for mail in self._mail]
        for entry in self._entries.values():
            if entry.traveling:
                ticks.append(entry.trip.arrived_at)
            elif entry.alive:
                if all(b.finished for b in entry.shell.behaviors):
                    ticks.append(from_tick)  # buried at from_tick
                for i in range(len(entry.shell.behaviors)):
                    tick = self._next_step(entry, i, from_tick)
                    if tick is not None:
                        ticks.append(tick)
        return max(min(ticks), from_tick) if ticks else None

    def _one_tick(self, tick: Ticks) -> None:
        self._clock = tick
        self._first_unprocessed = tick + 1
        self._land_travelers(tick, first_step=tick)
        self._deliver(tick)
        self._step_all(tick)
        while True:
            moved = self._land_travelers(tick, first_step=tick + 1)
            moved = self._deliver(tick) or moved
            if not moved:
                break
        self._bury_finished(tick)

    def _land_travelers(self, tick: Ticks, first_step: Ticks) -> bool:
        landed = False
        arrivals = []
        for agent_id, entry in self._entries.items():
            if entry.traveling and entry.trip.arrived_at <= tick:
                arrivals.append((entry.trip.arrived_at, agent_id))
        for _, agent_id in sorted(arrivals):
            entry = self._entries[agent_id]
            trip = entry.trip = replace(entry.trip, arrived_at=tick)  # the tick it landed
            shell = deserialize_shell(entry.blob)
            shell.current = trip.dest
            entry.shell = shell
            entry.blob = None
            entry.outcomes = [None] * len(shell.behaviors)
            entry.first_steps = [first_step] * len(shell.behaviors)
            for behavior in entry.deferred_attach:
                shell.behaviors.append(behavior)
                entry.outcomes.append(None)
                entry.first_steps.append(tick + 1)
            entry.deferred_attach = []
            self._log.emit(
                tick,
                EventKind.MIGRATE_END,
                agent_id,
                {"from": trip.src.name, "to": trip.dest.name, "latency": trip.latency},
            )
            landed = True
        return landed

    def _deliver(self, tick: Ticks) -> bool:
        due = sorted(
            (m for m in self._mail if m.due <= tick), key=lambda m: (m.due, m.seq)
        )
        if not due:
            return False
        progressed = False
        for mail in due:
            entry = self._entries.get(mail.msg.receiver)
            info = {
                "type": mail.msg.type_tag,
                "from": mail.msg.sender.value,
                "conversation": mail.msg.conversation_id,
            }
            if entry is not None and entry.traveling:
                mail.due = entry.trip.arrived_at  # wait for the traveler
                continue
            self._mail.remove(mail)
            progressed = True
            if entry is None or not entry.alive:
                reason = "unknown agent" if entry is None else "terminated"
                self._log.emit(tick, EventKind.DELIVER, mail.msg.receiver, {**info, "failed": True, "reason": reason})
            else:
                entry.shell.inbox.append(mail.msg)
                self._log.emit(tick, EventKind.DELIVER, mail.msg.receiver, info)
        return progressed

    def _step_all(self, tick: Ticks) -> None:
        for entry in list(self._entries.values()):
            for i in range(len(entry.shell.behaviors)):
                if not entry.alive or entry.traveling:
                    break
                if self._next_step(entry, i, tick) != tick:
                    continue
                behavior = entry.shell.behaviors[i]
                ctx = AgentContext(tick, entry.shell, self, entry.trip)
                entry.outcomes[i] = outcome = behavior.step(ctx)
                ctx.commit(outcome, behavior.kind, i)

    def _next_step(self, entry: _Entry, i: int, from_tick: Ticks) -> Optional[Ticks]:
        """The first tick at or after ``from_tick`` at which behavior ``i``
        may step as things stand, or None if only a delivery or an arrival
        can wake it."""
        if entry.shell.behaviors[i].finished:
            return None
        tick = max(entry.first_steps[i], from_tick)
        out = entry.outcomes[i]
        if out is None or isinstance(out, Running):
            return tick
        if isinstance(out, Blocked):
            if out.wake.satisfied(tick, entry.shell):
                return tick
            wake_at = out.wake.next_tick()
            if wake_at is not None:
                return max(wake_at, tick)
        return None

    def _bury_finished(self, tick: Ticks) -> None:
        for agent_id, entry in self._entries.items():
            if not entry.alive or entry.traveling:
                continue
            if all(b.finished for b in entry.shell.behaviors):
                entry.alive = False
                self._log.emit(tick, EventKind.TERMINATE, agent_id, {})
