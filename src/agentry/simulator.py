"""Deterministic discrete-event simulated platform.

One runtime hosts named locations and the agents living on them, advancing an
integer tick clock. Work is processed tick by tick (idle stretches are
skipped) in a fixed phase order:

1. finish migrations due this tick,
2. deliver messages due this tick,
3. step every runnable behavior (agent spawn order, behavior list order),
   applying each step's buffered effects immediately after it returns,
4. sweep zero-latency arrivals and deliveries produced during phase 3,
5. terminate agents whose behaviors have all finished.

The step policy is shared with every runtime: ``AgentContext.commit`` applies
a step's effects by calling this platform's own public methods (``send``,
``spawn_agent``, ``migrate``, ``attach_behavior``) at the step's tick and
traces ``behavior_done``. The scheduling, which slot steps at which tick, is
this platform's own.

A tick is committed when it starts: before phase 1, ``_next_tick`` becomes
``tick + 1``, the first tick whose processing has not started. Every spawn,
from outside or from an effect, first steps at ``_next_tick``, and a
``run()`` after a step or effect raised resumes at the next tick instead of
processing the raising tick again.

The phases read indexes instead of scanning every agent ever spawned, so the
cost of a tick follows the work due at it. Phase and step order are the same
as a full scan would give:

* the *arrivals heap* of ``(arrive_tick, agent value, id)`` feeds phases 1
  and 4, and the *message heap* of ``(due, send seq, message)`` phases 2
  and 4;
* the *candidate set* of spawn indexes feeds phase 3, walked in spawn order.
  An agent joins it when it is spawned, gets a behavior attached, receives a
  delivery or finishes an arrival, and stays in it while it steps;
* the *timer heap* of ``(tick, spawn index)`` holds every other agent that
  has a time-based wake, at its earliest one. Entries are skipped lazily:
  only the one matching the record's ``wake_at`` is live. Due entries move
  their agent into the candidate set at the start of the tick;
* the *maybe-done set* (spawned, arrived, or finished a behavior this tick)
  feeds phase 5. An agent in it with no unfinished behavior is work at the
  next tick, so even one spawned from outside with none terminates. A
  terminated agent drops its behaviors; its state and location stay.

Each slot records the first tick it may step (``first_step``), and one rule,
``_slot_next_tick``, says when a slot may step next: the step phase steps a
slot exactly when that is the current tick. Before the clock moves, every
candidate is re-checked with the same rule. Those that cannot step at the
next tick move to the timer heap or, with no time-based wake, leave the
indexes until a delivery, attach or arrival brings them back. So the next
tick processed is exactly the earliest one with work, and a tick with
nothing to do is never processed.

All randomness (latency draws) comes from one seeded generator, so a given
config and scenario always yields a byte-identical trace.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Optional, Protocol

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
    Done,
    LocationId,
    Message,
    MigrationReport,
    Running,
    Ticks,
    deserialize_shell,
    next_wake_time,
    serialize_shell,
    wake_satisfied,
)
from .trace import EventKind, TraceLog


class LatencyModel(Protocol):
    def sample(self, rng: random.Random, src: LocationId, dst: LocationId) -> Ticks: ...


@dataclass(frozen=True)
class Fixed:
    """Constant latency in ticks."""

    ticks: Ticks

    def __post_init__(self) -> None:
        if self.ticks < 0:
            raise ValueError("latency must be non-negative")

    def sample(self, rng: random.Random, src: LocationId, dst: LocationId) -> Ticks:
        return self.ticks


@dataclass(frozen=True)
class UniformRange:
    """Latency drawn uniformly from [lo, hi] (inclusive) per send/migration."""

    lo: Ticks
    hi: Ticks

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi:
            raise ValueError("require 0 <= lo <= hi")

    def sample(self, rng: random.Random, src: LocationId, dst: LocationId) -> Ticks:
        return rng.randint(self.lo, self.hi)


@dataclass(frozen=True)
class PerLink:
    """Fixed latency per ordered (source name, destination name) pair."""

    table: dict[tuple[str, str], Ticks]
    default: Ticks = 1

    def __post_init__(self) -> None:
        if self.default < 0 or any(ticks < 0 for ticks in self.table.values()):
            raise ValueError("latency must be non-negative")

    def sample(self, rng: random.Random, src: LocationId, dst: LocationId) -> Ticks:
        return self.table.get((src.name, dst.name), self.default)


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    message_latency: LatencyModel = Fixed(1)
    migration_latency: LatencyModel = Fixed(1)
    max_ticks: Ticks = 10_000


@dataclass
class _Slot:
    """Per-behavior bookkeeping: last outcome and the first tick it may step."""

    behavior: Behavior
    first_step: Ticks
    outcome: Any = None


_ACTIVE = "active"
_MIGRATING = "migrating"
_TERMINATED = "terminated"


@dataclass
class _AgentRecord:
    shell: AgentShell
    slots: list[_Slot]
    index: int  # spawn order
    status: str = _ACTIVE
    # Tick of the live timer-heap entry; None while a candidate or asleep.
    wake_at: Optional[Ticks] = None
    # Transit bookkeeping, meaningful while status == _MIGRATING.
    blob: bytes = b""
    transit_from: Optional[LocationId] = None
    dest: Optional[LocationId] = None
    arrive_tick: Ticks = -1
    transit_latency: Ticks = 0
    pending_attach: list[Behavior] = field(default_factory=list)
    last_migration: Optional[MigrationReport] = None


class SimPlatform:
    """The event-driven simulated platform (see module docstring)."""

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        self._config = config or SimConfig()
        self._rng = random.Random(self._config.seed)
        self._locs_by_name: dict[str, LocationId] = {}
        self._agents: dict[AgentId, _AgentRecord] = {}
        self._records: list[_AgentRecord] = []  # by spawn index
        self._candidates: set[int] = set()
        self._timers: list[tuple[Ticks, int]] = []
        self._arrivals: list[tuple[Ticks, int, AgentId]] = []
        self._maybe_done: set[int] = set()
        self._next_agent_value = 1
        self._next_loc_value = 1
        self._heap: list[tuple[Ticks, int, Message]] = []
        self._send_seq = 0
        self._log = TraceLog()
        self._clock: Ticks = 0
        self._next_tick: Ticks = 0
        self._conv_counter = 0

    # Config ----------------------------------------------------------------

    @property
    def config(self) -> SimConfig:
        return self._config

    # Locations -------------------------------------------------------------

    def create_location(self, name: str) -> LocationId:
        if name in self._locs_by_name:
            raise DuplicateLocationName(f"location name {name!r} already in use")
        loc = LocationId(self._next_loc_value, name)
        self._next_loc_value += 1
        self._locs_by_name[name] = loc
        return loc

    def locations(self) -> list[LocationId]:
        return list(self._locs_by_name.values())

    def location_named(self, name: str) -> LocationId:
        try:
            return self._locs_by_name[name]
        except KeyError:
            raise UnknownLocation(f"no location named {name!r}") from None

    def _check_location(self, loc: LocationId) -> None:
        if self._locs_by_name.get(loc.name) != loc:
            raise UnknownLocation(f"location {loc!r} does not belong to this runtime")

    # Agents ----------------------------------------------------------------

    def reserve_agent_id(self) -> AgentId:
        agent_id = AgentId(self._next_agent_value)
        self._next_agent_value += 1
        return agent_id

    def spawn_agent(
        self,
        at: LocationId,
        behaviors: list[Behavior],
        agent_id: Optional[AgentId] = None,
    ) -> AgentId:
        self._check_location(at)
        if agent_id is None:
            agent_id = self.reserve_agent_id()
        elif not 0 < agent_id.value < self._next_agent_value or agent_id in self._agents:
            raise ValueError(f"agent id {agent_id!r} was not reserved or is already in use")
        shell = AgentShell(id=agent_id, home=at, current=at, behaviors=list(behaviors))
        slots = [_Slot(b, self._next_tick) for b in shell.behaviors]
        rec = _AgentRecord(shell=shell, slots=slots, index=len(self._records))
        self._agents[agent_id] = rec
        self._records.append(rec)
        self._make_candidate(rec)
        self._maybe_done.add(rec.index)
        self._log.emit(self._clock, EventKind.SPAWN, agent_id, {"at": at.name})
        return agent_id

    def _record(self, agent: AgentId) -> _AgentRecord:
        rec = self._agents.get(agent)
        if rec is None:
            raise UnknownAgent(f"no agent {agent!r}")
        return rec

    def agent_location(self, agent: AgentId) -> Optional[LocationId]:
        rec = self._record(agent)
        if rec.status == _MIGRATING:
            return None
        # terminated agents report their final resting place
        return rec.shell.current

    def agents_at(self, location: LocationId) -> list[AgentId]:
        self._check_location(location)
        return [
            agent_id
            for agent_id, rec in self._agents.items()
            if rec.status == _ACTIVE and rec.shell.current == location
        ]

    def is_alive(self, agent: AgentId) -> bool:
        rec = self._agents.get(agent)
        return rec is not None and rec.status != _TERMINATED

    def agent_state(self, agent: AgentId) -> dict[str, Any]:
        rec = self._record(agent)
        if rec.status == _MIGRATING:
            return dict(deserialize_shell(rec.blob).state)
        return dict(rec.shell.state)

    # Messaging and migration ----------------------------------------------

    def send(self, msg: Message) -> None:
        latency = self._latency(self._config.message_latency, msg)
        heapq.heappush(self._heap, (self._clock + latency, self._send_seq, msg))
        self._send_seq += 1
        self._log.emit(
            self._clock,
            EventKind.SEND,
            msg.sender,
            {"type": msg.type_tag, "to": msg.receiver.value, "conversation": msg.conversation_id},
        )

    def _latency(self, model: LatencyModel, msg: Message) -> Ticks:
        src = self._location_of_for_latency(msg.sender)
        dst = self._location_of_for_latency(msg.receiver)
        return model.sample(self._rng, src, dst)

    def _location_of_for_latency(self, agent: AgentId) -> LocationId:
        rec = self._agents.get(agent)
        if rec is None:
            return LocationId(0, "?")
        if rec.status == _MIGRATING:
            return rec.dest  # type: ignore[return-value]
        return rec.shell.current

    def migrate(self, agent: AgentId, dest: LocationId) -> None:
        self._check_location(dest)
        rec = self._record(agent)
        if rec.status == _MIGRATING:
            raise AlreadyMigrating(f"agent {agent!r} is already in transit")
        if rec.status == _TERMINATED:
            raise UnknownAgent(f"agent {agent!r} has terminated")
        src = rec.shell.current
        # Serialize first: state that will not serialize must neither draw a
        # latency nor leave a migrate_start behind.
        rec.blob = serialize_shell(rec.shell)
        latency = self._config.migration_latency.sample(self._rng, src, dest)
        self._log.emit(self._clock, EventKind.MIGRATE_START, agent, {"from": src.name, "to": dest.name})
        rec.status = _MIGRATING
        rec.transit_from = src
        rec.dest = dest
        rec.arrive_tick = self._clock + latency
        rec.transit_latency = latency
        rec.wake_at = None
        self._candidates.discard(rec.index)
        heapq.heappush(self._arrivals, (rec.arrive_tick, agent.value, agent))

    def attach_behavior(self, target: AgentId, behavior: Behavior) -> None:
        rec = self._record(target)
        if rec.status == _TERMINATED:
            raise UnknownAgent(f"agent {target!r} has terminated")
        if rec.status == _MIGRATING:
            rec.pending_attach.append(behavior)
            return
        rec.shell.behaviors.append(behavior)
        rec.slots.append(_Slot(behavior, self._clock + 1))
        self._make_candidate(rec)

    # Clock and run loop ----------------------------------------------------

    def now(self) -> Ticks:
        return self._clock

    def trace(self) -> TraceLog:
        return self._log

    def new_conversation_id(self) -> str:
        self._conv_counter += 1
        return f"c{self._conv_counter}"

    def run(self, until: Optional[Ticks] = None) -> TraceLog:
        while True:
            work = self._next_work_tick()
            if work is None:
                break
            if until is not None and work > until:
                break
            if until is None and work > self._config.max_ticks:
                self._pass_idle_ticks(self._config.max_ticks)
                raise TickBudgetExceeded(
                    f"no quiescence by tick {self._config.max_ticks} (next work at {work})"
                )
            self._process_tick(work)
        if until is not None:
            self._pass_idle_ticks(until)
        return self._log

    def _pass_idle_ticks(self, last: Ticks) -> None:
        """Pass the ticks up to ``last``, none of which holds work: the clock
        reads ``last`` and no later spawn steps at or before it. The mock
        gets to the same place by processing each of those ticks."""
        if last > self._clock:
            self._clock = last
            self._next_tick = max(self._next_tick, last + 1)

    def _next_work_tick(self) -> Optional[Ticks]:
        """The earliest tick with work, re-filing candidates that have none
        at the floor into the timer heap (or out of the indexes)."""
        floor = self._next_tick
        for index in list(self._candidates):
            rec = self._records[index]
            tick = self._agent_next_tick(rec, floor)
            if tick != floor:
                self._candidates.discard(index)
                if tick is not None:
                    rec.wake_at = tick
                    heapq.heappush(self._timers, (tick, index))
        if self._candidates or any(self._may_terminate(self._records[i]) for i in self._maybe_done):
            return floor
        due = [queue[0][0] for queue in (self._heap, self._arrivals) if queue]
        timer = self._next_timer()
        if timer is not None:
            due.append(timer)
        return max(min(due), floor) if due else None

    def _next_timer(self) -> Optional[Ticks]:
        """Tick of the earliest live timer-heap entry, dropping stale ones."""
        while self._timers:
            tick, index = self._timers[0]
            if self._records[index].wake_at == tick:
                return tick
            heapq.heappop(self._timers)
        return None

    def _make_candidate(self, rec: _AgentRecord) -> None:
        rec.wake_at = None
        self._candidates.add(rec.index)

    def _agent_next_tick(self, rec: _AgentRecord, floor: Ticks) -> Optional[Ticks]:
        best: Optional[Ticks] = None
        for slot in rec.slots:
            tick = self._slot_next_tick(rec, slot, floor)
            if tick == floor:
                return floor
            if tick is not None and (best is None or tick < best):
                best = tick
        return best

    @staticmethod
    def _may_terminate(rec: _AgentRecord) -> bool:
        return rec.status == _ACTIVE and all(slot.behavior.finished for slot in rec.slots)

    def _slot_next_tick(self, rec: _AgentRecord, slot: _Slot, floor: Ticks) -> Optional[Ticks]:
        # The hottest rule of the run: it reads ``_finished`` and compares
        # by hand instead of calling ``finished`` and ``max``.
        if slot.behavior._finished:
            return None
        base = slot.first_step
        if base < floor:
            base = floor
        out = slot.outcome
        if out is None or isinstance(out, Running):
            return base
        if isinstance(out, Blocked):
            wake = out.wake
            if wake_satisfied(wake, now=base, shell=rec.shell, in_transit=False):
                return base
            wake_at = next_wake_time(wake)
            if wake_at is not None:
                return wake_at if wake_at > base else base
        return None

    def _process_tick(self, tick: Ticks) -> None:
        self._clock = tick
        self._next_tick = tick + 1
        self._wake_due_timers(tick)
        self._finish_due_arrivals(tick, first_step=tick)
        self._deliver_due(tick)
        self._step_phase(tick)
        self._end_of_tick_sweep(tick)
        self._termination_sweep(tick)

    # Phase helpers ---------------------------------------------------------

    def _wake_due_timers(self, tick: Ticks) -> None:
        while self._timers and self._timers[0][0] <= tick:
            due, index = heapq.heappop(self._timers)
            rec = self._records[index]
            if rec.wake_at == due:
                self._make_candidate(rec)

    def _finish_due_arrivals(self, tick: Ticks, first_step: Ticks) -> bool:
        arrived = False
        while self._arrivals and self._arrivals[0][0] <= tick:
            _, _, agent_id = heapq.heappop(self._arrivals)
            self._finish_arrival(agent_id, tick, first_step)
            arrived = True
        return arrived

    def _finish_arrival(self, agent_id: AgentId, tick: Ticks, first_step: Ticks) -> None:
        rec = self._agents[agent_id]
        src, dest, latency = rec.transit_from, rec.dest, rec.transit_latency
        shell = deserialize_shell(rec.blob)
        shell.current = dest
        rec.shell = shell
        rec.status = _ACTIVE
        rec.blob = b""
        rec.slots = [_Slot(b, first_step) for b in shell.behaviors]
        for behavior in rec.pending_attach:
            shell.behaviors.append(behavior)
            rec.slots.append(_Slot(behavior, tick + 1))
        rec.pending_attach = []
        rec.last_migration = MigrationReport(src, dest, latency, tick)
        self._make_candidate(rec)
        self._maybe_done.add(rec.index)
        self._log.emit(
            tick,
            EventKind.MIGRATE_END,
            agent_id,
            {"from": src.name, "to": dest.name, "latency": latency},
        )

    def _deliver_due(self, tick: Ticks) -> bool:
        progressed = False
        while self._heap and self._heap[0][0] <= tick:
            due, seq, msg = heapq.heappop(self._heap)
            rec = self._agents.get(msg.receiver)
            base = {
                "type": msg.type_tag,
                "from": msg.sender.value,
                "conversation": msg.conversation_id,
            }
            if rec is None:
                self._log.emit(
                    tick, EventKind.DELIVER, msg.receiver, {**base, "failed": True, "reason": "unknown agent"}
                )
            elif rec.status == _TERMINATED:
                self._log.emit(
                    tick, EventKind.DELIVER, msg.receiver, {**base, "failed": True, "reason": "terminated"}
                )
            elif rec.status == _MIGRATING:
                # Hold for the traveler; it reads its mail on arrival.
                heapq.heappush(self._heap, (rec.arrive_tick, seq, msg))
                continue
            else:
                rec.shell.inbox.append(msg)
                self._make_candidate(rec)
                self._log.emit(tick, EventKind.DELIVER, msg.receiver, base)
            progressed = True
        return progressed

    def _step_phase(self, tick: Ticks) -> None:
        for spawn_index in sorted(self._candidates):
            rec = self._records[spawn_index]
            for index, slot in enumerate(list(rec.slots)):
                if rec.status != _ACTIVE:
                    break  # the agent migrated mid-tick
                if self._slot_next_tick(rec, slot, tick) != tick:
                    continue
                ctx = AgentContext(tick, rec.shell, self, rec.last_migration)
                slot.outcome = outcome = slot.behavior.step(ctx)
                if isinstance(outcome, Done):
                    self._maybe_done.add(spawn_index)
                ctx.commit(outcome, slot.behavior.kind, index)

    def _end_of_tick_sweep(self, tick: Ticks) -> None:
        # Zero-latency sends and migrations land within the same tick; their
        # targets step from the next tick.
        while True:
            progressed = self._finish_due_arrivals(tick, first_step=tick + 1)
            progressed = self._deliver_due(tick) or progressed
            if not progressed:
                break

    def _termination_sweep(self, tick: Ticks) -> None:
        for index in sorted(self._maybe_done):
            rec = self._records[index]
            if self._may_terminate(rec):
                rec.status = _TERMINATED
                # Nothing can step or read these again; only the state and
                # location stay observable.
                rec.slots = []
                rec.shell.behaviors = []
                self._log.emit(tick, EventKind.TERMINATE, rec.shell.id, {})
        self._maybe_done.clear()
