"""Platform adapter protocol.

Behaviors and the assessment services are written against this surface only;
any runtime that honors it (the event-driven simulator, the naive mock, or a
real distributed platform) can host them unchanged.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, runtime_checkable

from .model import AgentId, Behavior, LocationId, Message, Ticks
from .trace import TraceLog


@runtime_checkable
class PlatformAdapter(Protocol):
    """Minimal hosting contract for mobile agents.

    Time is a monotonic integer tick counter. At each processed tick the
    runtime finishes due migrations, delivers due messages, then steps
    runnable behaviors in agent spawn order and behavior list order.

    A tick counts as processed once its processing starts, even if a step
    at it raises out of ``run``; the next ``run`` resumes at the tick after.
    A step's buffered effects are calls to this surface (``send``,
    ``spawn_agent``, ``migrate``, ``attach_behavior``, ``trace().emit``),
    made at the step's tick.

    Every behavior has one first tick at which it may step, fixed when it
    joins an agent:

    * spawned, from outside or by a behavior: the first tick whose
      processing has not started. That is T + 1 for a spawn by a behavior
      stepping at tick T, and tick 0 before any ``run``;
    * attached by a behavior stepping at tick T, or attached from outside
      while ``now()`` is T: T + 1;
    * carried by a migration that arrives at tick T: T if the arrival is
      finished before that tick's step phase, T + 1 if it lands in the
      zero-latency sweep after it;
    * attached while its agent is in transit: the arrival tick + 1.

    From then on it steps at each processed tick at which it is runnable.
    """

    def create_location(self, name: str) -> LocationId:
        """Create a named location. A name that is not a string raises
        ValueError, and one already in use DuplicateLocationName."""
        ...

    def locations(self) -> list[LocationId]: ...

    def location_named(self, name: str) -> LocationId:
        """The location created under ``name``; any other name raises
        UnknownLocation."""
        ...

    def reserve_agent_id(self) -> AgentId:
        """Allocate an agent id ahead of its spawn (ids are never reused)."""
        ...

    def spawn_agent(
        self,
        at: LocationId,
        behaviors: list[Behavior],
        agent_id: Optional[AgentId] = None,
    ) -> AgentId:
        """Create an agent at ``at`` whose home is ``at``. ``behaviors`` is a
        list or tuple of behaviors, and an explicit ``agent_id`` must come
        from ``reserve_agent_id`` and not be in use yet; otherwise raise
        ValueError before an id is reserved or anything is traced."""
        ...

    def send(self, msg: Message) -> None:
        """Enqueue a message for delivery at now + latency. Delivery is
        reliable unless the receiver has terminated, in which case a failed
        delivery is traced and the message dropped without sender error.
        A sender never spawned or terminated raises UnknownAgent, and one in
        transit since an earlier tick raises AlreadyMigrating, before
        anything is queued or traced."""
        ...

    def migrate(self, agent: AgentId, dest: LocationId) -> None:
        """Serialize the agent, move it, reactivate it at ``dest`` after the
        migration latency. The inbox keeps accumulating while in transit.
        An argument of the wrong class raises ValueError, a ``dest`` of
        another runtime UnknownLocation, an agent never spawned or
        terminated UnknownAgent, and one in transit AlreadyMigrating. A
        state or tree that will not encode raises TypeError (a value JSON
        cannot write) or ValueError (circular or too deep). Each raises
        before a latency is drawn or anything is traced."""
        ...

    def attach_behavior(self, target: AgentId, behavior: Behavior) -> None:
        """Append a behavior to ``target``'s list; it first steps at
        ``now() + 1``, or at the tick after arrival if ``target`` is in
        transit. A ``target`` that is not an AgentId, or a ``behavior``
        that is not a behavior, raises ValueError; an agent never spawned or
        terminated raises UnknownAgent."""
        ...

    def agent_location(self, agent: AgentId) -> Optional[LocationId]:
        """Where the agent currently is, or None while it is in transit; a
        terminated agent reports where it ended. An agent never spawned
        raises UnknownAgent."""
        ...

    def agents_at(self, location: LocationId) -> list[AgentId]: ...

    def is_alive(self, agent: AgentId) -> bool: ...

    def agent_state(self, agent: AgentId) -> dict[str, Any]:
        """Copy of the agent's serializable key/value store, read from its
        blob while it is in transit. An agent never spawned raises
        UnknownAgent."""
        ...

    def now(self) -> Ticks: ...

    def run(self, until: Optional[Ticks] = None) -> TraceLog:
        """Advance virtual time.

        With ``until`` set, run through that tick inclusive and pause. Tick
        ``until`` counts as processed even when nothing happens at it, so
        an outside spawn made afterwards first steps at ``until + 1``. With
        ``until=None``, run to quiescence (no runnable behavior, no pending
        delivery or migration, no future timer); exceeding the configured
        tick budget before quiescence raises TickBudgetExceeded.

        An ``until`` that is neither None nor an integer of at least 0
        raises ValueError before the clock moves. An exception a behavior's
        own step raises, or a step's move whose shell will not encode (as
        ``migrate`` raises), propagates out of ``run``; an action that
        raises is traced as an error instead.
        """
        ...

    def trace(self) -> TraceLog: ...

    def new_conversation_id(self) -> str:
        """A conversation id not given out before on this runtime."""
        ...
