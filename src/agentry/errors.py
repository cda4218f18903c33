"""Exception types raised by the runtime and the behavior library."""


class AgentryError(Exception):
    """Base class for all errors raised by this package."""


class SteppingDone(AgentryError):
    """A behavior was stepped again after it returned Done."""


class EmptyTypeTag(AgentryError):
    """A message was built with an empty type tag."""


class DuplicateLocationName(AgentryError):
    """A location name is already in use."""


class UnknownLocation(AgentryError):
    """An operation referenced a location id that does not exist."""


class UnknownAgent(AgentryError):
    """An operation referenced an agent id that does not exist."""


class AlreadyMigrating(AgentryError):
    """A migration was requested for an agent already in transit."""


class TickBudgetExceeded(AgentryError):
    """The simulation hit its tick budget before reaching quiescence."""


class ZeroPeriod(AgentryError):
    """An observer was configured with a period below one tick."""


class NoCallbacks(AgentryError):
    """A listener was configured with an empty callback list."""


class UnknownRole(AgentryError):
    """A role name was not found in the role registry."""


class DuplicateRole(AgentryError):
    """A role name was re-registered with a different constructor."""


class UnknownAction(AgentryError):
    """No action or predicate is registered under a name."""


class DuplicateAction(AgentryError):
    """An action or predicate name was re-registered with a different callable."""


class ReorderStartedChild(AgentryError):
    """A sequential reorder tried to move an already-started child."""


class InvalidFsm(AgentryError):
    """A state machine definition violates its structural invariants."""


class EmptyRoute(AgentryError):
    """An itinerary was configured with no objectives."""


class UnknownQuestionId(AgentryError):
    """An answer map referenced a question id not present in the test."""


class MalformedRepository(AgentryError):
    """A repository file failed schema validation."""


class ScenarioError(AgentryError):
    """A scenario file failed to load or validate.

    Carries the full diagnostic list so callers can report every problem,
    not just the first.
    """

    def __init__(self, message: str, problems: list = ()):  # type: ignore[assignment]
        super().__init__(message)
        self.problems = list(problems)

    def __str__(self) -> str:
        base = super().__str__()
        if not self.problems:
            return base
        return base + "\n" + "\n".join(f"  {p}" for p in self.problems)
