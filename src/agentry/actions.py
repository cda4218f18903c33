"""Serializable action vocabulary.

Behaviors never hold function objects; they hold ActionDescriptor values
(name plus JSON-typed params) and resolve them by name at step time. That
keeps every behavior serializable and lets a migrated agent find the same
logic at its destination by name.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from .errors import DuplicateAction, UnknownAction
from .model import _MARKERS, column, read_str, record

if TYPE_CHECKING:
    from .model import AgentContext, Message

ActionFn = Callable[["AgentContext", Any, Optional["Message"]], Optional[bytes]]
PredicateFn = Callable[["AgentContext", Any], bool]


@record(frozen=True, noun="action")
class ActionDescriptor:
    """Reference to a registered action: a name and JSON-typed parameters."""

    name: str = column(read_str, "action name")
    # Opaque JSON, handed to the action as is; a scenario read binds the markers of a copy.
    params: Any = column(decode=lambda params: params if _MARKERS[0] is None else _MARKERS[0].bind(params, ""), default=None)


_BUILTIN_ACTIONS: dict[str, ActionFn] = {}
_BUILTIN_PREDICATES: dict[str, PredicateFn] = {}


def builtin_action(name: str) -> Callable[[ActionFn], ActionFn]:
    """Register ``fn`` under ``name`` on every platform, built or not."""

    def decorate(fn: ActionFn) -> ActionFn:
        if name in _BUILTIN_ACTIONS:
            raise DuplicateAction(f"builtin action {name!r} already defined")
        _BUILTIN_ACTIONS[name] = fn
        return fn

    return decorate


def builtin_predicate(name: str) -> Callable[[PredicateFn], PredicateFn]:
    def decorate(fn: PredicateFn) -> PredicateFn:
        if name in _BUILTIN_PREDICATES:
            raise DuplicateAction(f"builtin predicate {name!r} already defined")
        _BUILTIN_PREDICATES[name] = fn
        return fn

    return decorate


def resolve_action(name: str) -> ActionFn:
    try:
        return _BUILTIN_ACTIONS[name]
    except KeyError:
        raise UnknownAction(f"no action registered under {name!r}") from None


def resolve_predicate(name: str) -> PredicateFn:
    try:
        return _BUILTIN_PREDICATES[name]
    except KeyError:
        raise UnknownAction(f"no predicate registered under {name!r}") from None


@builtin_action("noop")
def _noop(ctx: "AgentContext", params: Any, message: Optional["Message"]) -> None:
    """Do nothing; useful as a placeholder step in scripted scenarios."""
    return None


@builtin_action("trace")
def _trace(ctx: "AgentContext", params: Any, message: Optional["Message"]) -> None:
    """Emit a custom trace event carrying ``params`` as its detail."""
    detail = params if isinstance(params, dict) else {"value": params}
    ctx.trace(detail)
    return None
