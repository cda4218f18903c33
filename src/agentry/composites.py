"""Composition mechanisms: Sequential, Parallel, and FSM.

Composites are ordinary behaviors over child behaviors, so they nest to any
depth; adding a new composition style only requires implementing the
stepping contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .actions import ActionDescriptor
from .errors import InvalidFsm, ReorderStartedChild
from .model import (
    DONE,
    RUNNING,
    AgentContext,
    AnyOf,
    Behavior,
    Blocked,
    Done,
    OnMessage,
    Running,
    StepOutcome,
    behavior_from_dict,
)

ALL = "all"
ANY = "any"

FSM_EVENT = "FSM_EVENT"

# Outcomes are immutable, so every Fsm step waiting for an event returns this one.
_AWAIT_EVENT = Blocked(OnMessage(FSM_EVENT))


class Sequential(Behavior):
    """Run children one at a time, in order; finished after the last one.

    The order of children that have not started yet may still be changed
    (``reorder``); moving a started or finished child is an error.
    """

    kind = "sequential"

    def __init__(self, children: list[Behavior], *, _index: int = 0, _current_started: bool = False):
        super().__init__()
        self.children = list(children)
        self._index = _index
        self._current_started = _current_started

    @property
    def current_index(self) -> int:
        return self._index

    def reorder(self, new_order: list[int]) -> None:
        """Reorder children by original position; the started prefix must
        keep its positions."""
        n = len(self.children)
        if sorted(new_order) != list(range(n)):
            raise ValueError(f"new_order must be a permutation of range({n})")
        locked = self._index + (1 if self._current_started else 0)
        for position in range(locked):
            if new_order[position] != position:
                raise ReorderStartedChild(
                    f"child {position} has already started and cannot move"
                )
        self.children = [self.children[i] for i in new_order]

    def _step(self, ctx: AgentContext) -> StepOutcome:
        while self._index < len(self.children) and self.children[self._index].finished:
            self._index += 1
            self._current_started = False
        if self._index >= len(self.children):
            return DONE
        child = self.children[self._index]
        self._current_started = True
        outcome = child.step(ctx)
        if isinstance(outcome, Done):
            self._index += 1
            self._current_started = False
            if self._index >= len(self.children):
                return DONE
            return RUNNING
        return outcome

    def _to_dict_body(self) -> dict[str, Any]:
        return {
            "children": [c.to_dict() for c in self.children],
            "index": self._index,
            "current_started": self._current_started,
        }

    @classmethod
    def _from_dict_body(cls, d: dict[str, Any]) -> "Sequential":
        return cls(
            [behavior_from_dict(c) for c in d["children"]],
            _index=int(d.get("index", 0)),
            _current_started=bool(d.get("current_started", False)),
        )


class Parallel(Behavior):
    """Step every unfinished child once per composite step, in child order.

    Completion ``all`` finishes when every child has finished; ``any``
    finishes as soon as one does (remaining children are abandoned
    mid-state). When all live children are blocked the composite blocks on
    any of their wake conditions.
    """

    kind = "parallel"

    def __init__(self, children: list[Behavior], completion: str = ALL):
        super().__init__()
        if completion not in (ALL, ANY):
            raise ValueError(f"completion must be {ALL!r} or {ANY!r}, got {completion!r}")
        self.children = list(children)
        self.completion = completion

    def _step(self, ctx: AgentContext) -> StepOutcome:
        if not self.children:
            return DONE
        wakes = []
        any_running = False
        for child in self.children:
            if child.finished:
                continue
            outcome = child.step(ctx)
            if isinstance(outcome, Done):
                if self.completion == ANY:
                    return DONE
            elif isinstance(outcome, Running):
                any_running = True
            elif isinstance(outcome, Blocked):
                wakes.append(outcome.wake)
        if all(child.finished for child in self.children):
            return DONE
        if any_running or not wakes:
            return RUNNING
        return Blocked(wakes[0] if len(wakes) == 1 else AnyOf(wakes))

    def _to_dict_body(self) -> dict[str, Any]:
        return {
            "children": [c.to_dict() for c in self.children],
            "completion": self.completion,
        }

    @classmethod
    def _from_dict_body(cls, d: dict[str, Any]) -> "Parallel":
        return cls(
            [behavior_from_dict(c) for c in d["children"]],
            completion=d.get("completion", ALL),
        )


@dataclass(frozen=True)
class FsmDefinition:
    """States with one activity each, labeled transitions, a start state and
    terminal states. Deterministic: at most one transition per (state, label).
    """

    states: dict[str, ActionDescriptor]
    transitions: dict[str, dict[str, str]]
    start: str
    terminals: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        if self.start not in self.states:
            raise InvalidFsm(f"start state {self.start!r} not among states")
        unknown_terminals = self.terminals - set(self.states)
        if unknown_terminals:
            raise InvalidFsm(f"terminal states {sorted(unknown_terminals)} not among states")
        for source, by_label in self.transitions.items():
            if source not in self.states:
                raise InvalidFsm(f"transition source {source!r} not among states")
            for label, target in by_label.items():
                if not label:
                    raise InvalidFsm(f"empty event label on transitions from {source!r}")
                if target not in self.states:
                    raise InvalidFsm(f"transition target {target!r} not among states")

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "states": {name: action.to_jsonable() for name, action in self.states.items()},
            "transitions": {s: dict(by) for s, by in self.transitions.items()},
            "start": self.start,
            "terminals": sorted(self.terminals),
        }

    @classmethod
    def from_jsonable(cls, d: dict[str, Any]) -> "FsmDefinition":
        return cls(
            states={name: ActionDescriptor.from_jsonable(a) for name, a in d["states"].items()},
            transitions={s: dict(by) for s, by in d.get("transitions", {}).items()},
            start=d["start"],
            terminals=frozenset(d.get("terminals", [])),
        )


def _run_activity(ctx: AgentContext, action: ActionDescriptor) -> Optional[str]:
    """Run a state's activity; its output bytes, if any, are the next label."""
    output = ctx.run_action(action, None)
    return output.decode() if output else None


class Fsm(Behavior):
    """Walk a state machine: run each entered state's activity once, then
    transition on event labels.

    Labels come from FSM_EVENT messages (payload is the UTF-8 label) or from
    the label the previous activity returned; an event that does not decode
    or has no matching transition is traced and discarded, the state is
    kept. Entering a terminal state runs its activity and finishes.
    """

    kind = "fsm"

    def __init__(
        self,
        definition: FsmDefinition,
        *,
        _current: Optional[str] = None,
        _entered: bool = False,
        _pending_label: Optional[str] = None,
    ):
        super().__init__()
        self.definition = definition
        self._current = _current if _current is not None else definition.start
        self._entered = _entered
        self._pending_label = _pending_label

    @property
    def current_state(self) -> str:
        return self._current

    def _step(self, ctx: AgentContext) -> StepOutcome:
        if not self._entered:
            ctx.trace({"fsm_state": self._current})
            action = self.definition.states[self._current]
            ok, label = ctx.attempt(_run_activity, ctx, action, state=self._current, action=action.name)
            self._entered = True
            self._pending_label = label if ok else None
            if self._current in self.definition.terminals:
                return DONE
            return RUNNING
        label = self._pending_label
        self._pending_label = None
        if label is None:
            msg = ctx.take_message(FSM_EVENT)
            if msg is None:
                return _AWAIT_EVENT
            ok, label = ctx.attempt(msg.payload.decode, state=self._current)
            if not ok:
                return _AWAIT_EVENT
        target = self.definition.transitions.get(self._current, {}).get(label)
        if target is None:
            ctx.trace({"error": "undefined transition", "state": self._current, "event": label})
            return _AWAIT_EVENT
        self._current = target
        self._entered = False
        return RUNNING

    def _to_dict_body(self) -> dict[str, Any]:
        return {
            "definition": self.definition.to_jsonable(),
            "current": self._current,
            "entered": self._entered,
            "pending_label": self._pending_label,
        }

    @classmethod
    def _from_dict_body(cls, d: dict[str, Any]) -> "Fsm":
        return cls(
            FsmDefinition.from_jsonable(d["definition"]),
            _current=d["current"],
            _entered=bool(d.get("entered", False)),
            _pending_label=d.get("pending_label"),
        )
