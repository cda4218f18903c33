"""Composition mechanisms: Sequential, Parallel, and FSM.

Composites are ordinary behaviors over child behaviors, so they nest to any
depth; adding a new composition style only requires implementing the
stepping contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

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
    StepOutcome,
    WakeCondition,
    behavior_from_dict,
    read_bool,
    read_int,
    read_list,
    read_object,
    read_one_of,
    read_str,
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
        # A finished sequence serializes index == len(children).
        self._index = read_int(_index, "sequential index", 0, len(self.children))
        self._current_started = read_bool(_current_started, "current_started")

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
        while self._index < len(self.children) and self.children[self._index]._finished:
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
        children = [behavior_from_dict(c) for c in read_list(d["children"], "sequential children")]
        return cls(children, _index=d.get("index", 0), _current_started=d.get("current_started", False))


class Parallel(Behavior):
    """Step every unfinished child once per composite step, in child order.

    Completion ``all`` finishes when every child has finished; ``any``
    finishes as soon as one does (remaining children are abandoned
    mid-state). When all live children are blocked the composite blocks on
    any of their wake conditions; while those wakes stay equal it returns
    the Blocked it built last (derived state: not serialized, not compared).
    """

    kind = "parallel"
    # Class-level until the first blocked step, so building costs nothing.
    _wakes: Sequence[WakeCondition] = ()
    _blocked: Optional[Blocked] = None

    def __init__(self, children: list[Behavior], completion: str = ALL):
        super().__init__()
        self.children = list(children)
        self.completion = read_one_of(completion, "completion", (ALL, ANY))

    def _step(self, ctx: AgentContext) -> StepOutcome:
        wakes = []
        any_running = False
        for child in self.children:
            if child._finished:
                continue
            outcome = child.step(ctx)
            if isinstance(outcome, Blocked):
                wakes.append(outcome.wake)
            elif not isinstance(outcome, Done):
                any_running = True
            elif self.completion == ANY:
                return DONE
        if any_running:
            return RUNNING
        if not wakes:  # every child stepped now finished; the rest had before
            return DONE
        # List == short-circuits on the wakes a child returns again.
        if self._blocked is None or wakes != self._wakes:
            self._wakes = wakes
            self._blocked = Blocked(wakes[0] if len(wakes) == 1 else AnyOf(wakes))
        return self._blocked

    def _to_dict_body(self) -> dict[str, Any]:
        return {
            "children": [c.to_dict() for c in self.children],
            "completion": self.completion,
        }

    @classmethod
    def _from_dict_body(cls, d: dict[str, Any]) -> "Parallel":
        return cls(
            [behavior_from_dict(c) for c in read_list(d["children"], "parallel children")],
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
        states = {name: ActionDescriptor.from_jsonable(a) for name, a in read_object(d["states"], "fsm states").items()}
        transitions = read_object(d.get("transitions", {}), "fsm transitions")
        return cls(
            states=states,
            transitions={s: {**read_object(by, "fsm transitions")} for s, by in transitions.items()},
            start=d["start"],
            terminals=frozenset(read_list(d.get("terminals", []), "fsm terminals")),
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

    The step that enters a state returns RUNNING only when the activity
    returned a label, which the next step follows. Otherwise (no label, or
    the activity failed) it blocks on the next FSM_EVENT in that same step,
    so a machine with nothing to do costs no further step or tick.
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
        if _current is not None and not (isinstance(_current, str) and _current in definition.states):
            raise InvalidFsm(f"current state {_current!r} not among states")
        self.definition = definition
        self._current = _current if _current is not None else definition.start
        self._entered = read_bool(_entered, "entered")
        self._pending_label = read_str(_pending_label, "pending_label", null=True)
        if _pending_label is not None and not _entered:
            # Only entering a state sets a label, so a blob never holds one otherwise.
            raise InvalidFsm(f"pending_label {_pending_label!r} needs entered: true")

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
            return _AWAIT_EVENT if self._pending_label is None else RUNNING
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
        definition = FsmDefinition.from_jsonable(d["definition"])
        return cls(definition, _current=d["current"], _entered=d.get("entered", False), _pending_label=d.get("pending_label"))
