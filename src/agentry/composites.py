"""Composition mechanisms: Sequential, Parallel, and FSM.

Composites are ordinary behaviors over child behaviors, so they nest to any
depth; adding a new composition style only requires implementing the
stepping contract.
"""

from __future__ import annotations

from dataclasses import MISSING
from typing import Any, ClassVar, Optional, Sequence

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
    _mistyped,
    column,
    nested,
    nested_list,
    read_bool,
    read_items,
    read_int,
    read_keys,
    read_object,
    read_one_of,
    read_str,
    record,
)

ALL = "all"
ANY = "any"

FSM_EVENT = "FSM_EVENT"

# Outcomes are immutable, so every Fsm step waiting for an event returns this one.
_AWAIT_EVENT = Blocked(OnMessage(FSM_EVENT))


@record(eq=False, repr=False)
class Sequential(Behavior):
    """Run children one at a time, in order; finished after the last one.

    The order of children that have not started yet may still be changed
    (``reorder``); moving a started or finished child is an error.
    """

    kind = "sequential"
    children: list[Behavior] = nested_list(Behavior, "sequential children")
    # Read by _check, as its range depends on the children. A finished
    # sequence serializes index == len(children).
    _index: int = column(default=0, kw_only=True)
    _current_started: bool = column(read_bool, "current_started", default=False, kw_only=True)

    def _check(self) -> None:
        self._index = read_int(self._index, "sequential index", 0, len(self.children))

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


@record(eq=False, repr=False)
class Parallel(Behavior):
    """Step every unfinished child once per composite step, in child order.

    Completion ``all`` finishes when every child has finished; ``any``
    finishes as soon as one does (remaining children are abandoned
    mid-state). When all live children are blocked the composite blocks on
    any of their wake conditions; while those wakes stay equal it returns
    the Blocked it built last (derived state: not serialized, not compared).
    """

    kind = "parallel"
    children: list[Behavior] = nested_list(Behavior, "parallel children")
    completion: str = column(read_one_of, "completion", (ALL, ANY), default=ALL)
    # Class-level until the first blocked step, so building costs nothing.
    _wakes: ClassVar[Sequence[WakeCondition]] = ()
    _blocked: ClassVar[Optional[Blocked]] = None

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


def _read_states(states: Any, label: str) -> dict[str, ActionDescriptor]:
    read_items([*read_keys(states, label).values()], label, ActionDescriptor)
    return states


def _read_transitions(transitions: Any, label: str) -> dict[str, dict[str, str]]:
    """A copy, so the caller's table neither changes nor changes this one."""
    return {source: {**read_object(by, label)} for source, by in read_object(transitions, label).items()}


def _read_terminals(terminals: Any, label: str) -> frozenset[str]:
    if isinstance(terminals, (list, tuple, set, frozenset)):
        return frozenset(read_str(name, f"{label} entry") for name in terminals)
    raise _mistyped(label, "a list", terminals)


@record(frozen=True, noun="fsm definition")
class FsmDefinition:
    """States with one activity each, labeled transitions, a start state and
    terminal states. Deterministic: at most one transition per (state, label).
    """

    states: dict[str, ActionDescriptor] = column(
        _read_states,
        "fsm states",
        encode=lambda states: {name: action.to_jsonable() for name, action in states.items()},
        decode=lambda d: {n: ActionDescriptor.from_jsonable(a) for n, a in d.items()} if isinstance(d, dict) else d,
    )
    transitions: dict[str, dict[str, str]] = column(_read_transitions, "fsm transitions", absent={})
    start: str = column()  # read by _check: it must name a state
    terminals: frozenset[str] = column(_read_terminals, "fsm terminals", encode=sorted, default=frozenset())

    def _check(self) -> None:
        if not isinstance(self.start, str) or self.start not in self.states:
            raise InvalidFsm(f"start state {self.start!r} not among states")
        unknown_terminals = self.terminals - set(self.states)
        if unknown_terminals:
            raise InvalidFsm(f"terminal states {sorted(unknown_terminals)} not among states")
        for source, by_label in self.transitions.items():
            if source not in self.states:
                raise InvalidFsm(f"transition source {source!r} not among states")
            for label, target in by_label.items():
                if not isinstance(label, str):  # a source that is not a string is not a state
                    read_str(label, "fsm transitions key")
                if not label:
                    raise InvalidFsm(f"empty event label on transitions from {source!r}")
                if not isinstance(target, str) or target not in self.states:
                    raise InvalidFsm(f"transition target {target!r} not among states")


def _run_activity(ctx: AgentContext, action: ActionDescriptor) -> Optional[str]:
    """Run a state's activity; its output bytes, if any, are the next label."""
    output = ctx.run_action(action, None)
    return output.decode() if output else None


@record(eq=False, repr=False)
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
    definition: FsmDefinition = nested(FsmDefinition, "fsm definition")
    # Read by _check against the definition's states; None is the start state.
    _current: Optional[str] = column(default=None, absent=MISSING, kw_only=True)
    _entered: bool = column(read_bool, "entered", default=False, kw_only=True)
    _pending_label: Optional[str] = column(read_str, "pending_label", null=True, default=None, kw_only=True)

    def _check(self) -> None:
        current = self._current
        if current is not None and not (isinstance(current, str) and current in self.definition.states):
            raise InvalidFsm(f"current state {current!r} not among states")
        if current is None:
            self._current = self.definition.start
        if self._pending_label is not None and not self._entered:
            # Only entering a state sets a label, so a blob never holds one otherwise.
            raise InvalidFsm(f"pending_label {self._pending_label!r} needs entered: true")

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
