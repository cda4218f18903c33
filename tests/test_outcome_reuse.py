"""Waiting behaviors may hand back the outcome they built on an earlier step.

Outcomes are immutable values, so a behavior whose wake has not changed may
return the same Blocked again. The kept outcome is derived state: it is not
serialized, takes no part in ``==`` and is rebuilt after a decode or a
clone. These tests step behaviors directly with a bare context and compare
what they return with what the behavior's own formula builds fresh.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import agentry as ag
from agentry.model import AgentContext, AgentShell, behavior_from_dict, clone_behavior

from conftest import make_sim

HOME = ag.LocationId(0, "home")


def context(now, state=None):
    shell = AgentShell(ag.AgentId(1), HOME, HOME, [], state if state is not None else {})
    return AgentContext(now, shell, make_sim())


def act(name, params=None):
    return ag.ActionDescriptor(name, params)


def observer():
    return ag.Observer(3, act("never"), act("noop"), mode=ag.CYCLIC)


def parallel(completion=ag.ALL):
    return ag.Parallel([ag.Listener("X", [act("noop")]), observer()], completion)


def decoded(behavior):
    return behavior_from_dict(json.loads(json.dumps(behavior.to_dict())))


# ---------------------------------------------------------------------------
# The kept outcome is not state
# ---------------------------------------------------------------------------


def test_an_observer_keeps_its_dict_and_equality_while_it_waits():
    waiting = observer()
    waiting.step(context(0))
    before, twin = waiting.to_dict(), clone_behavior(waiting)
    for now in (1, 2):
        assert waiting.step(context(now)) == ag.Blocked(ag.AtTime(3))
        assert waiting.to_dict() == before
        assert waiting == twin and twin == waiting


def test_a_parallel_keeps_its_dict_and_equality_while_it_waits():
    waiting = parallel()
    waiting.step(context(0))
    before, twin = waiting.to_dict(), clone_behavior(waiting)
    for now in (1, 2):
        assert waiting.step(context(now)) == ag.Blocked(ag.AnyOf([ag.OnMessage("X"), ag.AtTime(3)]))
        assert waiting.to_dict() == before
        assert waiting == twin and twin == waiting


def test_a_wait_on_an_unchanged_wake_returns_the_outcome_already_built():
    for make in (observer, parallel):
        waiting = make()
        first = waiting.step(context(0))
        assert waiting.step(context(1)) is first
        assert waiting.step(context(2)) is first
        assert waiting.step(context(3)) is not first  # the check ran: a new tick


def test_a_decoded_or_cloned_copy_returns_an_equal_next_outcome_at_the_same_tick():
    for make in (observer, parallel, lambda: parallel(ag.ANY)):
        for warmup in ([0], [0, 1], [0, 1, 2, 3, 4]):
            original = make()
            for now in warmup:
                original.step(context(now))
            copies = [clone_behavior(original), decoded(original)]
            now = warmup[-1] + 1
            outcome = original.step(context(now))
            for copy in copies:
                assert copy.step(context(now)) == outcome
                assert copy == original


def test_an_observer_whose_check_moves_returns_the_new_tick():
    watcher = observer()
    got = [(now, watcher.step(context(now)).wake) for now in (0, 1, 3, 4, 7, 8, 9)]
    assert got == [
        (0, ag.AtTime(3)),
        (1, ag.AtTime(3)),
        (3, ag.AtTime(6)),  # the check ran and found nothing
        (4, ag.AtTime(6)),
        (7, ag.AtTime(9)),  # woken off the grid: realigned
        (8, ag.AtTime(9)),
        (9, ag.AtTime(12)),
    ]


def test_a_decoded_observer_returns_its_next_check_not_a_stale_one():
    watcher = observer()
    watcher.step(context(0))
    watcher.step(context(1))
    watcher.step(context(3))
    assert decoded(watcher).step(context(4)) == ag.Blocked(ag.AtTime(6))


# ---------------------------------------------------------------------------
# Parallel against the formula it replaces
# ---------------------------------------------------------------------------


class _Scripted(ag.Behavior):
    """Returns whatever outcome the test put in ``next``."""

    kind = "t.reuse.scripted"

    def __init__(self):
        super().__init__()
        self.next = None

    def _step(self, ctx):
        return self.next

    def _to_dict_body(self):
        return {}

    @classmethod
    def _from_dict_body(cls, d):
        return cls()


def _fresh_outcome(completion, children, outcomes):
    """What Parallel returned before it kept an outcome: built fresh from
    the outcomes of the children it stepped, in child order."""
    wakes = []
    any_running = False
    for outcome in outcomes:
        if isinstance(outcome, ag.Done):
            if completion == ag.ANY:
                return ag.DONE
        elif isinstance(outcome, ag.Running):
            any_running = True
        else:
            wakes.append(outcome.wake)
    if all(child.finished for child in children):
        return ag.DONE
    if any_running or not wakes:
        return ag.RUNNING
    return ag.Blocked(wakes[0] if len(wakes) == 1 else ag.AnyOf(wakes))


# Few distinct values, so that a new wake often equals an old one.
_plain_wakes = st.one_of(
    st.builds(ag.AtTime, st.integers(0, 2)),
    st.builds(ag.OnMessage, st.sampled_from(["X", "Y"])),
)
_wakes = st.one_of(_plain_wakes, st.lists(_plain_wakes, min_size=1, max_size=2).map(ag.AnyOf))
# Per child and step: run, finish, or block on the child's last wake (the
# same object), on an equal wake in a new object, or on a drawn wake.
_moves = st.one_of(
    st.sampled_from(["running", "done", "same", "equal", "same", "same"]),
    _wakes,
)


def _copy_of(wake):
    if isinstance(wake, ag.AnyOf):
        return ag.AnyOf([_copy_of(m) for m in wake.members])
    return type(wake)(*vars(wake).values())


@given(
    completion=st.sampled_from([ag.ALL, ag.ANY]),
    width=st.integers(1, 4),
    script=st.lists(st.lists(_moves, min_size=4, max_size=4), min_size=1, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_parallel_returns_what_its_formula_builds_fresh(completion, width, script):
    children = [_Scripted() for _ in range(width)]
    composite = ag.Parallel(children, completion)
    last_wake = [ag.AtTime(0)] * width
    for moves in script:
        live = [c for c in children if not c.finished]
        for i, child in enumerate(children):
            if child.finished:
                continue
            move = moves[i]
            if move == "running":
                child.next = ag.RUNNING
            elif move == "done":
                child.next = ag.DONE
            else:
                if move == "equal":
                    last_wake[i] = _copy_of(last_wake[i])
                elif move != "same":
                    last_wake[i] = move
                child.next = ag.Blocked(last_wake[i])
        stepped = []
        for child in live:
            stepped.append(child.next)
            if completion == ag.ANY and isinstance(child.next, ag.Done):
                break
        outcome = composite.step(None)
        assert outcome == _fresh_outcome(completion, children, stepped)
        if isinstance(outcome, ag.Done):
            break
