"""The data layer: messages, wake conditions, serialization round trips."""

import json
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agentry as ag
from agentry.model import (
    AgentShell,
    deserialize_shell,
    location_from_jsonable,
    location_to_jsonable,
    message_from_jsonable,
    message_to_jsonable,
    next_wake_time,
    serialize_shell,
    wake_satisfied,
)

L1 = ag.LocationId(1, "one")
L2 = ag.LocationId(2, "two")


def msg(type_tag="PING", conversation="", payload=b"", sent_at=0):
    return ag.make_message(ag.AgentId(1), ag.AgentId(2), type_tag, conversation, payload, sent_at=sent_at)


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


def test_empty_type_tag_rejected():
    with pytest.raises(ag.EmptyTypeTag):
        ag.make_message(ag.AgentId(1), ag.AgentId(2), "", "")


def test_message_matches_exact_and_wildcard():
    m = msg("PING")
    assert ag.message_matches(m, "PING")
    assert ag.message_matches(m, ag.WILDCARD)
    assert not ag.message_matches(m, "PONG")


def test_message_matches_conversation_filter():
    m = msg("PING", conversation="c7")
    assert ag.message_matches(m, "PING", conversation="c7")
    assert not ag.message_matches(m, "PING", conversation="c8")
    assert ag.message_matches(m, ag.WILDCARD, conversation="c7")


def test_message_jsonable_round_trip():
    m = msg("DATA", conversation="c1", payload=b"\x00\xffbytes", sent_at=9)
    again = message_from_jsonable(message_to_jsonable(m))
    assert again == m


# ---------------------------------------------------------------------------
# Wake conditions
# ---------------------------------------------------------------------------


def shell_with(inbox=(), current=L1):
    return AgentShell(ag.AgentId(5), home=L1, current=current, behaviors=[], inbox=deque(inbox))


def test_at_time_wake():
    w = ag.AtTime(10)
    assert not wake_satisfied(w, now=9, shell=shell_with(), in_transit=False)
    assert wake_satisfied(w, now=10, shell=shell_with(), in_transit=False)
    assert wake_satisfied(w, now=11, shell=shell_with(), in_transit=False)


def test_on_message_wake_respects_filter():
    w = ag.OnMessage("PING")
    assert not wake_satisfied(w, now=0, shell=shell_with([msg("PONG")]), in_transit=False)
    assert wake_satisfied(w, now=0, shell=shell_with([msg("PING")]), in_transit=False)
    assert wake_satisfied(ag.OnMessage(), now=0, shell=shell_with([msg("PONG")]), in_transit=False)


def test_on_arrival_wake_requires_presence():
    w = ag.OnArrival(L2)
    assert not wake_satisfied(w, now=0, shell=shell_with(current=L1), in_transit=False)
    assert not wake_satisfied(w, now=0, shell=shell_with(current=L2), in_transit=True)
    assert wake_satisfied(w, now=0, shell=shell_with(current=L2), in_transit=False)


def test_any_of_wake_is_a_disjunction():
    w = ag.AnyOf([ag.AtTime(5), ag.OnMessage("PING")])
    assert not wake_satisfied(w, now=4, shell=shell_with(), in_transit=False)
    assert wake_satisfied(w, now=5, shell=shell_with(), in_transit=False)
    assert wake_satisfied(w, now=0, shell=shell_with([msg("PING")]), in_transit=False)


def test_never_wake():
    assert not wake_satisfied(ag.Never(), now=10 ** 9, shell=shell_with([msg()]), in_transit=False)


def test_next_wake_time():
    assert next_wake_time(ag.AtTime(7)) == 7
    assert next_wake_time(ag.OnMessage()) is None
    assert next_wake_time(ag.AnyOf([ag.OnMessage(), ag.AtTime(9), ag.AtTime(4)])) == 4
    assert next_wake_time(ag.AnyOf([ag.OnMessage(), ag.Never()])) is None


def reference_satisfied(wake, now, shell, in_transit):
    """The isinstance chain that ``wake_satisfied`` replaced by methods."""
    if isinstance(wake, ag.AtTime):
        return now >= wake.tick
    if isinstance(wake, ag.OnMessage):
        return any(ag.message_matches(m, wake.type_filter) for m in shell.inbox)
    if isinstance(wake, ag.OnArrival):
        return (not in_transit) and shell.current == wake.location
    if isinstance(wake, ag.AnyOf):
        return any(reference_satisfied(member, now, shell, in_transit) for member in wake.members)
    if isinstance(wake, ag.Never):
        return False
    raise TypeError(f"unknown wake condition {wake!r}")


def reference_next_wake_time(wake):
    """The isinstance chain that ``next_wake_time`` replaced by methods."""
    if isinstance(wake, ag.AtTime):
        return wake.tick
    if isinstance(wake, ag.AnyOf):
        times = [t for t in (reference_next_wake_time(m) for m in wake.members) if t is not None]
        return min(times) if times else None
    return None


TAGS = ("PING", "PONG", "ACK")
LEAF_WAKES = st.one_of(
    st.builds(ag.AtTime, st.integers(0, 12)),
    st.builds(ag.OnMessage, st.sampled_from(TAGS + (ag.WILDCARD,))),
    st.builds(ag.OnArrival, st.sampled_from([L1, L2])),
    st.just(ag.Never()),
)
WAKES = st.recursive(LEAF_WAKES, lambda members: st.lists(members, max_size=4).map(ag.AnyOf), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(
    wake=WAKES,
    inbox=st.lists(st.sampled_from(TAGS), max_size=4),
    now=st.integers(0, 12),
    current=st.sampled_from([L1, L2]),
    in_transit=st.booleans(),
)
def test_wake_methods_agree_with_the_isinstance_chain(wake, inbox, now, current, in_transit):
    shell = shell_with([msg(tag) for tag in inbox], current=current)
    expected = reference_satisfied(wake, now, shell, in_transit)
    assert wake_satisfied(wake, now=now, shell=shell, in_transit=in_transit) is expected
    assert next_wake_time(wake) == reference_next_wake_time(wake)


class _Unknown(ag.WakeCondition):
    """A wake condition that says nothing about when it holds."""


@dataclass(frozen=True)
class _Deadline(ag.AtTime):
    """A subclass of AtTime that adds nothing."""


def test_a_wake_condition_without_a_rule_is_rejected():
    for wake in (_Unknown(), ag.AnyOf([ag.OnMessage("PING"), _Unknown()])):
        with pytest.raises(TypeError, match="unknown wake condition"):
            wake_satisfied(wake, now=0, shell=shell_with(), in_transit=False)
    assert next_wake_time(_Unknown()) is None


class _WaitForDeadline(ag.Behavior):
    """Blocks on a _Deadline three ticks ahead, then finishes."""

    kind = "t.model.wait_for_deadline"

    def __init__(self):
        super().__init__()
        self.waited = False

    def _step(self, ctx):
        ctx.state.setdefault("steps", []).append(ctx.now)
        if self.waited:
            return ag.DONE
        self.waited = True
        return ag.Blocked(_Deadline(ctx.now + 3))


def test_a_subclass_of_at_time_still_wakes(platform_factory):
    assert wake_satisfied(_Deadline(5), now=5, shell=shell_with(), in_transit=False)
    assert not wake_satisfied(_Deadline(5), now=4, shell=shell_with(), in_transit=False)
    assert next_wake_time(ag.AnyOf([ag.OnMessage(), _Deadline(5)])) == 5
    p = platform_factory()
    agent = p.spawn_agent(p.create_location("l"), [_WaitForDeadline()])
    p.run(None)
    assert p.agent_state(agent)["steps"] == [0, 3]


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def test_canonical_json_is_sorted_and_compact():
    data = ag.canonical_json({"b": 1, "a": [{"z": 0, "y": 1}]})
    assert data == b'{"a":[{"y":1,"z":0}],"b":1}'


# ---------------------------------------------------------------------------
# Behavior serialization
# ---------------------------------------------------------------------------

action = st.builds(
    ag.ActionDescriptor,
    st.sampled_from(["noop", "trace"]),
    st.one_of(st.none(), st.dictionaries(st.text(min_size=1, max_size=3), st.integers(), max_size=2)),
)

leaf = st.one_of(
    st.builds(ag.Task, action),
    st.builds(
        ag.Observer,
        st.integers(min_value=1, max_value=9),
        st.builds(ag.ActionDescriptor, st.sampled_from(["always", "never"])),
        action,
        st.sampled_from([ag.ONE_SHOT, ag.CYCLIC]),
    ),
    st.builds(
        ag.Listener,
        st.sampled_from(["PING", "DATA", "*"]),
        st.lists(action, min_size=1, max_size=2),
        st.sampled_from([ag.ONE_SHOT, ag.CYCLIC]),
    ),
    st.builds(
        ag.Client,
        st.integers(min_value=1, max_value=9),
        st.builds(ag.RequestEnvelope, action),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
    ),
    st.builds(ag.Server, st.one_of(st.none(), action)),
)


def _compose(children):
    return st.one_of(
        st.builds(ag.Sequential, st.lists(children, min_size=1, max_size=3)),
        st.builds(ag.Parallel, st.lists(children, min_size=1, max_size=3), st.sampled_from([ag.ALL, ag.ANY])),
    )


behavior_trees = st.recursive(leaf, _compose, max_leaves=6)


@given(behavior_trees)
@settings(max_examples=200, deadline=None)
def test_behavior_round_trip(behavior):
    d = behavior.to_dict()
    again = ag.behavior_from_dict(d)
    assert again.to_dict() == d
    assert again == behavior
    # the serialized form is pure JSON
    json.dumps(d)


@given(behavior_trees)
@settings(max_examples=50, deadline=None)
def test_clone_is_deep_and_equal(behavior):
    twin = ag.clone_behavior(behavior)
    assert twin == behavior
    assert twin is not behavior


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ag.behavior_from_dict({"kind": "no_such_kind", "done": False})


def test_done_flag_round_trips():
    b = ag.Task(ag.ActionDescriptor("noop"))
    d = b.to_dict()
    d["done"] = True
    assert ag.behavior_from_dict(d).finished


# ---------------------------------------------------------------------------
# Shells
# ---------------------------------------------------------------------------


def test_shell_round_trip_preserves_everything():
    shell = AgentShell(
        id=ag.AgentId(3),
        home=L1,
        current=L2,
        behaviors=[ag.Task(ag.ActionDescriptor("noop")), ag.Listener("X", [ag.ActionDescriptor("noop")])],
        state={"counter": 3, "names": ["a", "b"]},
        inbox=deque([msg("PING", "c1", b"\x01\x02", 4), msg("DATA", "", b"", 6)]),
    )
    again = deserialize_shell(serialize_shell(shell))
    assert again.id == shell.id
    assert again.home == shell.home
    assert again.current == shell.current
    assert again.behaviors == shell.behaviors
    assert again.state == shell.state
    assert list(again.inbox) == list(shell.inbox)
    # serialization is canonical: same bytes both times
    assert serialize_shell(again) == serialize_shell(shell)


def test_trace_line_bytes_are_pinned():
    detail = {
        "z": {"b": 1, "a": [None, True, False]},
        "a": (1, 2.5, "x"),
        "\u00e9": "na\u00efve \u2603",
        "n": None,
        "f": -0.1,
        "t": True,
    }
    event = ag.TraceEvent(tick=3, seq=7, kind=ag.EventKind.CUSTOM, agent=ag.AgentId(12), detail=detail)
    assert event.to_json_line() == (
        '{"tick":3,"seq":7,"kind":"custom","agent":12,"detail":'
        '{"a":[1,2.5,"x"],"f":-0.1,"n":null,"t":true,"z":{"a":[null,true,false],"b":1},'
        '"\\u00e9":"na\\u00efve \\u2603"}}'
    )
    assert json.loads(event.to_json_line())["detail"]["\u00e9"] == "na\u00efve \u2603"


def test_location_jsonable_round_trip():
    loc = ag.LocationId(4, "lab")
    assert location_from_jsonable(location_to_jsonable(loc)) == loc
    assert location_from_jsonable(location_to_jsonable(loc)).name == "lab"


def test_stepping_finished_behavior_raises():
    sim = ag.SimPlatform()
    loc = sim.create_location("l")
    sim.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("noop"))])
    sim.run(None)
    b = ag.Task(ag.ActionDescriptor("noop"))
    d = b.to_dict()
    d["done"] = True
    finished = ag.behavior_from_dict(d)
    with pytest.raises(ag.SteppingDone):
        finished.step(None)
