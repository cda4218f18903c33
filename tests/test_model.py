"""The data layer: messages, wake conditions, serialization round trips."""

import functools
import inspect
import json
import os
import random
import re
import tempfile
from collections import deque
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agentry as ag
from agentry import model
from agentry.model import (
    AgentId,
    AgentShell,
    column,
    deserialize_shell,
    location_from_jsonable,
    location_to_jsonable,
    message_from_jsonable,
    message_to_jsonable,
    read_int,
    record,
    serialize_shell,
    wake_satisfied,
)
from agentry.scenario import _latency, _read, build_platform
from agentry.simulator import _MIGRATING
from agentry.trace import CANONICAL_ENCODER
import blob_text
from document_fuzz import JUNK, SHIPPED, _document_base, _slots
from test_scenario_cli import base_doc

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
    # No decode would read these back, so no message is made with them.
    with pytest.raises(ValueError, match="^message type must be a string, got 5$"):
        ag.make_message(ag.AgentId(1), ag.AgentId(2), 5, "")
    with pytest.raises(ValueError, match="^message conversation must be a string, got None$"):
        ag.make_message(ag.AgentId(1), ag.AgentId(2), "PING", None)


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
    assert not wake_satisfied(w, now=9, shell=shell_with())
    assert wake_satisfied(w, now=10, shell=shell_with())
    assert wake_satisfied(w, now=11, shell=shell_with())


def test_on_message_wake_respects_filter():
    w = ag.OnMessage("PING")
    assert not wake_satisfied(w, now=0, shell=shell_with([msg("PONG")]))
    assert wake_satisfied(w, now=0, shell=shell_with([msg("PING")]))
    assert wake_satisfied(ag.OnMessage(), now=0, shell=shell_with([msg("PONG")]))


def test_on_arrival_wake_requires_presence():
    w = ag.OnArrival(L2)
    assert not wake_satisfied(w, now=0, shell=shell_with(current=L1))
    assert wake_satisfied(w, now=0, shell=shell_with(current=L2))


def test_any_of_wake_is_a_disjunction():
    w = ag.AnyOf([ag.AtTime(5), ag.OnMessage("PING")])
    assert not wake_satisfied(w, now=4, shell=shell_with())
    assert wake_satisfied(w, now=5, shell=shell_with())
    assert wake_satisfied(w, now=0, shell=shell_with([msg("PING")]))


def test_never_wake():
    assert not wake_satisfied(ag.Never(), now=10 ** 9, shell=shell_with([msg()]))


def test_next_wake_time():
    assert ag.AtTime(7).next_tick() == 7
    assert ag.OnMessage().next_tick() is None
    assert ag.AnyOf([ag.OnMessage(), ag.AtTime(9), ag.AtTime(4)]).next_tick() == 4
    assert ag.AnyOf([ag.OnMessage(), ag.Never()]).next_tick() is None


def reference_satisfied(wake, now, shell):
    """The isinstance chain that ``wake_satisfied`` replaced by methods."""
    if isinstance(wake, ag.AtTime):
        return now >= wake.tick
    if isinstance(wake, ag.OnMessage):
        return any(ag.message_matches(m, wake.type_filter) for m in shell.inbox)
    if isinstance(wake, ag.OnArrival):
        return shell.current == wake.location
    if isinstance(wake, ag.AnyOf):
        return any(reference_satisfied(member, now, shell) for member in wake.members)
    if isinstance(wake, ag.Never):
        return False
    raise TypeError(f"unknown wake condition {wake!r}")


def reference_next_wake_time(wake):
    """The isinstance chain that ``next_tick`` replaced."""
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
)
def test_wake_methods_agree_with_the_isinstance_chain(wake, inbox, now, current):
    shell = shell_with([msg(tag) for tag in inbox], current=current)
    expected = reference_satisfied(wake, now, shell)
    assert wake_satisfied(wake, now, shell) is expected
    assert wake.next_tick() == reference_next_wake_time(wake)


class _Unknown(ag.WakeCondition):
    """A wake condition that says nothing about when it holds."""


@dataclass(frozen=True)
class _Deadline(ag.AtTime):
    """A subclass of AtTime that adds nothing."""


def test_a_wake_condition_without_a_rule_is_rejected():
    for wake in (_Unknown(), ag.AnyOf([ag.OnMessage("PING"), _Unknown()])):
        with pytest.raises(TypeError, match="unknown wake condition"):
            wake_satisfied(wake, now=0, shell=shell_with())
    assert _Unknown().next_tick() is None


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
    assert wake_satisfied(_Deadline(5), now=5, shell=shell_with())
    assert not wake_satisfied(_Deadline(5), now=4, shell=shell_with())
    assert ag.AnyOf([ag.OnMessage(), _Deadline(5)]).next_tick() == 5
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


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner), st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20,
)


@given(json_values)
def test_canonical_json_reuses_an_encoder_that_writes_what_the_stdlib_one_writes(value):
    assert ag.canonical_json(value) == CANONICAL_ENCODER.encode(value).encode()


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


def test_a_blob_with_an_inbox_is_pinned():
    # The inbox's bytes, as the hand-written message codec wrote them: one
    # binary payload (base64 with '+', '/' and padding) and one empty.
    inbox = [
        ag.make_message(ag.AgentId(3), ag.AgentId(7), "DATA", "c1", b"\x00\xff\xfeA", sent_at=12),
        ag.make_message(ag.AgentId(7), ag.AgentId(3), "PING", "", sent_at=15),
    ]
    shell = AgentShell(ag.AgentId(3), L1, L2, [], {"k": 1}, deque(inbox))
    blob = (
        b'{"behaviors":[],"current":{"name":"two","value":2},"home":{"name":"one","value":1},"id":3,"inbox":['
        b'{"conversation":"c1","payload":"AP/+QQ==","receiver":7,"sender":3,"sent_at":12,"type":"DATA"},'
        b'{"conversation":"","payload":"","receiver":3,"sender":7,"sent_at":15,"type":"PING"}],"state":{"k":1}}'
    )
    assert serialize_shell(shell) == blob
    assert serialize_shell(deserialize_shell(blob)) == blob


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


@pytest.mark.parametrize(
    "value, bounds, what",
    [
        (-1, (0,), "an integer of at least 0"),
        (True, (0,), "an integer of at least 0"),
        (3, (0, 2), "an integer from 0 to 2"),
        (-1, (0, 2), "an integer from 0 to 2"),
        (1.0, (), "an integer"),
    ],
)
def test_read_int_rejects_a_value_outside_its_bounds(value, bounds, what):
    # With lo alone it used to compare the value with a missing hi.
    assert read_int(5, "x", 0) == 5 and read_int(2, "x", 0, 2) == 2
    with pytest.raises(ValueError) as err:
        read_int(value, "x", *bounds)
    assert str(err.value) == f"x must be {what}, got {value!r}"


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


# ---------------------------------------------------------------------------
# Seeded decode fuzz: each accepted value is used as written
# ---------------------------------------------------------------------------


def _held_shells(platform):
    """The serialized shell of every agent a platform holds, in transit or not,
    and the messages queued in an inbox or still in flight."""
    shells, messages = [], [m for *_, m in platform._heap]
    for rec in platform._agents.values():
        shells.append(rec.blob if rec.status == _MIGRATING else serialize_shell(rec.shell))
        messages += rec.shell.inbox
    return shells, messages


@functools.lru_cache(maxsize=None)
def _decode_bases():
    """(decoder, JSON value) pairs, where the decoder is a DECODERS key or a
    record's class: each behavior tree, message and shell of the small bench
    worlds, a world resumed mid-run and the shipped scenario, at a few
    ``run(until=k)`` points, and each record's sample; a latency model's is
    read as a scenario reads it, its kind picking the class. The shipped
    scenario runs in a fresh working directory: its courier appends to a
    report store there. The grading records read exact numbers from decimal
    literals, so they are not read as written; ``construct_round_trip``
    covers them."""
    bases = {}
    for sample in _samples():
        if isinstance(sample, ag.Behavior):
            bases[ag.canonical_json(sample.to_dict())] = ("behavior", sample.to_dict())
        elif type(sample).__module__ != "agentry.grading":
            decoder = "latency" if type(sample)._tag else type(sample)
            bases[ag.canonical_json(sample.to_jsonable())] = (decoder, sample.to_jsonable())
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for kind in ("fanin", "fleet", "fsm_mesh", "mid_run", "shipped"):
                for until in (0, 3, 12, 40):
                    platform = build_platform(json.loads(_document_base(kind, 0)), base_dir=SHIPPED.parent)
                    platform.run(until)
                    shells, messages = _held_shells(platform)
                    for blob in shells:
                        shell = json.loads(blob)
                        bases[blob] = ("shell", shell)
                        for b in shell["behaviors"]:
                            bases[ag.canonical_json(b)] = ("behavior", b)
                    for m in messages:
                        d = message_to_jsonable(m)
                        bases[ag.canonical_json(d)] = ("message", d)
        finally:
            os.chdir(home)
    return [bases[key] for key in sorted(bases)]


DECODERS = {
    "behavior": lambda d: ag.behavior_from_dict(d).to_dict(),
    "message": lambda d: message_to_jsonable(message_from_jsonable(d)),
    "shell": lambda d: json.loads(serialize_shell(deserialize_shell(ag.canonical_json(d)))),
    "latency": lambda d: _read_latency(d).to_jsonable(),
}


def _read_latency(spec):
    """A latency spec read as a scenario reads it: its kind picks the model."""
    problems = []
    model = _latency(spec, "", [], problems)
    if problems:
        raise ValueError(problems)
    return model


def _as_written(written, read):
    """True when ``read`` holds every key ``written`` has, with the same JSON
    at each leaf. Leaves compare as canonical JSON, as ``True == 1``."""
    if isinstance(written, dict):
        return isinstance(read, dict) and all(k in read and _as_written(v, read[k]) for k, v in written.items())
    if isinstance(written, list):
        return isinstance(read, list) and len(read) == len(written) and all(map(_as_written, written, read))
    return ag.canonical_json(written) == ag.canonical_json(read)


def decodes_as_written(seed):
    """The differential check ``(seed) -> problems`` for the decoders: one
    field of a base replaced by JSON junk, deleted or wrapped in a list, an
    object or a marker. The decoder must raise, or give back every key the
    input has as written."""
    rng = random.Random(seed)
    decoder, base = rng.choice(_decode_bases())
    written = json.loads(json.dumps(base))
    container, key = rng.choice(list(_slots(written)))
    op = rng.random()
    if op < 0.15:
        del container[key]
    elif op < 0.3:
        container[key] = rng.choice([[container[key]], {"value": container[key]}, {"$state": container[key]}])
    else:
        container[key] = json.loads(json.dumps(rng.choice(JUNK)))
    try:
        decode = DECODERS.get(decoder) or (lambda d: decoder.from_jsonable(d).to_jsonable())
        read = decode(json.loads(json.dumps(written)))
    except Exception:
        return []
    return [] if _as_written(written, read) else [f"{decoder} read {read!r} from {written!r}"]


DECODE_SEEDS = range(200)


@pytest.mark.parametrize("seed", DECODE_SEEDS)
def test_a_decoded_value_is_used_as_written(seed):
    assert decodes_as_written(seed) == []


# ---------------------------------------------------------------------------
# Seeded construct fuzz: what a constructor accepts survives the round trip
# ---------------------------------------------------------------------------


def _samples():
    """A valid value of each record (every class ``record`` built), built
    fresh per call, as behaviors are mutable."""
    noop = ag.ActionDescriptor("noop", {"k": [1]})
    definition = ag.FsmDefinition({"s0": noop, "s1": noop}, {"s0": {"go": "s1"}}, "s0", frozenset({"s1"}))
    question = ag.Question("q", ag.SINGLE_CHOICE, "?", 1, "3/2", ("a", "b"))
    submission = ag.Submission("t", AgentId(3), {"q": 1}, Fraction(1, 2), Fraction(2), 5)
    objective = ag.Objective(ag.LocationId(2, "yard"), 2, 6, (noop,))
    config = ag.ItineraryConfig(ag.Route((objective, ag.Objective(L2, 5, 9))), (noop,), ag.Task(noop))
    estimator = ag.DelayEstimator(links={("one", "two"): Fraction(3, 2)})
    return [
        ag.LocationId(3, "lab"),
        noop,
        ag.RequestEnvelope(noop, "slot"),
        ag.Task(noop),
        ag.Observer(3, noop, noop, ag.CYCLIC, _start=2, _next_check=5),
        ag.Listener("PING", [noop], ag.ONE_SHOT),
        ag.Client(4, ag.RequestEnvelope(noop), 5, 9, on_failure=noop, _phase="await_ack", _conversation="c1", _deadline=7),
        ag.Server(noop),
        ag.Sequential([ag.Task(noop), ag.Task(noop)], _index=1, _current_started=True),
        ag.Parallel([ag.Task(noop), ag.Listener("PING", [noop])], ag.ANY),
        definition,
        ag.Fsm(definition, _current="s0", _entered=True, _pending_label="go"),
        question,
        ag.Test("t", "T", (question,), ag.Exam(4)),
        ag.Exam(4),
        ag.SelfAssessment(),
        submission,
        ag.ExamReport("t", ("n",), ("r",), (submission,)),
        ag.ProgressRecord(AgentId(3), "t", Fraction(7, 2), 6),
        objective,
        config,
        ag.Itinerary(config, True, estimator, _base=0, _index=1, _phase="missed", _arrival=4, _missed_clone=ag.Task(noop)),
        AgentId(3),
        ag.Message(AgentId(3), AgentId(4), "DATA", "c1", b"\x00\xff\xfeA", 6),
        ag.Fixed(2),
        ag.UniformRange(1, 4),
        ag.PerLink({("one", "two"): 3, ("two", "one"): 0}, 2),
    ]


def test_every_record_has_a_sample():
    # But the two blob_text defines to test the written blob.
    samples = [type(sample) for sample in _samples()]
    assert len(samples) == len(set(samples)) and set(samples) == set(model._RECORDS) - {blob_text.Counted, blob_text.OwnDict}


@pytest.mark.parametrize(
    "sample",
    [*_samples(), ag.Question("q", ag.TRUE_FALSE, "?", True, 1), ag.Route((ag.Objective(L2, 1),), None), ag.DelayEstimator()],
    ids=lambda sample: type(sample).__name__,
)
def test_a_record_writes_the_canonical_text_of_its_codec(sample):
    # The second Question omits its empty options.
    codec = sample.to_dict() if isinstance(sample, ag.Behavior) else sample.to_jsonable()
    assert sample._text() == model.canonical_json(codec).decode()


def test_a_task_free_route_keeps_its_text_and_a_route_with_stop_tasks_writes_it_anew():
    free = ag.Route((ag.Objective(L2, 1, 3), ag.Objective(ag.LocationId(3, "lab"))))
    assert free._text() is free._text()
    tasks = ag.Route((ag.Objective(L2, 1, 3, (ag.ActionDescriptor("noop", {"n": [1]}),)),))
    before = tasks._text()
    tasks.objectives[0].stop_tasks[0].params["n"].append(2)
    assert tasks._text() == model.canonical_json(tasks.to_jsonable()).decode() != before


def test_a_shell_writes_a_nullable_nested_behavior_without_its_dict(monkeypatch):
    # missed_behavior and missed_clone are written through the record's own
    # _text, as a required nested column is, so no behavior builds its dict.
    config = ag.ItineraryConfig(ag.Route((ag.Objective(L2, 1, 3),)), missed_behavior=ag.Task(ag.ActionDescriptor("noop", {"n": [1]})))
    itinerary = ag.Itinerary(config, _missed_clone=ag.Sequential([ag.Task(ag.ActionDescriptor("noop"))]))
    shell = AgentShell(ag.AgentId(3), L1, L1, [itinerary, ag.Itinerary(ag.ItineraryConfig(config.route))], {}, deque())
    blob = blob_text.reference(shell)

    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.to_dict called")

    monkeypatch.setattr(ag.Behavior, "to_dict", refuse)
    assert serialize_shell(shell) == blob
    assert b'"missed_behavior":{"action":{"name":"noop","params":{"n":[1]}}' in blob and b'"missed_clone":null' in blob


@pytest.mark.parametrize("seed", blob_text.TIER1_SEEDS)
def test_a_blob_is_written_as_the_dict_form_encodes(seed):
    assert blob_text.blob_text_holds(seed) == []


def test_the_blob_text_shells_hold_every_behavior_record():
    ours = {cls for cls in model._RECORDS if issubclass(cls, ag.Behavior) and cls.__module__.startswith("agentry.")}
    assert len(ours) == 9 and ours <= blob_text.kinds_built(blob_text.TIER1_SEEDS)


def _constructions():
    """(class, valid constructor arguments, the ones to fuzz) for each class
    whose constructor reads its arguments. A record's arguments are its
    sample's fields, each one fuzzed. Route and DelayEstimator read by hand,
    so the arguments they read are named here."""
    constructions = [(type(s), {f.name: getattr(s, f.name) for f in fields(s)}, [f.name for f in fields(s)]) for s in _samples()]
    return [c for c in constructions if c[2]] + [
        (ag.Route, dict(objectives=(ag.Objective(L1),), base_time=3), ["objectives", "base_time"]),
        (
            ag.DelayEstimator,
            dict(alpha=Fraction(1, 3), default_estimate=2, links={("a", "b"): Fraction(5, 2)}),
            ["alpha", "default_estimate", "links"],
        ),
    ]


# JSON junk in an argument: wrong types, and values right by accident for
# some argument (a marker, a state name, a phase, an arrival class, an index).
CONSTRUCT_JUNK = [2.0, 2.5, -1.5, -1, 5, True, False, None, "", "x", "s1", "early", "await_result", "cyclic"]
CONSTRUCT_JUNK += [[], [1], {}, {"k": 1}, {"$state": "k"}]


def constructs_round_trip(seed):
    """The differential check ``(seed) -> problems`` for the constructors: one
    argument of a valid build replaced by JSON junk. The constructor
    must raise a ValueError or an AgentryError, or build a value that its
    decoder reads back equal from canonical JSON."""
    rng = random.Random(seed)
    cls, kwargs, scalars = rng.choice(_constructions())
    name = rng.choice(scalars)
    kwargs[name] = json.loads(json.dumps(rng.choice(CONSTRUCT_JUNK)))
    built = f"{cls.__name__}({name}={kwargs[name]!r})"
    try:
        value = cls(**kwargs)
    except (ValueError, ag.AgentryError):
        return []
    except Exception as exc:
        return [f"{built} raises {type(exc).__name__}: {exc}"]
    try:
        if isinstance(value, ag.Behavior):
            back = ag.behavior_from_dict(json.loads(ag.canonical_json(value.to_dict())))
        else:
            back = cls.from_jsonable(json.loads(ag.canonical_json(value.to_jsonable())))
    except Exception as exc:
        return [f"{built} builds, but its round trip raises {type(exc).__name__}: {exc}"]
    return [] if back == value else [f"{built} builds, but reads back as {back!r}"]


CONSTRUCT_SEEDS = range(200)


@pytest.mark.parametrize("seed", CONSTRUCT_SEEDS)
def test_a_built_value_round_trips_or_its_constructor_raises(seed):
    assert constructs_round_trip(seed) == []


_NOOP = ag.ActionDescriptor("noop")
_ROUTE = ag.Route((ag.Objective(L1),))

# Each of these built, then failed its own round trip: to_jsonable raised
# AttributeError, or an int key (an answer's, a state's, a label's) read
# back as a string.
UNREAD_FIELDS = {
    "report_submissions": (lambda: ag.ExamReport("t", (), (), (1,)), "report submissions entry must be a submission, got 1"),
    "task_action": (lambda: ag.Task({"name": "noop"}), "task action must be an action, got {'name': 'noop'}"),
    "observer_trigger": (lambda: ag.Observer(3, {"name": "noop"}, _NOOP), "observer trigger must be an action, got {'name': 'noop'}"),
    "listener_callbacks": (
        lambda: ag.Listener("PING", [{"name": "noop"}]),
        "listener callbacks entry must be an action, got {'name': 'noop'}",
    ),
    "client_on_failure": (
        lambda: ag.Client(4, ag.RequestEnvelope(_NOOP), on_failure="x"),
        "client on_failure must be null or an action, got 'x'",
    ),
    "request_task": (lambda: ag.RequestEnvelope({"name": "noop"}), "request task must be an action, got {'name': 'noop'}"),
    "submission_answers": (lambda: ag.Submission("t", AgentId(1), {1: 2}, 0, 1, 0), "submission answers key must be a string, got 1"),
    "fsm_state_name": (lambda: ag.FsmDefinition({1: _NOOP, "s": _NOOP}, {}, "s"), "fsm states key must be a string, got 1"),
    "fsm_event_label": (lambda: ag.FsmDefinition({"s": _NOOP}, {"s": {1: "s"}}, "s"), "fsm transitions key must be a string, got 1"),
    # These two raised TypeError: unhashable type: 'list'.
    "fsm_terminal": (lambda: ag.FsmDefinition({"s": _NOOP}, {}, "s", [[1]]), "fsm terminals entry must be a string, got [1]"),
    "fsm_target": (lambda: ag.FsmDefinition({"s": _NOOP}, {"s": {"go": [1]}}, "s"), "transition target [1] not among states"),
    "itinerary_estimator": (
        lambda: ag.Itinerary(ag.ItineraryConfig(_ROUTE), estimator={"k": 1}),
        "itinerary estimator must be null or an estimator, got {'k': 1}",
    ),
    "objective_stop_tasks": (lambda: ag.Objective(L1, stop_tasks=[1]), "objective tasks entry must be an action, got 1"),
    "config_listeners": (lambda: ag.ItineraryConfig(_ROUTE, reached_listeners=[1]), "itinerary listeners entry must be an action, got 1"),
    "config_missed_behavior": (
        lambda: ag.ItineraryConfig(_ROUTE, missed_behavior=5),
        "itinerary missed_behavior must be null or a behavior, got 5",
    ),
    "itinerary_missed_phase": (
        lambda: ag.Itinerary(ag.ItineraryConfig(_ROUTE), _phase="missed", _base=0),
        "itinerary phase 'missed' needs a missed_clone",
    ),
    "itinerary_index": (lambda: ag.Itinerary(ag.ItineraryConfig(_ROUTE), _index=5), "itinerary index 5 out of range for 1 objectives"),
    "location_name": (lambda: ag.Objective(ag.LocationId(1, 2)), "location name must be a string, got 2"),
    "location_value": (lambda: ag.LocationId("x", None), "location value must be an integer, got 'x'"),
    # Each of these built, then failed where a decode or a run first read it.
    "message_conversation": (lambda: ag.Message(AgentId(1), AgentId(2), "PING", 5, b"", 0), "message conversation must be a string, got 5"),
    "message_payload": (lambda: ag.Message(AgentId(1), AgentId(2), "PING", "c", "x", 0), "message payload must be bytes, got 'x'"),
    "message_sent_at": (lambda: ag.Message(AgentId(1), AgentId(2), "PING", "c", b"", 1.5), "message sent_at must be an integer, got 1.5"),
    "message_receiver": (lambda: ag.make_message(AgentId(1), "y", "T", "c"), "message receiver must be an AgentId, got 'y'"),
    "agent_id_str": (lambda: AgentId("x"), "agent id must be an integer, got 'x'"),
    "agent_id_bool": (lambda: AgentId(True), "agent id must be an integer, got True"),
    "config_latency": (lambda: ag.SimConfig(message_latency=5), "message_latency must be a latency model, got 5"),
    # These two read as b"\x00\x00\x00", which wrote back as "AAAA", and as
    # binascii's bare "Incorrect padding".
    "message_payload_alphabet": (
        lambda: message_from_jsonable({**message_to_jsonable(msg()), "payload": "AA!AA"}),
        "message payload must be canonical base64, got 'AA!AA'",
    ),
    "message_payload_padding": (
        lambda: message_from_jsonable({**message_to_jsonable(msg()), "payload": "QQ"}),
        "message payload must be canonical base64, got 'QQ'",
    ),
}


@pytest.mark.parametrize("case", sorted(UNREAD_FIELDS))
def test_a_field_is_read_where_it_is_built(case):
    build, message = UNREAD_FIELDS[case]
    with pytest.raises((ValueError, ag.AgentryError), match=f"^{re.escape(message)}$"):
        build()


def test_a_per_link_model_keeps_a_copy_of_its_table():
    # It kept the caller's dict, so a later write changed the model.
    table = {("one", "two"): 3}
    model = ag.PerLink(table)
    table["one", "two"] = 9
    assert model.sample(None, L1, L2) == 3 and model == ag.PerLink({("one", "two"): 3})


def _dataclass_twin(cls):
    """A plain dataclass with ``cls``'s fields, name and qualname: what
    ``dataclass`` alone would have made of the record."""
    namespace = {"__annotations__": {f.name: f.type for f in fields(cls)}, "__qualname__": cls.__qualname__}
    for f in fields(cls):
        namespace[f.name] = field(default=f.default, kw_only=f.kw_only)
    return dataclass(type(cls.__name__, (), namespace))


def _type_error(build):
    try:
        build()
    except TypeError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("cls", model._RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_constructor_has_the_dataclass_signature(cls):
    twin = _dataclass_twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__init__.__qualname__ == twin.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert "__post_init__" not in vars(cls)
    # Python's own argument errors name the constructor by its qualname.
    too_many = range(len(fields(cls)) + 1)
    for args, kwargs in [((), {}), (too_many, {}), ((), {"bogus": 1})]:
        assert _type_error(lambda: cls(*args, **kwargs)) == _type_error(lambda: twin(*args, **kwargs))


def test_a_missing_argument_names_the_record_constructor():
    with pytest.raises(TypeError, match=re.escape("Task.__init__() missing 1 required positional argument: 'action'")):
        ag.Task()


_UNREADABLE = object()  # no reader takes it


@pytest.mark.parametrize("sample", _samples(), ids=lambda sample: type(sample).__name__)
def test_replace_with_a_bad_value_raises_the_column_readers_error(sample):
    for f in fields(sample):
        c = f.metadata
        if c["read"] is None:
            continue
        with pytest.raises(ValueError) as expected:
            c["read"](_UNREADABLE, c["label"].format(self=sample), *c["args"], **c["kwargs"])
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            replace(sample, **{f.name: _UNREADABLE})


class _StampedAction(ag.ActionDescriptor):
    """A subclass of a record that is not a record, with its own __init__."""

    def __init__(self, name, params=None):
        super().__init__(name, params)
        object.__setattr__(self, "stamped", True)


class _StampedTask(ag.Task):
    def __init__(self, action):
        super().__init__(action)
        self.stamped = True


def test_a_subclass_of_a_record_decodes_through_its_own_init():
    action = _StampedAction.from_jsonable({"name": "noop", "params": [1]})
    assert type(action) is _StampedAction and action.stamped and action.to_jsonable() == {"name": "noop", "params": [1]}
    task = _StampedTask._from_dict_body({"kind": "task", "action": {"name": "noop"}})
    assert type(task) is _StampedTask and task.stamped and not task.finished


class _HandWritten(ag.Behavior):
    """A behavior with a hand-written codec: behavior_from_dict reads its done."""

    kind = "test_model_hand_written"

    def _to_dict_body(self):
        return {}

    @classmethod
    def _from_dict_body(cls, d):
        return cls()


class _CountsDone(dict):
    """A blob that counts the reads of its ``done``."""

    reads = 0

    def get(self, key, *default):
        self.reads += key == "done"
        return super().get(key, *default)

    def __getitem__(self, key):
        self.reads += key == "done"
        return super().__getitem__(key)


@pytest.mark.parametrize(
    "decode, blob",
    [
        (ag.behavior_from_dict, {"kind": "task", "action": {"name": "noop"}}),
        (ag.behavior_from_dict, {"kind": "test_model_hand_written"}),
        (_StampedTask._from_dict_body, {"kind": "task", "action": {"name": "noop"}}),
    ],
    ids=["record", "hand_written", "record_subclass"],
)
def test_a_decoded_behavior_reads_its_done_once(decode, blob):
    for done in (True, False):
        counted = _CountsDone(blob, done=done)
        assert decode(counted).finished is done and counted.reads == 1
    with pytest.raises(ValueError, match="^done must be true or false, got 1$"):
        decode({**blob, "done": 1})


def test_a_record_decodes_without_calling_its_class(monkeypatch):
    """The decoder builds the record itself: a later __init__ on the class
    is not run by it, while the reads still are."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("the decoder called the class")

    monkeypatch.setattr(ag.ActionDescriptor, "__init__", refuse)
    assert ag.ActionDescriptor.from_jsonable({"name": "noop"}).name == "noop"
    with pytest.raises(ValueError, match="^action name must be a string, got 5$"):
        ag.ActionDescriptor.from_jsonable({"name": 5})


def test_a_record_field_without_a_column_raises_where_the_class_is_defined():
    with pytest.raises(TypeError, match="^_Loose.loose has no column$"):

        @record(frozen=True, noun="loose")
        class _Loose:
            kept: int = column(read_int, "kept")
            loose: int = 0


def test_a_record_field_named_like_the_generated_codes_names_raises():
    with pytest.raises(TypeError, match=r"^_Shadow fields \['j', 'noun'\] shadow names the generated code uses$"):

        @record(frozen=True, noun="shadow")
        class _Shadow:
            noun: int = column(read_int, "noun")
            j: int = column(read_int, "j")


# ---------------------------------------------------------------------------
# Seeded config fuzz: a config constructor and the scenario reader agree
# ---------------------------------------------------------------------------

# The fields of each config value a scenario builds through a constructor.
CONFIG_FIELDS = {
    "fixed": ["ticks"],
    "uniform": ["lo", "hi"],
    "per_link": ["source", "destination", "ticks", "default"],
    "max_ticks": ["max_ticks"],
}


def _config(kind, v):
    """The config document entry for ``kind`` with the field values ``v``,
    and the call that builds the same SimConfig from Python. A null
    ``max_ticks`` is absent, as the scenario reads it; a name that cannot be
    a dict key makes building the PerLink table raise a TypeError."""
    if kind == "max_ticks":
        kwargs = {} if v["max_ticks"] is None else {"max_ticks": v["max_ticks"]}
        return {"max_ticks": v["max_ticks"]}, lambda: ag.SimConfig(**kwargs)
    key = v["key"]
    if kind == "fixed":
        spec, build = {"ticks": v["ticks"]}, lambda: ag.Fixed(v["ticks"])
    elif kind == "uniform":
        spec, build = {"lo": v["lo"], "hi": v["hi"]}, lambda: ag.UniformRange(v["lo"], v["hi"])
    else:
        spec = {"links": [[v["source"], v["destination"], v["ticks"]]], "default": v["default"]}
        build = lambda: ag.PerLink({(v["source"], v["destination"]): v["ticks"]}, v["default"])
    return {key: {"kind": kind, **spec}}, lambda: ag.SimConfig(**{key: build()})


def config_accepts(seed):
    """The differential check ``(seed) -> problems`` for the config
    constructors: a latency spec or ``max_ticks`` with one field set to JSON
    junk, or left valid on one seed in five. The constructor must raise a
    ValueError exactly when validation reports a problem at the config
    field's path, and otherwise build the config the scenario reads."""
    rng = random.Random(seed)
    kind = rng.choice(sorted(CONFIG_FIELDS))
    lo = rng.randint(0, 2)
    v = dict(ticks=rng.randint(0, 4), lo=lo, hi=lo + rng.randint(0, 2), default=rng.randint(0, 4), max_ticks=rng.randint(0, 500))
    v.update(source="home", destination="away", key=rng.choice(["message_latency", "migration_latency"]))
    field = rng.choice(CONFIG_FIELDS[kind])
    if rng.random() < 0.8:
        v[field] = json.loads(json.dumps(rng.choice(CONSTRUCT_JUNK)))
    config, build = _config(kind, v)
    (key,) = config
    path, built = f"/config/{key}", f"{kind} with {field}={v[field]!r}"
    try:
        model = build()
    except ValueError:
        model = None
    except TypeError as exc:
        if field not in ("source", "destination") or not isinstance(v[field], (list, dict)):
            return [f"{built} raises TypeError: {exc}"]
        model = None
    except Exception as exc:
        return [f"{built} raises {type(exc).__name__}: {exc}"]
    problems, read, _, _ = _read(base_doc(seed=0, config=config), None)
    reported = [p for p in problems if p.startswith(f"{path}: ")]
    if model is None:
        return [] if reported else [f"{built} raises, but validation reports nothing at {path}"]
    if reported:
        return [f"{built} builds, but validation reports {reported}"]
    return [] if read == model else [f"{built} builds {model!r}, but the scenario reads {read!r}"]


CONFIG_SEEDS = range(200)


@pytest.mark.parametrize("seed", CONFIG_SEEDS)
def test_a_config_constructor_raises_exactly_when_validation_reports_its_field(seed):
    assert config_accepts(seed) == []
