"""Runtime semantics, exercised against both platform implementations."""

import random
from pathlib import Path

import pytest

import agentry as ag
from agentry import simulator
from agentry.actions import builtin_action
from agentry.model import location_to_jsonable
from agentry.scenario import _read, build_platform, load_scenario
from agentry.trace import _TEMPLATES, check_trace

from conftest import events_of, make_mock, make_sim

SHIPPED = Path(__file__).parent.parent / "scenarios" / "push_exam.json"


def ticker(period=1):
    return ag.Observer(
        period,
        ag.ActionDescriptor("always"),
        ag.ActionDescriptor("t.sim.tick_log"),
        mode=ag.CYCLIC,
    )


# ---------------------------------------------------------------------------
# Stepping and spawning
# ---------------------------------------------------------------------------


def test_setup_spawns_step_from_tick_zero(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("t.sim.tick_log"))])
    p.run(until=0)
    # the pre-run agent's one-step task ran at tick 0
    done = [e for e in p.trace() if e.kind == ag.EventKind.BEHAVIOR_DONE]
    assert [e.tick for e in done] == [0]


def test_runtime_spawns_step_from_next_tick(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    parent = p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("t.sim.spawn_child"))])
    p.run(None)
    child = ag.AgentId(p.agent_state(parent)["child"])
    assert p.agent_state(child)["ticks"] == [1]  # parent stepped at 0, child at 1


def test_attach_steps_from_next_tick(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [ag.Listener("NEVER_SENT", [ag.ActionDescriptor("noop")])])
    p.run(until=3)
    p.attach_behavior(a, ag.Task(ag.ActionDescriptor("t.sim.tick_log")))
    p.run(None)
    assert p.agent_state(a)["ticks"] == [4]


def test_first_step_ticks(platform_factory):
    def tagged(who):
        return ag.Task(ag.ActionDescriptor("trace", {"who": who}))

    def steps(p):
        return [(e.detail["who"], e.tick) for e in p.trace() if e.kind == ag.EventKind.CUSTOM]

    # an outside spawn after run(until=k) first steps at k + 1
    p = platform_factory()
    loc = p.create_location("l")
    p.run(until=3)
    p.spawn_agent(loc, [tagged("late")])
    p.run(None)
    assert steps(p) == [("late", 4)]

    # run(until=0) passes tick 0 even on a platform with nothing to do at it
    p = platform_factory()
    loc = p.create_location("l")
    p.run(until=0)
    p.spawn_agent(loc, [tagged("late")])
    p.run(None)
    assert steps(p) == [("late", 1)]

    # a run that processed no tick leaves tick 0 unprocessed
    p = platform_factory()
    loc = p.create_location("l")
    p.run(None)
    p.spawn_agent(loc, [tagged("late")])
    p.run(None)
    assert steps(p) == [("late", 0)]

    # arriving at 3, the carried behavior steps at 3, one attached in transit at 4
    p = platform_factory(migration=3)
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    agent = p.spawn_agent(a_loc, [mover(b_loc, after=[]), tagged("carried")])
    p.run(until=1)
    assert p.agent_location(agent) is None
    p.attach_behavior(agent, tagged("attached"))
    p.run(None)
    assert steps(p) == [("carried", 3), ("attached", 4)]


def test_slot_order_is_spawn_then_list_order(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    p.spawn_agent(loc, [
        ag.Task(ag.ActionDescriptor("trace", {"who": "a0"})),
        ag.Task(ag.ActionDescriptor("trace", {"who": "a1"})),
    ])
    p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("trace", {"who": "b0"}))])
    p.run(None)
    order = [e.detail["who"] for e in p.trace() if e.kind == ag.EventKind.CUSTOM]
    assert order == ["a0", "a1", "b0"]


def test_terminate_only_after_all_slots_finish(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [
        ag.Task(ag.ActionDescriptor("noop")),
        ag.Observer(2, ag.ActionDescriptor("clock_at_least", {"tick": 4}), ag.ActionDescriptor("noop")),
    ])
    p.run(None)
    terms = [e for e in p.trace() if e.kind == ag.EventKind.TERMINATE]
    assert len(terms) == 1
    assert terms[0].tick == 4
    assert not p.is_alive(a)


# ---------------------------------------------------------------------------
# Messaging
# ---------------------------------------------------------------------------


def test_message_latency_and_listener_delivery(platform_factory):
    p = platform_factory(message=3)
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    hearer = p.spawn_agent(a_loc, [ag.Listener("PING", [ag.ActionDescriptor("t.sim.tick_log")], mode=ag.ONE_SHOT)])
    p.spawn_agent(b_loc, [ag.Task(ag.ActionDescriptor("send", {"to": hearer.value, "type": "PING"}))])
    p.run(None)
    deliver = [e for e in p.trace() if e.kind == ag.EventKind.DELIVER]
    assert [e.tick for e in deliver] == [3]
    assert p.agent_state(hearer)["ticks"] == [3]


def test_zero_latency_message_handled_next_tick(platform_factory):
    p = platform_factory(message=0)
    loc = p.create_location("l")
    hearer = p.spawn_agent(loc, [ag.Listener("PING", [ag.ActionDescriptor("t.sim.tick_log")], mode=ag.ONE_SHOT)])
    p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("send", {"to": hearer.value, "type": "PING"}))])
    p.run(None)
    deliver = [e for e in p.trace() if e.kind == ag.EventKind.DELIVER]
    assert [e.tick for e in deliver] == [0]
    assert p.agent_state(hearer)["ticks"] == [1]


def test_delivery_to_terminated_agent_fails_with_reason(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    goner = p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("noop"))])
    p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("send", {"to": goner.value, "type": "LATE"}))])
    p.run(None)
    failed = [e for e in p.trace() if e.kind == ag.EventKind.DELIVER and e.detail.get("failed")]
    assert len(failed) == 1
    assert failed[0].detail["reason"] == "terminated"
    assert failed[0].agent == goner


def test_delivery_to_never_spawned_id_fails(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    ghost = p.reserve_agent_id()
    p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("send", {"to": ghost.value, "type": "VOID"}))])
    p.run(None)
    failed = [e for e in p.trace() if e.kind == ag.EventKind.DELIVER and e.detail.get("failed")]
    assert len(failed) == 1
    assert failed[0].detail["reason"] == "unknown agent"


def test_same_tick_deliveries_keep_send_order(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    hearer = p.spawn_agent(loc, [ag.Listener("*", [ag.ActionDescriptor("noop")], mode=ag.CYCLIC)])
    p.spawn_agent(loc, [ag.Sequential([
        ag.Task(ag.ActionDescriptor("send", {"to": hearer.value, "type": "FIRST"})),
    ])])
    p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("send", {"to": hearer.value, "type": "SECOND"}))])
    p.run(until=10)
    got = [e.detail["type"] for e in p.trace() if e.kind == ag.EventKind.DELIVER]
    assert got == ["FIRST", "SECOND"]


# ---------------------------------------------------------------------------
# Migration
# ---------------------------------------------------------------------------


def mover(dest, after=None):
    steps = [] if after is None else list(after)
    steps.append(ag.Task(ag.ActionDescriptor("t.sim.go", {"dest": location_to_jsonable(dest)})))
    return ag.Sequential(steps)


def test_migration_trace_and_latency(platform_factory):
    p = platform_factory(migration=4)
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    agent = p.spawn_agent(a_loc, [mover(b_loc)])
    p.run(None)
    start = [e for e in p.trace() if e.kind == ag.EventKind.MIGRATE_START]
    end = [e for e in p.trace() if e.kind == ag.EventKind.MIGRATE_END]
    assert [e.tick for e in start] == [0]
    assert [e.tick for e in end] == [4]
    assert end[0].detail == {"from": "a", "to": "b", "latency": 4}
    assert p.agent_location(agent) == b_loc


def test_no_steps_while_in_transit(platform_factory):
    p = platform_factory(migration=5)
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    agent = p.spawn_agent(a_loc, [
        ag.Sequential([
            ag.Observer(1, ag.ActionDescriptor("clock_at_least", {"tick": 2}), ag.ActionDescriptor("noop")),
            ag.Task(ag.ActionDescriptor("t.sim.go", {"dest": location_to_jsonable(b_loc)})),
        ]),
        ticker(),
    ])
    p.run(until=12)
    ticks = p.agent_state(agent)["ticks"]
    # migration runs [3, 8): the parallel ticker must be silent in that window
    assert 3 not in ticks  # the migration request precedes the ticker's slot
    assert all(not (3 <= t < 8) for t in ticks)
    assert 8 in ticks and 2 in ticks


def test_agent_location_none_while_migrating(platform_factory):
    p = platform_factory(migration=6)
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    keep_alive = ag.Listener("NEVER_SENT", [ag.ActionDescriptor("noop")])
    agent = p.spawn_agent(a_loc, [mover(b_loc), keep_alive])
    p.run(until=2)
    assert p.agent_location(agent) is None
    assert agent not in p.agents_at(a_loc)
    assert agent not in p.agents_at(b_loc)
    assert p.is_alive(agent)
    p.run(None)
    assert p.agent_location(agent) == b_loc
    assert agent in p.agents_at(b_loc)
    assert p.is_alive(agent)


def test_the_state_of_an_agent_in_transit_reads_the_same_on_both_platforms():
    # While the agent travels its state is read from its blob, a fresh copy per read.
    states = []
    for make in (make_sim, make_mock):
        p = make(migration=6)
        a_loc, b_loc = p.create_location("a"), p.create_location("b")
        memo = ag.Task(ag.ActionDescriptor("set_state", {"key": "memo", "value": [1, "two"]}))
        agent = p.spawn_agent(a_loc, [ag.Sequential([memo, mover(b_loc).children[0]])])
        p.run(until=3)
        assert p.agent_location(agent) is None
        p.agent_state(agent)["memo"].append(3)
        states.append(p.agent_state(agent))
    assert states[0] == states[1] == {"memo": [1, "two"]}


@builtin_action("t.sim.note_home")
def _note_home(ctx, params, message):
    ctx.state.setdefault("seen", []).append([ctx.now, ctx.home.name, ctx.location.name])


def test_home_stays_the_spawn_location_after_a_move(platform_factory):
    p = platform_factory(migration=2)
    a_loc, b_loc = p.create_location("a"), p.create_location("b")
    note = ag.Task(ag.ActionDescriptor("t.sim.note_home"))
    agent = p.spawn_agent(a_loc, [ag.Sequential([note, mover(b_loc).children[0], ag.Task(ag.ActionDescriptor("t.sim.note_home"))])])
    p.run(None)
    assert p.agent_state(agent)["seen"] == [[0, "a", "a"], [3, "a", "b"]]


def test_mail_sent_to_traveler_arrives_with_it(platform_factory):
    p = platform_factory(migration=6)
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    traveler = p.spawn_agent(a_loc, [
        mover(b_loc),
        ag.Listener("NEWS", [ag.ActionDescriptor("t.sim.tick_log")], mode=ag.ONE_SHOT),
    ])
    p.spawn_agent(a_loc, [ag.Sequential([
        ag.Observer(2, ag.ActionDescriptor("clock_at_least", {"tick": 2}), ag.ActionDescriptor("noop")),
        ag.Task(ag.ActionDescriptor("send", {"to": traveler.value, "type": "NEWS"})),
    ])])
    p.run(None)
    deliver = [e for e in p.trace() if e.kind == ag.EventKind.DELIVER]
    # sent at 2 while the receiver was mid-flight (0 -> 6); held until arrival
    assert [e.tick for e in deliver] == [6]
    assert p.agent_state(traveler)["ticks"] == [6]


def test_zero_latency_migration(platform_factory):
    p = platform_factory(migration=0)
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    agent = p.spawn_agent(a_loc, [mover(b_loc, after=[])])
    p.run(None)
    end = [e for e in p.trace() if e.kind == ag.EventKind.MIGRATE_END]
    assert [e.tick for e in end] == [0]
    assert p.agent_location(agent) == b_loc


def test_last_migration_reports_the_tick_each_trip_landed(platform_factory):
    noted = ag.ActionDescriptor("t.sim.note_trip")

    def note():
        return ag.Task(noted)

    def go(dest):
        return ag.Task(ag.ActionDescriptor("t.sim.go", {"dest": location_to_jsonable(dest)}))

    def world(migration, plan):
        p = platform_factory(migration=migration)
        a, b, c = (p.create_location(name) for name in "abc")
        agent = p.spawn_agent(a, [ag.Sequential(plan(b, c))])
        p.run(None)
        return p, agent

    def landings(p):
        return [[e.detail["from"], e.detail["to"], e.detail["latency"], e.tick] for e in events_of(p, ag.EventKind.MIGRATE_END)]

    # Each entry: [tick of the step, its ctx.last_migration as [src, dest, latency, arrived_at]].
    # An ordinary arrival: due and landed at 1 + 3.
    p, agent = world(3, lambda b, c: [note(), go(b), note()])
    assert p.agent_state(agent)["trips"] == [[0, None], [4, ["a", "b", 3, 4]]]
    assert landings(p) == [["a", "b", 3, 4]]

    # A zero-latency arrival lands in the end-of-tick sweep; the next step reads it.
    p, agent = world(0, lambda b, c: [go(b), note()])
    assert p.agent_state(agent)["trips"] == [[1, ["a", "b", 0, 0]]]
    assert landings(p) == [["a", "b", 0, 0]]

    # A second trip replaces the first.
    p, agent = world(2, lambda b, c: [go(b), note(), go(c), note()])
    assert p.agent_state(agent)["trips"] == [[2, ["a", "b", 2, 2]], [5, ["b", "c", 2, 5]]]
    assert landings(p) == [["a", "b", 2, 2], ["b", "c", 2, 5]]

    # A zero-latency move from outside after run(until=4) is due at 4, but
    # tick 4 has passed: it lands at 5, and the report says so.
    p = platform_factory(migration=0)
    a, b = p.create_location("a"), p.create_location("b")
    agent = p.spawn_agent(a, [ag.Observer(1, ag.ActionDescriptor("clock_at_least", {"tick": 5}), noted)])
    p.run(until=4)
    p.migrate(agent, b)
    p.run(None)
    assert p.agent_state(agent)["trips"] == [[5, ["a", "b", 0, 5]]]
    assert landings(p) == [["a", "b", 0, 5]]


@pytest.mark.parametrize(
    "table, default", [({("a", "b"): -3}, 1), ({}, -1)], ids=["link", "default"]
)
def test_per_link_latency_rejects_negative_ticks(table, default):
    with pytest.raises(ValueError, match="must be an integer of at least 0, got -"):
        ag.PerLink(table, default=default)


NOT_INT_TICKS = {
    "fixed_float": (lambda: ag.Fixed(1.5), "fixed latency ticks must be an integer of at least 0, got 1.5"),
    "fixed_bool": (lambda: ag.Fixed(True), "fixed latency ticks must be an integer of at least 0, got True"),
    "uniform_float": (lambda: ag.UniformRange(0.5, 3), "uniform latency lo must be an integer of at least 0, got 0.5"),
    "uniform_reversed": (lambda: ag.UniformRange(3, 2), "uniform latency hi must be an integer of at least 3, got 2"),
    "per_link_float": (lambda: ag.PerLink({("a", "b"): 1.5}), "per_link latency ticks must be an integer of at least 0, got 1.5"),
    "per_link_name": (lambda: ag.PerLink({("a", 2): 1}), "per_link latency destination must be a string, got 2"),
    "per_link_key": (lambda: ag.PerLink({"ab": 1}), "per_link latency link must be a (source, destination) pair, got 'ab'"),
    "sim_max_ticks": (lambda: ag.SimConfig(max_ticks="9"), "max_ticks must be an integer of at least 0, got '9'"),
    "sim_seed": (lambda: ag.SimConfig(seed=-1), "seed must be an integer of at least 0, got -1"),
    "mock_delay": (lambda: ag.MockPlatform(message_delay=0.5), "message_delay must be an integer of at least 0, got 0.5"),
    "mock_migration": (lambda: ag.MockPlatform(migration_delay=-1), "migration_delay must be an integer of at least 0, got -1"),
    "mock_max_ticks": (lambda: ag.MockPlatform(max_ticks=None), "max_ticks must be an integer of at least 0, got None"),
}


@pytest.mark.parametrize("case", sorted(NOT_INT_TICKS))
def test_a_config_value_that_is_not_an_int_tick_raises_where_it_is_built(case):
    # Fixed(1.5) traced sends at tick 1.5, UniformRange(0.5, 3) raised out of
    # the run from a send, and SimConfig(max_ticks="9") raised a TypeError
    # only when the run compared the clock with it.
    build, message = NOT_INT_TICKS[case]
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


class _Draws:
    """A user's latency model that draws one given value every time."""

    def __init__(self, value):
        self.value = value

    def sample(self, rng, src, dst):
        return self.value


@pytest.mark.parametrize("value", ["x", None, True, 1.5, -3], ids=["str", "none", "bool", "float", "negative"])
@pytest.mark.parametrize("latency", ["message_latency", "migration_latency"])
def test_a_latency_sample_that_is_not_a_tick_raises_before_anything_happens(latency, value):
    # A migration sample of "x" raised TypeError after migrate_start, and left
    # the agent in transit forever; 1.5 traced a tick of 1.5, True a latency
    # of true, and -3 delivered a message before it was sent.
    p = ag.SimPlatform(ag.SimConfig(**{latency: _Draws(value)}))
    here, there = p.create_location("here"), p.create_location("there")
    agent = p.spawn_agent(here, [ag.Listener("*", [ag.ActionDescriptor("noop")], mode=ag.CYCLIC)])
    before = p.trace().to_jsonl()
    with pytest.raises(ValueError) as err:
        if latency == "message_latency":
            p.send(ag.make_message(agent, agent, "A", "c", sent_at=p.now()))
        else:
            p.migrate(agent, there)
    assert str(err.value) == f"latency sample must be an integer of at least 0, got {value!r}"
    assert p.trace().to_jsonl() == before
    assert p.agent_location(agent) == here


def test_a_sender_must_be_an_agent_at_a_location(platform_factory):
    # A send in the name of an agent never spawned, terminated or in transit
    # since an earlier tick traced an event that no agent could have made.
    p = platform_factory(migration=3)
    here, there = p.create_location("here"), p.create_location("there")
    ghost = p.reserve_agent_id()
    gone = p.spawn_agent(here, [])
    mover = p.spawn_agent(here, [ag.Listener("*", [ag.ActionDescriptor("noop")], mode=ag.CYCLIC)])
    p.run(until=1)
    p.migrate(mover, there)
    p.send(ag.make_message(mover, mover, "A", "c", sent_at=p.now()))  # in the tick its move began
    p.run(until=2)
    before = p.trace().to_jsonl()
    refused = {ghost: (ag.UnknownAgent, f"no agent {ghost!r}"), gone: (ag.UnknownAgent, f"agent {gone!r} has terminated")}
    refused[mover] = (ag.AlreadyMigrating, f"agent {mover!r} is in transit")
    for sender, (error, message) in refused.items():
        with pytest.raises(error) as err:
            p.send(ag.make_message(sender, mover, "A", "c", sent_at=p.now()))
        assert str(err.value) == message
    assert p.trace().to_jsonl() == before
    p.run(None)
    assert check_trace(p.trace()) == []
    assert [e.tick for e in p.trace() if e.kind == ag.EventKind.DELIVER] == [4]


def test_migration_round_trips_state(platform_factory):
    p = platform_factory(migration=2)
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    agent = p.spawn_agent(a_loc, [ag.Sequential([
        ag.Task(ag.ActionDescriptor("set_state", {"key": "memo", "value": [1, "two"]})),
        ag.Task(ag.ActionDescriptor("t.sim.go", {"dest": location_to_jsonable(b_loc)})),
        ag.Task(ag.ActionDescriptor("t.sim.tick_log")),
    ])])
    p.run(None)
    state = p.agent_state(agent)
    assert state["memo"] == [1, "two"]
    assert state["ticks"] == [3]  # arrival at 3 (requested at 1), stepped on the arrival tick


def test_unserializable_state_fails_migration_before_it_starts(platform_factory):
    p = platform_factory()
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    go = ag.ActionDescriptor("t.sim.hoard_then_go", {"dest": location_to_jsonable(b_loc)})
    agent = p.spawn_agent(a_loc, [ag.Task(go)])
    with pytest.raises(TypeError):
        p.run(None)
    assert not [e for e in p.trace() if e.kind == ag.EventKind.MIGRATE_START]
    assert p.agent_location(agent) == a_loc


def test_already_migrating_rejected(platform_factory):
    p = platform_factory(migration=9)
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    agent = p.spawn_agent(a_loc, [ag.Listener("X", [ag.ActionDescriptor("noop")])])
    p.migrate(agent, b_loc)
    with pytest.raises(ag.AlreadyMigrating):
        p.migrate(agent, b_loc)


def test_platform_errors(platform_factory):
    p = platform_factory()
    loc = p.create_location("here")
    with pytest.raises(ag.DuplicateLocationName):
        p.create_location("here")
    foreign = ag.LocationId(99, "elsewhere")
    with pytest.raises(ag.UnknownLocation):
        p.spawn_agent(foreign, [ag.Task(ag.ActionDescriptor("noop"))])
    with pytest.raises(ag.UnknownAgent):
        p.migrate(ag.AgentId(12345), loc)
    assert p.location_named("here") == loc
    with pytest.raises(ag.UnknownLocation):
        p.location_named("nowhere")


class _SendThenBadTrace(ag.Behavior):
    """Sends, then asks for a trace event of a kind that does not exist."""

    kind = "t.sim.send_then_bad_trace"

    def _step(self, ctx):
        ctx.send(ag.make_message(ctx.agent_id, ctx.agent_id, "PING", "c", sent_at=ctx.now))
        ctx.trace({}, kind="nonsense")
        return ag.DONE


def test_bad_trace_kind_fails_the_step_before_its_effects(platform_factory):
    # unguarded: the step raises and its earlier send is never applied
    p = platform_factory()
    loc = p.create_location("l")
    p.spawn_agent(loc, [_SendThenBadTrace()])
    with pytest.raises(ValueError):
        p.run(None)
    assert [e.kind for e in p.trace()] == [ag.EventKind.SPAWN]

    # guarded: a Task traces the error and finishes
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("t.sim.send_then_bad_trace"))])
    p.run(None)
    errors = [e.detail for e in p.trace() if e.kind == ag.EventKind.CUSTOM]
    assert errors == [{"error": "'nonsense' is not a valid EventKind", "action": "t.sim.send_then_bad_trace"}]
    assert not p.is_alive(a)


def test_failed_guarded_action_drops_its_buffered_effects(platform_factory):
    # the action sends, then raises: only the error is traced, no send or deliver
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("t.sim.send_then_bad_trace"))])
    p.run(None)
    assert [(e.tick, e.kind) for e in p.trace()] == [
        (0, ag.EventKind.SPAWN),
        (0, ag.EventKind.CUSTOM),
        (0, ag.EventKind.BEHAVIOR_DONE),
        (0, ag.EventKind.TERMINATE),
    ]
    assert not p.is_alive(a)


# ---------------------------------------------------------------------------
# Clock, quiescence, budget
# ---------------------------------------------------------------------------


def test_run_until_advances_clock_even_when_idle(platform_factory):
    p = platform_factory()
    p.create_location("l")
    p.run(until=25)
    assert p.now() == 25


def test_quiescence_with_blocked_listener(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [ag.Listener("NEVER", [ag.ActionDescriptor("noop")])])
    p.run(None)  # returns: a blocked listener with no mail pending is quiet
    assert p.is_alive(a)


def test_agent_without_behaviors_terminates(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    first = p.spawn_agent(loc, [])
    p.run(None)
    p.run(until=7)
    second = p.spawn_agent(loc, [])
    p.run(None)
    terms = [(e.agent, e.tick) for e in p.trace() if e.kind == ag.EventKind.TERMINATE]
    assert terms == [(first, 0), (second, 8)]
    assert not p.is_alive(first) and not p.is_alive(second)


def test_tick_budget_exceeded(platform_factory):
    p = platform_factory(max_ticks=40)
    loc = p.create_location("l")
    p.spawn_agent(loc, [ag.Observer(1, ag.ActionDescriptor("never"), ag.ActionDescriptor("noop"), mode=ag.CYCLIC)])
    p.run(until=30)  # bounded runs never trip the budget
    with pytest.raises(ag.TickBudgetExceeded):
        p.run(None)


def test_tick_budget_exceeded_leaves_the_clock_at_the_budget(platform_factory):
    p = platform_factory(max_ticks=40)
    loc = p.create_location("l")
    p.spawn_agent(loc, [ag.Observer(7, ag.ActionDescriptor("never"), ag.ActionDescriptor("noop"), mode=ag.CYCLIC)])
    with pytest.raises(ag.TickBudgetExceeded):
        p.run(None)
    assert p.now() == 40  # the last check ran at 35; 36-40 passed without work
    # the budget's ticks are spent: an outside spawn first steps at 41
    late = p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("noop"))])
    p.run(until=45)
    assert [e.tick for e in p.trace() if e.agent == late and e.kind == ag.EventKind.BEHAVIOR_DONE] == [41]


def test_trace_ticks_and_seqs_are_monotonic(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    hearer = p.spawn_agent(loc, [ag.Listener("*", [ag.ActionDescriptor("noop")], mode=ag.CYCLIC)])
    for i in range(3):
        p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("send", {"to": hearer.value, "type": f"T{i}"}))])
    p.run(until=20)
    assert check_trace(p.trace()) == []


def test_a_traced_detail_keeps_its_value_when_state_changes_later(platform_factory):
    # Each step traces the list it keeps appending to in state: an event
    # keeps the list, and the lists nested in it, as they were when traced.
    p = platform_factory()
    loc = p.create_location("l")
    seen = ag.ActionDescriptor("t.sim.trace_seen")
    agent = p.spawn_agent(loc, [ag.Sequential([ag.Task(seen), ag.Task(seen)])])
    p.run(None)
    assert p.agent_state(agent)["seen"] == [0, 1]
    custom = [e for e in p.trace() if e.kind == ag.EventKind.CUSTOM]
    assert [(e.tick, e.detail) for e in custom] == [
        (0, {"seen": [0], "nested": {"all": [[0]]}}),
        (1, {"seen": [0, 1], "nested": {"all": [[0, 1]]}}),
    ]
    assert '"detail":{"nested":{"all":[[0]]},"seen":[0]}' in custom[0].to_json_line()


# ---------------------------------------------------------------------------
# Determinism and conservation
# ---------------------------------------------------------------------------


def _random_world(factory, seed):
    rng = random.Random(seed)
    p = factory(message=rng.randint(0, 3), migration=rng.randint(1, 3), seed=seed)
    locs = [p.create_location(f"loc{i}") for i in range(rng.randint(2, 4))]
    ids = [p.reserve_agent_id() for _ in range(rng.randint(2, 5))]
    ghost = p.reserve_agent_id()
    for agent_id in ids:
        home = rng.choice(locs)
        sends = [
            ag.Task(ag.ActionDescriptor("send", {
                "to": rng.choice(ids + [ghost]).value,
                "type": rng.choice(["A", "B", "C"]),
            }))
            for _ in range(rng.randint(0, 3))
        ]
        behaviors = [ag.Listener("*", [ag.ActionDescriptor("noop")], mode=ag.CYCLIC), ag.Sequential(sends)] if sends else [
            ag.Listener("*", [ag.ActionDescriptor("noop")], mode=ag.CYCLIC)]
        if rng.random() < 0.5:
            dest = rng.choice(locs)
            behaviors.append(ag.Sequential([
                ag.Observer(1, ag.ActionDescriptor("clock_at_least", {"tick": rng.randint(1, 4)}), ag.ActionDescriptor("noop")),
                ag.Task(ag.ActionDescriptor("t.sim.go", {"dest": location_to_jsonable(dest)})),
            ]))
        p.spawn_agent(home, behaviors, agent_id=agent_id)
    return p


@pytest.mark.parametrize("seed", range(8))
def test_every_send_is_delivered_exactly_once(platform_factory, seed):
    p = _random_world(platform_factory, seed)
    p.run(None)
    sends = [e for e in p.trace() if e.kind == ag.EventKind.SEND]
    delivers = [e for e in p.trace() if e.kind == ag.EventKind.DELIVER]
    assert len(sends) == len(delivers)
    # per-type accounting too, and causality: no delivery before any send of that type
    for tag in {e.detail["type"] for e in sends}:
        s = [e.tick for e in sends if e.detail["type"] == tag]
        d = [e.tick for e in delivers if e.detail["type"] == tag]
        assert len(s) == len(d)
        assert min(d) >= min(s)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_same_seed_same_trace(seed):
    runs = []
    for _ in range(2):
        p = _random_world(make_sim, seed)
        p.run(None)
        runs.append(p.trace().to_jsonl())
    assert runs[0] == runs[1]


def test_both_platforms_agree_with_fixed_latencies():
    traces = []
    for factory in (make_sim, make_mock):
        p = _random_world(factory, 5)
        p.run(None)
        traces.append(p.trace().to_jsonl())
    assert traces[0] == traces[1]


def _generated_platform(factory, seed):
    """Run a seeded world to quiescence, pausing once on the way, and return
    the platform.

    Every seeded agent keeps a cyclic listener, so it lives to the end and can
    always be attached to; some listeners filter for a type that is rarely or
    never sent. Around it: sends (some to a never-spawned id), timers, AnyOf
    wakes (a Parallel of a listener and an observer), migrations, runtime
    spawns and attaches. Latencies may be zero. After ``run(until=pause)``
    the outside world spawns one more agent (possibly with no behavior at
    all), sends a message and runs to quiescence.
    """
    rng = random.Random(seed)
    p = factory(message=rng.randint(0, 2), migration=rng.randint(0, 2))
    locs = [p.create_location(f"loc{i}") for i in range(rng.randint(1, 3))]
    ids = [p.reserve_agent_id() for _ in range(rng.randint(2, 6))]
    targets = ids + [p.reserve_agent_id()]  # the last id is never spawned
    types = ["A", "B", "C"]

    def send():
        return ag.Task(ag.ActionDescriptor("send", {"to": rng.choice(targets).value, "type": rng.choice(types)}))

    def observer(action):
        trigger = ag.ActionDescriptor("clock_at_least", {"tick": rng.randint(0, 8)})
        return ag.Observer(rng.randint(1, 4), trigger, action)

    def extra():
        pick = rng.randrange(6)
        if pick == 0:
            return ag.Sequential([send() for _ in range(rng.randint(1, 3))])
        if pick == 1:
            go = ag.ActionDescriptor("t.sim.go", {"dest": location_to_jsonable(rng.choice(locs))})
            return ag.Sequential([observer(ag.ActionDescriptor("noop")), ag.Task(go)])
        if pick == 2:
            return ag.Task(ag.ActionDescriptor("t.sim.spawn_child"))
        if pick == 3:
            return ag.Task(ag.ActionDescriptor("t.sim.attach_to", {"to": rng.choice(ids).value}))
        if pick == 4:
            hearer = ag.Listener(rng.choice(types), [ag.ActionDescriptor("noop")], mode=ag.ONE_SHOT)
            return ag.Parallel([hearer, observer(ag.ActionDescriptor("trace", {"fired": True}))], completion=ag.ANY)
        return observer(ag.ActionDescriptor("trace", {"checked": True}))

    for agent_id in ids:
        listener = ag.Listener(rng.choice(["*", "*", "A", "Z"]), [ag.ActionDescriptor("noop")], mode=ag.CYCLIC)
        behaviors = [listener] + [extra() for _ in range(rng.randint(0, 3))]
        p.spawn_agent(rng.choice(locs), behaviors, agent_id=agent_id)
    p.run(until=rng.randint(0, 6))
    late = p.spawn_agent(rng.choice(locs), rng.choice([[], [send()], [extra()]]))
    p.send(ag.make_message(late, rng.choice(targets), rng.choice(types), "outside", sent_at=p.now()))
    p.run(None)
    return p


def _generated_world(factory, seed):
    """A seeded world's platform, and what it shows: its trace and final
    clock reading (the last tick with work)."""
    p = _generated_platform(factory, seed)
    return p, (p.trace().to_jsonl(), p.now())


# The kinds only the runtime emits. The objective kinds have templates too,
# but they come through ctx.trace, where any detail shape is legal.
_RUNTIME_KINDS = ("spawn", "terminate", "send", "deliver", "migrate_start", "migrate_end", "behavior_done")


def _untemplated(log):
    """The runtime's own events in ``log`` that miss their render template,
    which only a failed deliver is meant to do."""
    return [
        f"seq {e.seq} ({e.kind._value_}) misses its template"
        for e in log
        if e.kind._value_ in _RUNTIME_KINDS and "failed" not in e.detail and _TEMPLATES[e.kind._value_](e.tick, e.seq, e.agent, e.detail) is None
    ]


def _platforms_agree(world):
    """A differential check ``(seed) -> problems``: the seeded world, run to
    quiescence, shows the same on the sim and the mock, and each platform's
    trace keeps ``check_trace``'s rules and renders the runtime's own events
    through their templates."""

    def check(seed):
        (sim, shown), (mock, also_shown) = world(make_sim, seed), world(make_mock, seed)
        problems = [
            f"{name}: {problem}" for name, p in (("sim", sim), ("mock", mock)) for problem in check_trace(p.trace()) + _untemplated(p.trace())
        ]
        return problems + ([] if shown == also_shown else ["sim and mock disagree"])

    return check


generated_worlds_agree = _platforms_agree(_generated_world)
GENERATED_WORLD_SEEDS = range(120)


@pytest.mark.parametrize("seed", GENERATED_WORLD_SEEDS)
def test_generated_worlds_agree_on_both_platforms(seed):
    assert generated_worlds_agree(seed) == []


# Calls ``(platform, agent, location, behavior)`` whose id, location,
# location name or message argument, or ``until``, is of the wrong type or
# out of range.
JUNK_CALLS = [
    lambda p, a, loc, b: p.run(until=1.5),
    lambda p, a, loc, b: p.run(until=True),
    lambda p, a, loc, b: p.run(until="x"),
    lambda p, a, loc, b: p.run(until=-1),
    lambda p, a, loc, b: p.migrate(a, loc.name),
    lambda p, a, loc, b: p.migrate(a.value, loc),
    lambda p, a, loc, b: p.spawn_agent(loc.name, []),
    lambda p, a, loc, b: p.spawn_agent(loc, [], a.value),
    lambda p, a, loc, b: p.attach_behavior(a.value, b),
    lambda p, a, loc, b: p.create_location([loc.name]),
    lambda p, a, loc, b: p.send(loc.name),
]


def _outside_calls_world(factory, seed, junk=True):
    """Drive a seeded world by outside calls only, and return the platform
    and what it shows of the world: each call's outcome and clock reading,
    the trace, the final clock and every agent's aliveness, location and
    state, and the errors of the junk calls.

    The calls interleave ``run(until=k)``, where k may be 0 or behind
    ``now()``, with spawns (some with no behavior), attaches, sends (some to
    a never-spawned id), moves and ``run(None)``. Latencies are fixed and
    may be zero. Calls that the platform refuses (an attach to a terminated
    agent, a move of one in transit) are part of the outcome. With ``junk``,
    a call from ``JUNK_CALLS``, drawn from a second RNG, may come before
    each call: it must raise ValueError with the clock and the trace as they
    were, so the rest shows what the world shows without it.
    """
    rng, junk_rng = random.Random(seed), random.Random(f"junk calls {seed}")
    junk_errors = []
    p = factory(message=rng.randint(0, 2), migration=rng.randint(0, 2))
    locs = [p.create_location(f"loc{i}") for i in range(rng.randint(1, 3))]
    ghost = p.reserve_agent_id()  # never spawned
    agents = []
    types = ["A", "B"]
    noted = ag.ActionDescriptor("t.sim.note_trip")

    def anyone():
        return rng.choice(agents + [ghost])

    def behavior():
        pick = rng.randrange(5)
        if pick == 0:
            return ag.Listener(rng.choice(types + ["*"]), [noted], mode=ag.CYCLIC)
        if pick == 1:
            return ag.Task(ag.ActionDescriptor("send", {"to": anyone().value, "type": rng.choice(types)}))
        if pick == 2:
            trigger = ag.ActionDescriptor("clock_at_least", {"tick": rng.randint(0, 10)})
            return ag.Observer(rng.randint(1, 3), trigger, noted)
        if pick == 3:
            return ag.Task(ag.ActionDescriptor("t.sim.go", {"dest": location_to_jsonable(rng.choice(locs))}))
        return ag.Task(ag.ActionDescriptor("t.sim.tick_log"))

    outcomes = []
    for _ in range(rng.randint(2, 12)):
        if junk and agents and junk_rng.random() < 0.5:
            before = (p.now(), p.trace().to_jsonl())
            try:
                junk_rng.choice(JUNK_CALLS)(p, junk_rng.choice(agents), junk_rng.choice(locs), ag.Task(noted))
            except ValueError as exc:
                junk_errors.append(str(exc))
            else:
                junk_errors.append("a junk call returned")
            assert (p.now(), p.trace().to_jsonl()) == before
        call = rng.choice(["run_until", "spawn", "attach", "send", "migrate", "run"])
        try:
            if call == "run_until":
                p.run(until=max(0, rng.choice([0, p.now() - 1, p.now(), p.now() + rng.randint(1, 4)])))
            elif call == "spawn":
                agents.append(p.spawn_agent(rng.choice(locs), [behavior() for _ in range(rng.choice([0, 1, 1, 2, 3]))]))
            elif call == "attach" and agents:
                p.attach_behavior(rng.choice(agents), behavior())
            elif call == "send":
                p.send(ag.make_message(anyone(), anyone(), rng.choice(types), "outside", sent_at=p.now()))
            elif call == "migrate" and agents:
                p.migrate(rng.choice(agents), rng.choice(locs))
            elif call == "run":
                p.run(None)
            outcomes.append((call, None, p.now()))
        except (ag.UnknownAgent, ag.AlreadyMigrating) as refused:
            outcomes.append((call, type(refused).__name__, p.now()))
    p.run(None)
    seen = [(p.is_alive(a), p.agent_location(a), p.agent_state(a)) for a in agents]
    return p, (outcomes, p.trace().to_jsonl(), p.now(), seen, junk_errors)


def outside_calls_agree(seed):
    """The two platforms agree on the seeded world, and each shows without
    its junk calls what it shows with them."""
    problems = _platforms_agree(_outside_calls_world)(seed)
    for name, factory in (("sim", make_sim), ("mock", make_mock)):
        shown, plain = (_outside_calls_world(factory, seed, junk)[1] for junk in (True, False))
        if shown[:4] != plain[:4]:
            problems.append(f"{name}: the junk calls changed the world")
    return problems


OUTSIDE_CALLS_SEEDS = range(150)


@pytest.mark.parametrize("seed", OUTSIDE_CALLS_SEEDS)
def test_outside_calls_agree_on_both_platforms(seed):
    assert outside_calls_agree(seed) == []


@pytest.mark.parametrize("call", range(len(JUNK_CALLS)))
def test_a_junk_argument_raises_at_the_call_and_changes_nothing(call):
    texts = []
    for factory in (make_sim, make_mock):
        p = factory()
        loc = p.create_location("l")
        agent = p.spawn_agent(loc, [ag.Listener("A", [ag.ActionDescriptor("noop")])])
        p.run(until=2)
        before = (p.now(), p.trace().to_jsonl(), p.locations(), p.reserve_agent_id().value)
        with pytest.raises(ValueError) as raised:
            JUNK_CALLS[call](p, agent, loc, ag.Task(ag.ActionDescriptor("noop")))
        assert (p.now(), p.trace().to_jsonl(), p.locations(), p.reserve_agent_id().value - 1) == before
        texts.append(str(raised.value))
    assert texts[0] == texts[1]
    assert texts[0] == [
        "run until must be null or an integer of at least 0, got 1.5",
        "run until must be null or an integer of at least 0, got True",
        "run until must be null or an integer of at least 0, got 'x'",
        "run until must be null or an integer of at least 0, got -1",
        "migration destination must be a LocationId, got 'l'",
        "migrating agent must be an AgentId, got 1",
        "spawn location must be a LocationId, got 'l'",
        "spawned agent id must be an AgentId, got 1",
        "attach target must be an AgentId, got 1",
        "location name must be a string, got ['l']",
        "sent message must be a message, got 'l'",
    ][call]


def test_a_junk_send_draws_no_latency():
    # At the parent both platforms raised AttributeError reading msg.sender.
    def trace(junk):
        p = ag.SimPlatform(ag.SimConfig(seed=3, message_latency=ag.UniformRange(0, 9)))
        agent = p.spawn_agent(p.create_location("l"), [ag.Listener("A", [ag.ActionDescriptor("noop")])])
        if junk:
            with pytest.raises(ValueError, match="^sent message must be a message, got 'x'$"):
                p.send("x")
        for _ in range(3):
            p.send(ag.make_message(agent, agent, "A", "c"))
        p.run(None)
        return p.trace().to_jsonl()

    assert trace(junk=True) == trace(junk=False)


# ---------------------------------------------------------------------------
# The trace log: rows written, events read
# ---------------------------------------------------------------------------


def _push_exam_platform(factory):
    """The shipped push-exam world, run to quiescence. On the sim it is the
    scenario's own build, whose trace is the golden one; the mock spawns the
    trees the scenario's reading built, under its fixed delays. Both
    platforms assign ids from 1, the ids those trees' markers hold."""
    doc = load_scenario(SHIPPED)
    if factory is make_sim:
        p = build_platform(doc, base_dir=SHIPPED.parent)
    else:
        p = factory(message=1, migration=2)
        _, _, names, entries = _read(doc, SHIPPED.parent)
        locations = {name: p.create_location(name) for name in names}
        for where, behaviors in entries:
            p.spawn_agent(locations[where], behaviors)
    p.run(None)
    return p


def _seed_2_platform(factory):
    return _generated_platform(factory, 2)


@pytest.fixture(
    params=[
        pytest.param((world, factory), id=f"{label}-{name}")
        for label, world in (("push_exam", _push_exam_platform), ("generated", _seed_2_platform))
        for name, factory in (("sim", make_sim), ("mock", make_mock))
    ]
)
def finished_platform(request, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the push-exam courier writes its report store here
    world, factory = request.param
    return world(factory)


def test_reading_the_log_yields_its_rows_as_events_in_order(finished_platform):
    log = finished_platform.trace()
    events = list(log)
    assert events and all(type(e) is ag.TraceEvent for e in events)
    assert check_trace(events) == []
    assert len(log) == len(events)
    # The line format has one definition: the log renders what its events do.
    assert log.to_jsonl() == "".join(e.to_json_line() + "\n" for e in log)


def test_an_event_emitted_after_a_read_shows_in_the_next_read(finished_platform):
    p = finished_platform
    log = p.trace()
    before = list(log)
    assert log.emit(p.now(), ag.EventKind.CUSTOM, before[0].agent, {"late": True}) is None
    late = ag.TraceEvent(p.now(), len(before), ag.EventKind.CUSTOM, before[0].agent, {"late": True})
    assert list(log) == before + [late]
    assert len(log) == len(before) + 1
    assert log.to_jsonl().endswith("\n" + late.to_json_line() + "\n")


# ---------------------------------------------------------------------------
# Scheduler cost
# ---------------------------------------------------------------------------


class _Sleeper(ag.Behavior):
    """Blocks forever on its first step."""

    kind = "t.sim.sleeper"

    def _step(self, ctx):
        return ag.Blocked(ag.Never())


def test_idle_agents_cost_no_wake_checks(monkeypatch):
    """Wake checks grow with steps and agents, not with ticks x agents: an
    agent blocked on a far timer or on nothing is not looked at again."""
    counts = {"wake": 0, "step": 0}
    real_wake, real_step = simulator.wake_satisfied, ag.Behavior.step

    def wake(*args, **kwargs):
        counts["wake"] += 1
        return real_wake(*args, **kwargs)

    def step(behavior, ctx):
        counts["step"] += 1
        return real_step(behavior, ctx)

    monkeypatch.setattr(simulator, "wake_satisfied", wake)
    monkeypatch.setattr(ag.Behavior, "step", step)
    p = make_sim()
    loc = p.create_location("l")
    agents = 500
    for i in range(agents):
        far = ag.Observer(1_000_000, ag.ActionDescriptor("always"), ag.ActionDescriptor("noop"))
        p.spawn_agent(loc, [far if i % 2 else _Sleeper()])
    clock = p.spawn_agent(loc, [ticker()])
    p.run(until=100)
    assert p.agent_state(clock)["ticks"] == list(range(1, 101))
    assert counts["step"] == agents + 101
    assert counts["wake"] < 3 * counts["step"] + 2 * agents
