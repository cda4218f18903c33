"""Runtime semantics, exercised against both platform implementations."""

import random
from pathlib import Path

import pytest

import agentry as ag
from agentry import simulator
from agentry.model import location_to_jsonable
from agentry.scenario import _Binder, build_platform, load_scenario

from conftest import make_mock, make_sim

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


@pytest.mark.parametrize(
    "table, default", [({("a", "b"): -3}, 1), ({}, -1)], ids=["link", "default"]
)
def test_per_link_latency_rejects_negative_ticks(table, default):
    with pytest.raises(ValueError, match="non-negative"):
        ag.PerLink(table, default=default)


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
    events = list(p.trace())
    assert [e.seq for e in events] == list(range(len(events)))
    assert all(a.tick <= b.tick for a, b in zip(events, events[1:]))


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
    """A seeded world's trace and final clock reading (the last tick with work)."""
    p = _generated_platform(factory, seed)
    return p.trace().to_jsonl(), p.now()


@pytest.mark.parametrize("seed", range(120))
def test_generated_worlds_agree_on_both_platforms(seed):
    assert _generated_world(make_sim, seed) == _generated_world(make_mock, seed)


# ---------------------------------------------------------------------------
# The trace log: rows written, events read
# ---------------------------------------------------------------------------


def _push_exam_platform(factory):
    """The shipped push-exam world, run to quiescence. On the sim it is the
    scenario's own build, whose trace is the golden one; the mock gets the
    same agents under its fixed delays."""
    doc = load_scenario(SHIPPED)
    if factory is make_sim:
        p = build_platform(doc, base_dir=SHIPPED.parent)
    else:
        p = factory(message=1, migration=2)
        locations = {name: p.create_location(name) for name in doc["locations"]}
        binder = _Binder(locations, [p.reserve_agent_id() for _ in doc["agents"]], "")
        for entry, agent_id in zip(doc["agents"], binder.agents):
            behaviors = [ag.behavior_from_dict(binder.bind(spec)) for spec in entry["behaviors"]]
            p.spawn_agent(locations[entry["location"]], behaviors, agent_id=agent_id)
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
    assert [e.seq for e in events] == list(range(len(events)))
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
