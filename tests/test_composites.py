"""Sequential, Parallel, and FSM composition semantics.

Every scenario here runs on both platforms via the platform_factory
fixture; tick numbers recorded by the probe actions are the oracle.
"""

import random

import pytest

import agentry as ag
from agentry.actions import builtin_action
from agentry.composites import FSM_EVENT
from agentry.model import AgentId, location_to_jsonable, make_message
from agentry.trace import EventKind

from conftest import events_of


@builtin_action("t.fsm.emit")
def _emit(ctx, params, message):
    ctx.state.setdefault("marks", []).append([params["tag"], ctx.now])
    label = params.get("label")
    return label.encode() if label is not None else None


@builtin_action("t.fsm.send_event")
def _send_event(ctx, params, message):
    ctx.send(
        make_message(
            ctx.agent_id,
            AgentId(int(params["to"])),
            FSM_EVENT,
            "",
            params["label"].encode(),
            sent_at=ctx.now,
        )
    )


def mark(tag):
    return ag.Task(ag.ActionDescriptor("t.beh.mark", {"tag": tag}))


def raw_send(to, label):
    return ag.Task(ag.ActionDescriptor("t.fsm.send_event", {"to": to.value, "label": label}))


def run_world(factory, behaviors, **kw):
    p = factory(**kw)
    home = p.create_location("home")
    agent = p.spawn_agent(home, behaviors)
    p.run()
    return p, agent


def marks_of(platform, agent):
    return platform.agent_state(agent).get("marks", [])


def terminate_tick(platform):
    ends = events_of(platform, EventKind.TERMINATE)
    assert len(ends) == 1
    return ends[0].tick


# ---------------------------------------------------------------------------
# Sequential
# ---------------------------------------------------------------------------


def test_sequential_runs_children_in_order(platform_factory):
    p, a = run_world(platform_factory, [ag.Sequential([mark("a"), mark("b"), mark("c")])])
    assert marks_of(p, a) == [["a", 0], ["b", 1], ["c", 2]]


def test_sequential_finishes_with_its_last_child(platform_factory):
    # Done on the same step the final child completes, not one step later.
    p, a = run_world(platform_factory, [ag.Sequential([mark("a"), mark("b"), mark("c")])])
    assert terminate_tick(p) == 2


def test_nested_sequential_is_depth_first(platform_factory):
    tree = ag.Sequential(
        [
            ag.Sequential([mark("a"), mark("b")]),
            ag.Sequential([mark("c")]),
        ]
    )
    p, a = run_world(platform_factory, [tree])
    assert marks_of(p, a) == [["a", 0], ["b", 1], ["c", 2]]
    assert terminate_tick(p) == 2


def test_sequential_blocked_child_blocks_the_whole(platform_factory):
    p = platform_factory(message=3)
    home = p.create_location("home")
    waiter = p.spawn_agent(
        home,
        [
            ag.Sequential(
                [
                    ag.Listener("GO", [ag.ActionDescriptor("t.beh.mark", {"tag": "go"})], ag.ONE_SHOT),
                    mark("after"),
                ]
            )
        ],
    )
    p.spawn_agent(
        home,
        [ag.Task(ag.ActionDescriptor("send", {"to": waiter.value, "type": "GO", "payload": 1}))],
    )
    p.run()
    # Delivery lands at tick 3; nothing downstream may run before it.
    assert marks_of(p, waiter) == [["go", 3], ["after", 4]]


def test_sequential_reorder_before_start(platform_factory):
    seq = ag.Sequential([mark("a"), mark("b"), mark("c")])
    seq.reorder([2, 0, 1])
    p, a = run_world(platform_factory, [seq])
    assert [tag for tag, _ in marks_of(p, a)] == ["c", "a", "b"]


def test_sequential_reorder_of_unstarted_suffix_mid_run(platform_factory):
    seq = ag.Sequential([mark("a"), mark("b"), mark("c"), mark("d")])
    p = platform_factory()
    home = p.create_location("home")
    a = p.spawn_agent(home, [seq])
    p.run(until=0)
    assert seq.current_index == 1
    seq.reorder([0, 3, 1, 2])
    p.run()
    assert [tag for tag, _ in marks_of(p, a)] == ["a", "d", "b", "c"]


def test_sequential_reorder_rejects_moving_started_child(platform_factory):
    seq = ag.Sequential([mark("a"), mark("b"), mark("c")])
    p = platform_factory()
    home = p.create_location("home")
    p.spawn_agent(home, [seq])
    p.run(until=0)
    with pytest.raises(ag.ReorderStartedChild):
        seq.reorder([1, 0, 2])


def test_sequential_reorder_rejects_non_permutation():
    seq = ag.Sequential([mark("a"), mark("b")])
    with pytest.raises(ValueError):
        seq.reorder([0, 0])
    with pytest.raises(ValueError):
        seq.reorder([0])


def test_a_decoded_sequential_skips_a_current_child_already_done(platform_factory):
    blob = ag.Sequential([mark("a"), mark("b"), mark("c")]).to_dict()
    blob["children"][0]["done"] = True
    blob["children"][1]["done"] = True
    p, agent = run_world(platform_factory, [ag.behavior_from_dict(blob)])
    assert marks_of(p, agent) == [["c", 0]]
    assert terminate_tick(p) == 0


def test_empty_sequential_finishes_immediately(platform_factory):
    p, a = run_world(platform_factory, [ag.Sequential([])])
    assert terminate_tick(p) == 0


# ---------------------------------------------------------------------------
# Parallel
# ---------------------------------------------------------------------------


def test_parallel_steps_every_child_each_tick(platform_factory):
    p, a = run_world(platform_factory, [ag.Parallel([mark("a"), mark("b")])])
    assert marks_of(p, a) == [["a", 0], ["b", 0]]
    assert terminate_tick(p) == 0


def test_parallel_interleaves_fairly(platform_factory):
    tree = ag.Parallel(
        [
            ag.Sequential([mark("a1"), mark("a2"), mark("a3")]),
            ag.Sequential([mark("b1"), mark("b2"), mark("b3")]),
        ]
    )
    p, a = run_world(platform_factory, [tree])
    assert marks_of(p, a) == [
        ["a1", 0],
        ["b1", 0],
        ["a2", 1],
        ["b2", 1],
        ["a3", 2],
        ["b3", 2],
    ]


def test_parallel_any_stops_at_first_completion(platform_factory):
    tree = ag.Parallel(
        [
            ag.Sequential([mark("a1"), mark("a2"), mark("a3")]),
            ag.Sequential([mark("b1"), mark("b2")]),
        ],
        completion=ag.ANY,
    )
    p, a = run_world(platform_factory, [tree])
    # The b branch finishes first; a3 is abandoned mid-plan.
    assert marks_of(p, a) == [["a1", 0], ["b1", 0], ["a2", 1], ["b2", 1]]
    assert terminate_tick(p) == 1


def test_parallel_all_waits_for_every_child(platform_factory):
    tree = ag.Parallel(
        [
            ag.Sequential([mark("a1"), mark("a2"), mark("a3")]),
            ag.Sequential([mark("b1"), mark("b2")]),
        ]
    )
    p, a = run_world(platform_factory, [tree])
    assert ["a3", 2] in marks_of(p, a)
    assert terminate_tick(p) == 2


def test_empty_parallel_finishes_immediately(platform_factory):
    p, a = run_world(platform_factory, [ag.Parallel([])])
    assert terminate_tick(p) == 0


def test_parallel_rejects_unknown_completion():
    with pytest.raises(ValueError):
        ag.Parallel([], completion="most")


def test_parallel_blocks_on_any_of_its_children_wakes(platform_factory):
    p = platform_factory(message=2)
    home = p.create_location("home")
    waiter = p.spawn_agent(
        home,
        [
            ag.Parallel(
                [
                    ag.Listener("X", [ag.ActionDescriptor("t.beh.mark", {"tag": "x"})], ag.ONE_SHOT),
                    ag.Listener("Y", [ag.ActionDescriptor("t.beh.mark", {"tag": "y"})], ag.ONE_SHOT),
                ]
            )
        ],
    )
    p.spawn_agent(
        home,
        [
            ag.Sequential(
                [
                    ag.Task(ag.ActionDescriptor("send", {"to": waiter.value, "type": "Y", "payload": 1})),
                    ag.Task(ag.ActionDescriptor("noop")),
                    ag.Task(ag.ActionDescriptor("noop")),
                    ag.Task(ag.ActionDescriptor("send", {"to": waiter.value, "type": "X", "payload": 1})),
                ]
            )
        ],
    )
    p.run()
    # Y's arrival wakes the composite even though X stays blocked.
    assert marks_of(p, waiter) == [["y", 2], ["x", 5]]
    ends = events_of(p, EventKind.TERMINATE)
    assert [e.tick for e in ends] == [3, 5]


# ---------------------------------------------------------------------------
# FSM definitions
# ---------------------------------------------------------------------------


def act(name, params=None):
    return ag.ActionDescriptor(name, params)


def two_state_definition():
    return ag.FsmDefinition(
        states={"idle": act("noop"), "work": act("t.beh.mark", {"tag": "work"})},
        transitions={"idle": {"start": "work"}},
        start="idle",
        terminals=frozenset({"work"}),
    )


def test_fsm_definition_rejects_unknown_start():
    with pytest.raises(ag.InvalidFsm):
        ag.FsmDefinition(states={"a": act("noop")}, transitions={}, start="b")


def test_fsm_definition_rejects_unknown_terminal():
    with pytest.raises(ag.InvalidFsm):
        ag.FsmDefinition(
            states={"a": act("noop")}, transitions={}, start="a", terminals=frozenset({"z"})
        )


def test_fsm_definition_rejects_unknown_transition_source():
    with pytest.raises(ag.InvalidFsm):
        ag.FsmDefinition(
            states={"a": act("noop")}, transitions={"z": {"go": "a"}}, start="a"
        )


def test_fsm_definition_rejects_unknown_transition_target():
    with pytest.raises(ag.InvalidFsm):
        ag.FsmDefinition(
            states={"a": act("noop")}, transitions={"a": {"go": "z"}}, start="a"
        )


def test_fsm_definition_rejects_empty_event_label():
    with pytest.raises(ag.InvalidFsm):
        ag.FsmDefinition(
            states={"a": act("noop")}, transitions={"a": {"": "a"}}, start="a"
        )


def test_fsm_definition_round_trips():
    defn = two_state_definition()
    assert ag.FsmDefinition.from_jsonable(defn.to_jsonable()) == defn


# ---------------------------------------------------------------------------
# FSM execution
# ---------------------------------------------------------------------------


def fsm_states(platform):
    return [
        (e.detail["fsm_state"], e.tick)
        for e in platform.trace()
        if e.kind == EventKind.CUSTOM and "fsm_state" in e.detail
    ]


def test_fsm_follows_labels_returned_by_activities(platform_factory):
    defn = ag.FsmDefinition(
        states={
            "a": act("t.fsm.emit", {"tag": "a", "label": "go"}),
            "b": act("t.fsm.emit", {"tag": "b"}),
        },
        transitions={"a": {"go": "b"}},
        start="a",
        terminals=frozenset({"b"}),
    )
    p, agent = run_world(platform_factory, [ag.Fsm(defn)])
    # Entry at 0, transition step at 1, terminal entry at 2.
    assert fsm_states(p) == [("a", 0), ("b", 2)]
    assert marks_of(p, agent) == [["a", 0], ["b", 2]]
    assert terminate_tick(p) == 2


def test_fsm_consumes_event_messages(platform_factory):
    defn = ag.FsmDefinition(
        states={
            "idle": act("noop"),
            "work": act("t.fsm.emit", {"tag": "work"}),
            "done": act("t.fsm.emit", {"tag": "done"}),
        },
        transitions={"idle": {"start": "work"}, "work": {"finish": "done"}},
        start="idle",
        terminals=frozenset({"done"}),
    )
    p = platform_factory(message=1)
    home = p.create_location("home")
    runner = p.spawn_agent(home, [ag.Fsm(defn)])
    p.spawn_agent(
        home,
        [ag.Sequential([raw_send(runner, "start"), raw_send(runner, "finish")])],
    )
    p.run()
    assert fsm_states(p) == [("idle", 0), ("work", 2), ("done", 4)]


def test_fsm_traces_and_discards_undefined_transitions(platform_factory):
    defn = ag.FsmDefinition(
        states={"idle": act("noop"), "work": act("t.fsm.emit", {"tag": "work"})},
        transitions={"idle": {"start": "work"}},
        start="idle",
        terminals=frozenset({"work"}),
    )
    p = platform_factory(message=1)
    home = p.create_location("home")
    runner = p.spawn_agent(home, [ag.Fsm(defn)])
    p.spawn_agent(
        home,
        [ag.Sequential([raw_send(runner, "bogus"), raw_send(runner, "start")])],
    )
    p.run()
    complaints = [
        e
        for e in p.trace()
        if e.kind == EventKind.CUSTOM and e.detail.get("error") == "undefined transition"
    ]
    assert len(complaints) == 1
    assert complaints[0].detail["state"] == "idle"
    assert complaints[0].detail["event"] == "bogus"
    # The machine stayed put and still accepted the valid event afterwards.
    assert fsm_states(p)[-1][0] == "work"


def test_fsm_traces_and_discards_an_event_that_is_not_utf8(platform_factory):
    defn = ag.FsmDefinition(
        states={"idle": act("noop"), "work": act("t.fsm.emit", {"tag": "work"})},
        transitions={"idle": {"start": "work"}},
        start="idle",
        terminals=frozenset({"work"}),
    )
    p = platform_factory(message=1)
    home = p.create_location("home")
    runner = p.spawn_agent(home, [ag.Fsm(defn)])
    p.send(make_message(runner, runner, FSM_EVENT, "", b"\xff", sent_at=p.now()))
    p.run()  # quiesces: the bad event is consumed, not retried
    with pytest.raises(UnicodeDecodeError) as bad:
        b"\xff".decode()
    errors = [e.detail for e in p.trace() if e.kind == EventKind.CUSTOM and "error" in e.detail]
    assert errors == [{"error": str(bad.value), "state": "idle"}]
    assert fsm_states(p) == [("idle", 0)]
    # The machine kept its state and blocks on the next FSM_EVENT.
    assert p.is_alive(runner)
    p.send(make_message(runner, runner, FSM_EVENT, "", b"start", sent_at=p.now()))
    p.run()
    assert fsm_states(p)[-1][0] == "work"
    assert not p.is_alive(runner)


def test_fsm_activity_error_is_traced_and_machine_continues(platform_factory):
    defn = ag.FsmDefinition(
        states={"a": act("t.beh.boom"), "b": act("t.fsm.emit", {"tag": "b"})},
        transitions={"a": {"go": "b"}},
        start="a",
        terminals=frozenset({"b"}),
    )
    p = platform_factory(message=1)
    home = p.create_location("home")
    runner = p.spawn_agent(home, [ag.Fsm(defn)])
    p.spawn_agent(home, [raw_send(runner, "go")])
    p.run()
    errors = [
        e for e in p.trace() if e.kind == EventKind.CUSTOM and e.detail.get("error") == "boom"
    ]
    assert len(errors) == 1
    assert errors[0].detail["state"] == "a"
    assert fsm_states(p)[-1][0] == "b"


def test_fsm_terminal_entry_finishes_even_if_activity_emits(platform_factory):
    defn = ag.FsmDefinition(
        states={"end": act("t.fsm.emit", {"tag": "end", "label": "ignored"})},
        transitions={},
        start="end",
        terminals=frozenset({"end"}),
    )
    p, agent = run_world(platform_factory, [ag.Fsm(defn)])
    assert terminate_tick(p) == 0
    assert marks_of(p, agent) == [["end", 0]]


def test_fsm_state_survives_migration(platform_factory):
    defn = ag.FsmDefinition(
        states={
            "idle": act("noop"),
            "work": act("t.fsm.emit", {"tag": "work"}),
        },
        transitions={"idle": {"start": "work"}},
        start="idle",
        terminals=frozenset({"work"}),
    )
    p = platform_factory(message=1, migration=3)
    home = p.create_location("home")
    away = p.create_location("away")
    runner = p.spawn_agent(
        home,
        [
            ag.Parallel(
                [
                    ag.Fsm(defn),
                    ag.Task(ag.ActionDescriptor("t.sim.go", {"dest": location_to_jsonable(away)})),
                ]
            )
        ],
    )
    p.spawn_agent(home, [raw_send(runner, "start")])
    p.run()
    # Departure at 0, arrival at 3; the held event lands there and the
    # deserialized machine picks it up.
    assert [e.tick for e in events_of(p, EventKind.MIGRATE_END)] == [3]
    assert fsm_states(p) == [("idle", 0), ("work", 4)]
    assert p.agent_location(runner) == away


def test_fsm_current_state_and_serde():
    defn = two_state_definition()
    machine = ag.Fsm(defn)
    assert machine.current_state == "idle"
    rebuilt = ag.behavior_from_dict(machine.to_dict())
    assert isinstance(rebuilt, ag.Fsm)
    assert rebuilt == machine
    assert rebuilt.definition == defn


# ---------------------------------------------------------------------------
# Composites written against the public stepping contract
# ---------------------------------------------------------------------------


class RoundRobin(ag.Behavior):
    """One unfinished child per step, rotating; blocked children are passed
    over. Exists to prove third-party composites need nothing beyond the
    public Behavior contract."""

    kind = "t.round_robin"

    def __init__(self, children, *, _cursor=0):
        super().__init__()
        self.children = list(children)
        self._cursor = _cursor

    def _step(self, ctx):
        n = len(self.children)
        live = [
            (self._cursor + k) % n
            for k in range(n)
            if not self.children[(self._cursor + k) % n].finished
        ]
        if not live:
            return ag.DONE
        wakes = []
        for i in live:
            outcome = self.children[i].step(ctx)
            if isinstance(outcome, ag.Blocked):
                wakes.append(outcome.wake)
                continue
            self._cursor = (i + 1) % n
            if isinstance(outcome, ag.Done) and all(c.finished for c in self.children):
                return ag.DONE
            return ag.RUNNING
        return ag.Blocked(wakes[0] if len(wakes) == 1 else ag.AnyOf(wakes))

    def _to_dict_body(self):
        return {"children": [c.to_dict() for c in self.children], "cursor": self._cursor}

    @classmethod
    def _from_dict_body(cls, d):
        return cls(
            [ag.behavior_from_dict(c) for c in d["children"]],
            _cursor=int(d.get("cursor", 0)),
        )


def test_custom_composite_runs_under_the_engine(platform_factory):
    tree = RoundRobin(
        [
            ag.Sequential([mark("a1"), mark("a2")]),
            ag.Sequential([mark("b1"), mark("b2")]),
        ]
    )
    p, a = run_world(platform_factory, [tree])
    assert marks_of(p, a) == [["a1", 0], ["b1", 1], ["a2", 2], ["b2", 3]]
    assert terminate_tick(p) == 3


def test_custom_composite_round_trips():
    tree = RoundRobin([mark("a"), mark("b")], _cursor=1)
    rebuilt = ag.behavior_from_dict(tree.to_dict())
    assert isinstance(rebuilt, RoundRobin)
    assert rebuilt == tree


def test_custom_composite_nests_inside_builtin_ones(platform_factory):
    tree = ag.Sequential([RoundRobin([mark("a"), mark("b")]), mark("c")])
    p, agent = run_world(platform_factory, [tree])
    assert [tag for tag, _ in marks_of(p, agent)] == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# Random trees of one-shot leaves all complete
# ---------------------------------------------------------------------------


def random_tree(rng, tags, depth=0):
    if depth >= 3 or rng.random() < 0.4:
        tag = f"t{len(tags)}"
        tags.append(tag)
        return mark(tag)
    make = rng.choice(["seq", "par_all", "par_any"])
    # "any" with a single child never abandons work, so every leaf still runs.
    count = 1 if make == "par_any" else rng.randint(1, 3)
    children = [random_tree(rng, tags, depth + 1) for _ in range(count)]
    if make == "seq":
        return ag.Sequential(children)
    if make == "par_all":
        return ag.Parallel(children)
    return ag.Parallel(children, completion=ag.ANY)


@pytest.mark.parametrize("seed", range(12))
def test_random_trees_run_every_leaf_once(platform_factory, seed):
    rng = random.Random(seed)
    tags = []
    tree = random_tree(rng, tags)
    p, agent = run_world(platform_factory, [tree])
    ran = [tag for tag, _ in marks_of(p, agent)]
    assert sorted(ran) == sorted(tags)
    assert len(events_of(p, EventKind.TERMINATE)) == 1


# ---------------------------------------------------------------------------
# An Fsm waits in the step that enters a state
# ---------------------------------------------------------------------------


class _PollingFsm(ag.Fsm):
    """The polling rule, for comparison: a step that enters a non-terminal
    state asks for one more step, which finds no event and only then blocks.
    It registers no kind, so it serializes as a plain Fsm; the worlds below
    never migrate."""

    def _step(self, ctx):
        entering = not self._entered
        outcome = super()._step(ctx)
        return ag.RUNNING if entering and not isinstance(outcome, ag.Done) else outcome


def test_an_fsm_entering_a_state_with_no_event_blocks_in_that_step(platform_factory):
    p, agent = run_world(platform_factory, [ag.Fsm(two_state_definition())])
    assert p.now() == 0 and p.is_alive(agent)
    # Nothing is left past the budget, so a zero budget quiesces.
    p, agent = run_world(platform_factory, [ag.Fsm(two_state_definition())], max_ticks=0)
    assert p.now() == 0 and p.is_alive(agent)
    # Under the polling rule the empty poll is work at tick 1.
    p, agent = run_world(platform_factory, [_PollingFsm(two_state_definition())])
    assert p.now() == 1
    with pytest.raises(ag.TickBudgetExceeded):
        run_world(platform_factory, [_PollingFsm(two_state_definition())], max_ticks=0)


FSM_LABELS = ["a", "b", "c"]


def _fsm_world(platform, seed, fsm=ag.Fsm):
    """Run a seeded world of Fsm agents built with the class ``fsm`` on
    "sim" or "mock", and return its trace, every agent's state, the final
    clock and whether the last run exceeded the tick budget.

    Definitions are random: an activity returns a label (with or without a
    transition), nothing, or bytes that are not UTF-8, raises, or sends an
    FSM_EVENT to any agent; any state may be terminal. Each Fsm runs alone,
    inside a Sequential, or in a Parallel (all or any) next to an Observer,
    a Listener or a Task. Latencies are fixed or, on the sim, drawn from
    0..k. Spawns, outside sends (some not UTF-8, each from a spawned agent
    still alive, to any agent) and ``run(until=k)`` calls interleave before
    a last run to quiescence.
    """
    rng = random.Random(seed)
    delay = rng.randint(0, 2)
    uniform = rng.random() < 0.5
    if platform == "mock":
        p = ag.MockPlatform(message_delay=delay, max_ticks=200)
    else:
        latency = ag.UniformRange(0, delay) if uniform else ag.Fixed(delay)
        p = ag.SimPlatform(ag.SimConfig(seed=seed, message_latency=latency, max_ticks=200))
    home = p.create_location("home")
    ids = [p.reserve_agent_id() for _ in range(rng.randint(1, 4))]

    def event(to):
        return act("t.fsm.send_event", {"to": to.value, "label": rng.choice(FSM_LABELS)})

    def activity(state):
        pick = rng.randrange(6)
        if pick < 2:
            return act("t.fsm.emit", {"tag": state, "label": rng.choice(FSM_LABELS)})
        if pick == 2:
            return act("t.fsm.emit", {"tag": state})
        if pick == 3:
            return act("t.beh.boom")
        if pick == 4:
            return act("t.beh.bad_label")
        return event(rng.choice(ids))

    def machine():
        states = [f"s{i}" for i in range(rng.randint(1, 4))]
        transitions = {}
        for state in states:
            by_label = {label: rng.choice(states) for label in FSM_LABELS if rng.random() < 0.5}
            if by_label:
                transitions[state] = by_label
        terminals = frozenset(state for state in states if rng.random() < 0.3)
        definition = ag.FsmDefinition({s: activity(s) for s in states}, transitions, states[0], terminals)
        return fsm(definition)

    def sibling():
        pick = rng.randrange(4)
        if pick == 0:
            trigger = act("clock_at_least", {"tick": rng.randint(0, 8)})
            return ag.Observer(rng.randint(1, 3), trigger, act("t.beh.mark", {"tag": "observed"}))
        if pick == 1:
            mode = rng.choice([ag.CYCLIC, ag.ONE_SHOT])
            return ag.Listener(rng.choice([FSM_EVENT, "A", "*"]), [act("t.beh.mark", {"tag": "heard"})], mode)
        if pick == 2:
            return ag.Task(event(rng.choice(ids)))
        return mark("task")

    def tree():
        pick = rng.randrange(4)
        if pick == 0:
            return machine()
        if pick == 1:
            return ag.Sequential([mark("before"), machine(), mark("after")])
        children = [machine(), sibling()]
        rng.shuffle(children)
        return ag.Parallel(children, completion=rng.choice([ag.ALL, ag.ANY]))

    def outside_calls(spawned):
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                payload = rng.choice(FSM_LABELS + ["\xff"]).encode("latin-1")
                senders = [a for a in spawned if p.is_alive(a)]
                if senders:
                    p.send(make_message(rng.choice(senders), rng.choice(ids), rng.choice([FSM_EVENT, "A"]), "outside", payload, sent_at=p.now()))
            else:
                p.run(until=p.now() + rng.randint(0, 4))

    for i, agent_id in enumerate(ids):
        p.spawn_agent(home, [tree()], agent_id=agent_id)
        outside_calls(ids[: i + 1])
    try:
        p.run(None)
        over_budget = False
    except ag.TickBudgetExceeded:
        over_budget = True
    return p.trace().to_jsonl(), [p.agent_state(a) for a in ids], p.now(), over_budget


def _fsm_wait_outcome(platform, seed):
    """Compare a seeded world under the waiting rule with the polling rule:
    "same"; "earlier" for the same trace and states with the clock one tick
    earlier, or a budget that only the empty polls exceeded no longer
    exceeded; otherwise "differs"."""
    trace, states, now, over_budget = _fsm_world(platform, seed)
    polled_trace, polled_states, polled_now, polled_over_budget = _fsm_world(platform, seed, _PollingFsm)
    if (trace, states) != (polled_trace, polled_states) or over_budget > polled_over_budget:
        return "differs"
    if (now, over_budget) == (polled_now, polled_over_budget):
        return "same"
    return "earlier" if now in (polled_now, polled_now - 1) else "differs"


def _fsm_wait_mismatches(seed):
    """The platforms on which a seeded world's two Fsm rules differ."""
    return [platform for platform in ("sim", "mock") if _fsm_wait_outcome(platform, seed) == "differs"]


def fsm_rules_agree(seed):
    """The differential check ``(seed) -> problems`` for the two Fsm rules."""
    return [f"the waiting and polling Fsm rules differ on the {platform}" for platform in _fsm_wait_mismatches(seed)]


FSM_WAIT_SEEDS = range(200)


@pytest.mark.parametrize("seed", FSM_WAIT_SEEDS)
def test_an_fsm_waiting_where_it_entered_leaves_the_polling_trace(seed):
    assert fsm_rules_agree(seed) == []


def test_generated_fsm_worlds_reach_runs_that_end_a_tick_earlier():
    for platform in ("sim", "mock"):
        assert any(_fsm_wait_outcome(platform, seed) == "earlier" for seed in range(200))
