"""One failure rule for user code, on both platforms.

An action, callback, activity or predicate that raises is traced as an error
and the effects it buffered before raising are dropped. CancelBehavior ends
the behavior being stepped, whichever of its actions raised it. Effects that
raise while they are applied still leave the step's ``behavior_done``, and
the next ``run()`` resumes at the tick after the one that raised.
"""

import pytest

import agentry as ag
from agentry.model import location_to_jsonable
from agentry.scenario import validate_scenario_doc

from conftest import UNENCODABLE_DETAILS, UNENCODABLE_STATES, make_mock, make_sim

K = ag.EventKind


def act(name, params=None):
    return ag.ActionDescriptor(name, params)


def fsm(states, transitions=(), terminals=()):
    return ag.Fsm(
        ag.FsmDefinition(
            states={name: act(action) for name, action in states.items()},
            transitions=dict(transitions),
            start=next(iter(states)),
            terminals=frozenset(terminals),
        )
    )


def itinerary(objectives, listeners=()):
    route = ag.Route(tuple(objectives), 0)
    return ag.Itinerary(ag.ItineraryConfig(route=route, reached_listeners=tuple(listeners)))


def errors(platform):
    return [e.detail for e in platform.trace() if e.kind == K.CUSTOM and "error" in e.detail]


def kinds(platform):
    return {e.kind for e in platform.trace()}


# ---------------------------------------------------------------------------
# A raising action is traced and its buffered effects are dropped
# ---------------------------------------------------------------------------

# An action and a predicate that send a PING to their agent, then raise.
SEND_THEN_RAISE = "t.sim.send_then_bad_trace"
ERROR = "'nonsense' is not a valid EventKind"

RAISING_SITES = {
    "fsm_activity": (
        lambda here: fsm({"s": SEND_THEN_RAISE}, terminals={"s"}),
        {"error": ERROR, "state": "s", "action": SEND_THEN_RAISE},
    ),
    "itinerary_stop_task": (
        lambda here: itinerary([ag.Objective(here, stop_tasks=(act(SEND_THEN_RAISE),))]),
        {"error": ERROR, "action": SEND_THEN_RAISE},
    ),
    "itinerary_reached_listener": (
        lambda here: itinerary([ag.Objective(here)], listeners=(act(SEND_THEN_RAISE),)),
        {"error": ERROR, "action": SEND_THEN_RAISE},
    ),
    "observer_predicate": (
        lambda here: ag.Observer(1, act(SEND_THEN_RAISE), act("noop"), mode=ag.CYCLIC),
        {"error": ERROR, "predicate": SEND_THEN_RAISE},
    ),
}


@pytest.mark.parametrize("site", sorted(RAISING_SITES))
def test_raising_user_code_drops_its_buffered_effects(platform_factory, site):
    build, error = RAISING_SITES[site]
    p = platform_factory()
    here = p.create_location("here")
    p.spawn_agent(here, [build(here)])
    p.run(until=1)  # the observer checks once, at tick 1
    assert errors(p) == [error]
    assert not kinds(p) & {K.SEND, K.DELIVER}


@pytest.mark.parametrize("case", sorted(UNENCODABLE_DETAILS))
def test_an_unencodable_trace_detail_fails_its_action_not_the_render(platform_factory, case):
    p = platform_factory()
    here = p.create_location("here")
    p.spawn_agent(here, [ag.Task(act("t.sim.send_then_trace_unencodable", case))])
    p.run(None)
    message = UNENCODABLE_DETAILS[case][1]
    assert errors(p) == [{"error": f"trace detail: {message}", "action": "t.sim.send_then_trace_unencodable"}]
    assert not kinds(p) & {K.SEND, K.DELIVER}
    assert p.trace().to_jsonl().count("\n") == len(p.trace())


class _TraceASet(ag.Behavior):
    kind = "t.faults.trace_a_set"

    def _step(self, ctx):
        ctx.trace({"ok": [1, "a", None, 2.5, True, ("t",)], "s": {1, 2}})
        return ag.DONE


def test_an_unencodable_trace_detail_raises_from_ctx_trace(platform_factory):
    p = platform_factory()
    p.spawn_agent(p.create_location("here"), [_TraceASet()])
    with pytest.raises(TypeError, match="object of type set is not JSON serializable"):
        p.run(None)
    assert [e.kind for e in p.trace()] == [K.SPAWN]  # the step raised, nothing of it applied
    p.trace().to_jsonl()


def test_failed_worker_task_drops_its_effects_and_still_answers(platform_factory):
    p = platform_factory()
    loc = p.create_location("srv")
    server = p.spawn_agent(loc, [ag.Server()])
    request = ag.RequestEnvelope(act(SEND_THEN_RAISE), "conv")
    client = p.spawn_agent(loc, [ag.Client(server.value, request, on_result=act("t.beh.keep_payload"))])
    p.run(None)
    assert errors(p) == [{"error": ERROR, "action": SEND_THEN_RAISE, "conversation": "conv"}]
    sent = [(e.tick, e.detail["type"]) for e in p.trace() if e.kind == K.SEND]
    assert sent == [(0, ag.REQUEST), (2, ag.ACK), (2, ag.RESULT)]
    assert p.agent_state(client) == {"payload": {"error": ERROR}}


def test_non_utf8_activity_output_is_traced_not_raised(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [fsm({"s": "t.beh.bad_label"}, terminals={"s"})])
    p.run(None)
    (error,) = errors(p)
    assert error["state"] == "s" and error["action"] == "t.beh.bad_label"
    assert "can't decode" in error["error"]
    assert not p.is_alive(a)


# ---------------------------------------------------------------------------
# CancelBehavior ends the behavior being stepped
# ---------------------------------------------------------------------------

CANCEL = "t.beh.cancel"  # an action and a predicate that raise CancelBehavior

CANCEL_SITES = {
    # Without the cancel the machine would wait for a "go" event forever.
    "fsm_activity": (
        lambda here, there: fsm({"a": CANCEL, "b": "noop"}, transitions={"a": {"go": "b"}}),
        [(0, K.SPAWN), (0, K.CUSTOM), (0, K.BEHAVIOR_DONE), (0, K.TERMINATE)],
    ),
    # Without the cancel the agent would go on to the second objective.
    "itinerary_stop_task": (
        lambda here, there: itinerary([ag.Objective(here, stop_tasks=(act(CANCEL),)), ag.Objective(there)]),
        [(0, K.SPAWN), (0, K.OBJECTIVE_REACHED), (0, K.BEHAVIOR_DONE), (0, K.TERMINATE)],
    ),
    # Without the cancel the observer would check every tick forever.
    "observer_predicate": (
        lambda here, there: ag.Observer(1, act(CANCEL), act("noop"), mode=ag.CYCLIC),
        [(0, K.SPAWN), (1, K.BEHAVIOR_DONE), (1, K.TERMINATE)],
    ),
}


@pytest.mark.parametrize("site", sorted(CANCEL_SITES))
def test_cancel_ends_the_behavior_being_stepped(platform_factory, site):
    build, expected = CANCEL_SITES[site]
    p = platform_factory()
    here, there = p.create_location("here"), p.create_location("there")
    a = p.spawn_agent(here, [build(here, there)])
    p.run(None)
    assert [(e.tick, e.kind) for e in p.trace()] == expected
    assert not p.is_alive(a)


# ---------------------------------------------------------------------------
# The runtime is never left half-applied
# ---------------------------------------------------------------------------


def test_behavior_done_is_traced_when_applying_its_effects_raises(platform_factory):
    p = platform_factory()
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    go = act("t.sim.hoard_then_go", {"dest": location_to_jsonable(b_loc)})
    agent = p.spawn_agent(a_loc, [ag.Sequential([ag.Task(act("noop")), ag.Task(go)])])
    with pytest.raises(TypeError):
        p.run(None)
    assert [(e.tick, e.kind) for e in p.trace()] == [(0, K.SPAWN), (1, K.BEHAVIOR_DONE)]
    p.run(None)  # the finished agent still terminates, at the first unprocessed tick
    assert [(e.tick, e.kind) for e in p.trace()][2:] == [(2, K.TERMINATE)]
    assert not p.is_alive(agent)


@pytest.mark.parametrize("case", sorted(UNENCODABLE_STATES))
def test_state_that_will_not_encode_raises_from_the_migrating_step_on_both_platforms(case):
    # Encoding a circular or deep state raised RecursionError. The blob is
    # encoded before migrate draws a latency or traces migrate_start.
    _, error, message = UNENCODABLE_STATES[case]
    draws = []
    for make in (lambda: ag.SimPlatform(ag.SimConfig(seed=7, migration_latency=ag.UniformRange(1, 1000))), make_mock):
        latencies = []
        for tangle in (True, False):
            p = make()
            a_loc, b_loc = p.create_location("a"), p.create_location("b")
            bystander = p.spawn_agent(a_loc, [ag.Listener("X", [act("noop")])])
            if tangle:
                go = act("t.sim.tangle_then_go", {"dest": location_to_jsonable(b_loc), "state": case})
                tangled = p.spawn_agent(a_loc, [ag.Task(go)])
                with pytest.raises(error, match=message):
                    p.run(None)
                assert [e.kind for e in p.trace()] == [K.SPAWN, K.SPAWN, K.BEHAVIOR_DONE]
                assert p.agent_location(tangled) == a_loc
            p.migrate(bystander, b_loc)
            p.run(None)
            latencies += [e.detail["latency"] for e in p.trace() if e.kind == K.MIGRATE_END]
        draws.append(latencies)
    # The draw after the failed migrate is the one a world without it makes.
    assert [after == clean for after, clean in draws] == [True, True]


def _sequential_chain(depth, home):
    tree = ag.Task(act("noop"))
    for _ in range(depth):
        tree = ag.Sequential([tree])
    return tree


def _itinerary_chain(depth, home):
    # Each level is the missed behavior of the itinerary above it.
    tree = ag.Task(act("noop"))
    for _ in range(depth):
        tree = ag.Itinerary(ag.ItineraryConfig(ag.Route((ag.Objective(home),)), missed_behavior=tree))
    return ag.Sequential([ag.Task(act("noop")), tree])


def _moves(factory, chain, depth):
    """Whether an agent holding ``chain(depth)`` moves and runs on; a tree
    refused at the move raises ValueError with nothing of the move traced."""
    p = factory()
    a_loc, b_loc = p.create_location("a"), p.create_location("b")
    agent = p.spawn_agent(a_loc, [ag.Task(act("t.sim.go", {"dest": location_to_jsonable(b_loc)})), chain(depth, a_loc)])
    try:
        p.run(None)
    except ValueError as refused:
        assert "circular or nested too deep" in str(refused)
        assert [e.kind for e in p.trace()] == [K.SPAWN, K.BEHAVIOR_DONE] and p.agent_location(agent) == a_loc
        return False
    return True


def test_a_behavior_tree_too_deep_to_write_raises_value_error_at_the_move(platform_factory):
    # It raised a bare RecursionError, from to_dict outside the encoder's guard.
    assert not _moves(platform_factory, _sequential_chain, 2_000)


@pytest.mark.parametrize("chain", [_sequential_chain, _itinerary_chain])
def test_a_tree_too_deep_to_decode_is_refused_at_the_move(platform_factory, chain):
    # Writing must fail where decoding would, or the agent is lost in
    # transit: a migrate_start, then a RecursionError when it lands.
    moves, refused = 1, 2_000
    while refused - moves > 1:
        middle = (moves + refused) // 2
        moves, refused = (middle, refused) if _moves(platform_factory, chain, middle) else (moves, middle)
    assert 100 < moves < 1_000
    for depth in range(moves - 3, refused + 4):  # each moves on, or is refused as it moves
        _moves(platform_factory, chain, depth)


def test_a_run_after_a_raise_resumes_at_the_next_tick_on_both_platforms():
    runs = []
    for make in (make_sim, make_mock):
        p = make()
        a_loc = p.create_location("a")
        b_loc = p.create_location("b")
        logger = p.spawn_agent(a_loc, [ag.Sequential([ag.Task(act("t.sim.tick_log")) for _ in range(4)])])
        p.spawn_agent(a_loc, [ag.Task(act("t.sim.hoard_then_go", {"dest": location_to_jsonable(b_loc)}))])
        with pytest.raises(TypeError):
            p.run(None)
        p.run(None)
        # The raising tick 0 is not processed again, so no task steps twice at it.
        assert p.agent_state(logger)["ticks"] == [0, 1, 2, 3]
        runs.append((p.trace().to_jsonl(), p.now()))
    assert runs[0] == runs[1]


class _LogThenMigrateNowhere(ag.Behavior):
    """Logs each tick it steps at. Its first step also asks to migrate to a
    location no runtime has and blocks until tick 5."""

    kind = "t.faults.log_then_migrate_nowhere"

    def _step(self, ctx):
        ctx.state.setdefault("ticks", []).append(ctx.now)
        if ctx.now == 0:
            ctx.request_migration(ag.LocationId(99, "nowhere"))
            return ag.Blocked(ag.AtTime(5))
        return ag.DONE


def test_a_step_outcome_is_recorded_before_its_effects_apply_on_both_platforms():
    # The step's Blocked(AtTime(5)) is kept although its migrate raised, so
    # the next run() steps the behavior at tick 5. ROADMAP item 7's second
    # slice (transactional steps) changes this contract on purpose.
    runs = []
    for make in (make_sim, make_mock):
        p = make()
        agent = p.spawn_agent(p.create_location("a"), [_LogThenMigrateNowhere()])
        with pytest.raises(ag.UnknownLocation):
            p.run(None)
        p.run(None)
        assert p.agent_state(agent)["ticks"] == [0, 5]
        runs.append((p.trace().to_jsonl(), p.now()))
    assert runs[0] == runs[1]


class _MovesAndNeverLands(ag.Behavior):
    """Moves to ``dest`` on its first step; its serialized form never decodes,
    so the agent cannot land."""

    kind = "t.faults.moves_and_never_lands"

    def __init__(self, dest):
        super().__init__()
        self.dest = dest

    def _step(self, ctx):
        ctx.request_migration(self.dest)
        return ag.Blocked(ag.Never())

    def _to_dict_body(self):
        return {}

    @classmethod
    def _from_dict_body(cls, d):
        raise ValueError("no way to land")


def test_an_arrival_that_cannot_be_decoded_raises_on_every_run_on_both_platforms():
    # A raising decode leaves the arrival due, so no later run() can pass
    # over an agent that never landed.
    runs = []
    for make in (make_sim, make_mock):
        p = make()
        agent = p.spawn_agent(p.create_location("a"), [_MovesAndNeverLands(p.create_location("b"))])
        for _ in range(2):
            with pytest.raises(ValueError, match="^no way to land$"):
                p.run(None)
            assert p.agent_location(agent) is None
        runs.append((p.trace().to_jsonl(), p.now()))
    assert runs[0] == runs[1]


def test_a_spawn_then_an_attach_to_the_child_in_one_step_on_both_platforms():
    # The attach targets an agent that the same step's spawn creates; both
    # of the child's slots first step at tick 1.
    runs = []
    for make in (make_sim, make_mock):
        p = make()
        p.spawn_agent(p.create_location("a"), [ag.Task(act("t.sim.spawn_then_attach"))])
        p.run(None)
        events = [(e.tick, e.kind, e.agent.value, e.detail) for e in p.trace()]
        assert events == [
            (0, K.SPAWN, 1, {"at": "a"}),
            (0, K.SPAWN, 2, {"at": "a"}),
            (0, K.BEHAVIOR_DONE, 1, {"kind": "task", "slot": 0}),
            (0, K.TERMINATE, 1, {}),
            (1, K.BEHAVIOR_DONE, 2, {"kind": "task", "slot": 0}),
            (1, K.CUSTOM, 2, {"attached_by": 1}),
            (1, K.BEHAVIOR_DONE, 2, {"kind": "task", "slot": 1}),
            (1, K.TERMINATE, 2, {}),
        ]
        assert p.agent_state(ag.AgentId(2))["ticks"] == [1]
        runs.append((p.trace().to_jsonl(), p.now()))
    assert runs[0] == runs[1]


def test_tick_budget_message_names_the_next_work_tick_on_both_platforms():
    messages = []
    for make in (make_sim, make_mock):
        p = make(max_ticks=40)
        loc = p.create_location("l")
        p.spawn_agent(loc, [ag.Observer(7, act("never"), act("noop"), mode=ag.CYCLIC)])
        with pytest.raises(ag.TickBudgetExceeded) as exc:
            p.run(None)
        messages.append(str(exc.value))
    assert messages == ["no quiescence by tick 40 (next work at 42)"] * 2


# ---------------------------------------------------------------------------
# A client whose late-bound reference names no state fails its exchange
# ---------------------------------------------------------------------------

UNBOUND_CLIENTS = {
    "server": ({"$state": "srv"}, None),
    "task_params": (1, {"n": {"$state": "k"}}),
}


def client_document(server, params):
    client = {
        "kind": "client",
        "server": server,
        "request": {"task": {"name": "noop", "params": params}},
        "ack_timeout": 3,
        "on_result": {"name": "t.beh.mark", "params": {"tag": "result"}},
        "on_failure": {"name": "t.beh.mark", "params": {"tag": "fail"}},
    }
    return {
        "format_version": 1,
        "locations": ["home"],
        "agents": [
            {"location": "home", "behavior": {"kind": "server"}},
            {"location": "home", "behaviors": [client, {"kind": "task", "action": {"name": "t.sim.tick_log"}}]},
        ],
    }


@pytest.mark.parametrize("case", sorted(UNBOUND_CLIENTS))
def test_a_client_whose_marker_names_no_state_fails_through_on_failure_on_both_platforms(case):
    doc = client_document(*UNBOUND_CLIENTS[case])
    assert validate_scenario_doc(doc) == []
    key = "srv" if case == "server" else "k"
    runs = []
    for make in (make_sim, make_mock):
        p = make()
        home = p.create_location("home")
        for entry in doc["agents"]:
            specs = [entry["behavior"]] if "behavior" in entry else entry["behaviors"]
            p.spawn_agent(home, [ag.behavior_from_dict(spec) for spec in specs])
        p.run(None)
        p.run(None)
        client = ag.AgentId(2)
        assert p.agent_state(client) == {"marks": [["fail", 0]], "ticks": [0]}
        assert errors(p) == [{"error": repr(key), "request": "noop"}]
        assert [e.detail for e in p.trace() if e.kind == K.BEHAVIOR_DONE and e.agent == client] == [
            {"kind": "client", "slot": 0},
            {"kind": "task", "slot": 1},
        ]
        assert K.SEND not in kinds(p)
        runs.append((p.trace().to_jsonl(), p.now()))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# An agent reference is read as written: a value that is not an int fails
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [True, 2.9, "3"], ids=["true", "float", "str"])
def test_an_agent_reference_that_is_not_an_int_addresses_no_agent_on_both_platforms(value):
    # Agents 1 to 3 exist, so a converted reference would reach one of them.
    set_ref = act("set_state", {"key": "ref", "value": value})
    send = act("send", {"to": {"$state": "ref"}, "type": "PING"})
    runs = []
    for make in (make_sim, make_mock):
        p = make()
        home = p.create_location("home")
        p.spawn_agent(home, [ag.Server()])
        sender = p.spawn_agent(home, [ag.Sequential([ag.Task(set_ref), ag.Task(send)])])
        client = ag.Client({"$state": "ref"}, ag.RequestEnvelope(act("noop")), on_failure=act("t.beh.mark", {"tag": "fail"}))
        asker = p.spawn_agent(home, [ag.Sequential([ag.Task(set_ref), client])])
        p.run(None)
        message = f"agent reference must be an integer, got {value!r}"
        assert errors(p) == [
            {"error": f"send to must be an integer, got {value!r}", "action": "send"},
            {"error": message, "request": "noop"},
        ]
        assert p.agent_state(asker)["marks"] == [["fail", 1]]
        assert K.SEND not in kinds(p) and sender.value == 2
        runs.append((p.trace().to_jsonl(), p.now()))
    assert runs[0] == runs[1]


def test_a_message_built_directly_with_a_bad_field_fails_its_send_and_the_receiver_lands():
    # It used to be sent, and every run() then raised when the receiver
    # landed with it queued, so the receiver never landed.
    runs = []
    for make in (make_sim, make_mock):
        p = make()
        home, lab = p.create_location("home"), p.create_location("lab")
        p.spawn_agent(home, [ag.Task(act("t.sim.send_unreadable"))])
        log = ag.Task(act("t.sim.tick_log"))
        go = ag.Task(act("t.sim.go", {"dest": location_to_jsonable(lab)}))
        receiver = p.spawn_agent(home, [ag.Sequential([log, ag.clone_behavior(log), go])])
        p.run(None)
        error = {"error": "message conversation must be a string, got 5", "action": "t.sim.send_unreadable"}
        assert errors(p) == [error]
        assert K.SEND not in kinds(p) and K.MIGRATE_END in kinds(p)
        assert p.agent_location(receiver) == lab and not p.is_alive(receiver)
        runs.append((p.trace().to_jsonl(), p.now()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("field", ["type", "conversation"])
def test_a_send_whose_type_or_conversation_is_not_a_string_fails_on_both_platforms(field):
    # make_message rejects it: a message with a type of 5 would fail to
    # decode once its receiver migrated with it queued.
    send = act("send", {"to": 1, "type": "PING", field: 5})
    for make in (make_sim, make_mock):
        p = make()
        p.spawn_agent(p.create_location("home"), [ag.Task(send)])
        p.run(None)
        assert errors(p) == [{"error": f"message {field} must be a string, got 5", "action": "send"}]
        assert K.SEND not in kinds(p)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p, home, agent: p.spawn_agent(home, ["x"]), "spawned behaviors entry must be a behavior, got 'x'"),
        (lambda p, home, agent: p.attach_behavior(agent, 5), "attached behavior must be a behavior, got 5"),
    ],
    ids=["spawn_agent", "attach_behavior"],
)
def test_a_platform_call_given_a_non_behavior_raises_where_it_is_called(platform_factory, call, message):
    # Each call returned, and the next run() raised AttributeError.
    p = platform_factory()
    home = p.create_location("home")
    agent = p.spawn_agent(home, [ag.Task(act("noop"))])
    before = p.trace().to_jsonl()
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(p, home, agent)
    assert p.trace().to_jsonl() == before
    assert p.reserve_agent_id() == ag.AgentId(agent.value + 1)
    p.run(None)
    assert kinds(p) == {K.SPAWN, K.BEHAVIOR_DONE, K.TERMINATE}
