"""Task, Observer, Listener, and the role factory."""

import pytest
from hypothesis import given, settings

import agentry as ag
from agentry.behaviors import resolve_params
from agentry.model import location_to_jsonable

from conftest import make_sim
from test_model import behavior_trees
from test_outcome_reuse import context


def marks(platform, agent):
    return platform.agent_state(agent).get("marks", [])


def mark(tag):
    return ag.ActionDescriptor("t.beh.mark", {"tag": tag})


# ---------------------------------------------------------------------------
# Task
# ---------------------------------------------------------------------------


def test_task_runs_once_and_finishes(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [ag.Task(mark("only"))])
    p.run(None)
    assert marks(p, a) == [["only", 0]]
    assert not p.is_alive(a)


def test_task_error_is_traced_not_raised(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("t.beh.boom"))])
    p.run(None)
    errors = [e for e in p.trace() if e.kind == ag.EventKind.CUSTOM and "error" in e.detail]
    assert errors and errors[0].detail["action"] == "t.beh.boom"
    assert not p.is_alive(a)  # the task still completed


def test_unknown_action_is_traced(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("no.such.action"))])
    p.run(None)
    errors = [e for e in p.trace() if e.kind == ag.EventKind.CUSTOM and "error" in e.detail]
    assert errors


# ---------------------------------------------------------------------------
# Observer
# ---------------------------------------------------------------------------


def test_observer_rejects_zero_period():
    with pytest.raises(ag.ZeroPeriod, match="^observer period must be >= 1, got 0$"):
        ag.Observer(0, ag.ActionDescriptor("always"), ag.ActionDescriptor("noop"))


def test_observer_first_check_after_one_period(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [ag.Observer(4, ag.ActionDescriptor("always"), mark("hit"), mode=ag.ONE_SHOT)])
    p.run(None)
    assert marks(p, a) == [["hit", 4]]


def test_observer_cyclic_fires_on_grid(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [
        ag.Observer(3, ag.ActionDescriptor("always"), mark("hit"), mode=ag.CYCLIC),
    ])
    p.run(until=13)
    assert marks(p, a) == [["hit", 3], ["hit", 6], ["hit", 9], ["hit", 12]]


def test_observer_waits_for_trigger(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [
        ag.Observer(5, ag.ActionDescriptor("clock_at_least", {"tick": 12}), mark("hit"), mode=ag.ONE_SHOT),
    ])
    p.run(None)
    # checks at 5 and 10 see a false trigger; 15 is the first true check
    assert marks(p, a) == [["hit", 15]]


def test_observer_handler_cancel_ends_it(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [
        ag.Observer(2, ag.ActionDescriptor("always"), ag.ActionDescriptor("t.beh.cancel"), mode=ag.CYCLIC),
    ])
    p.run(None)
    assert not p.is_alive(a)
    done = [e for e in p.trace() if e.kind == ag.EventKind.BEHAVIOR_DONE]
    assert [e.tick for e in done] == [2]


def test_observer_trigger_error_counts_as_false(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [
        ag.Observer(2, ag.ActionDescriptor("no.such.predicate"), mark("hit"), mode=ag.CYCLIC),
    ])
    p.run(until=6)
    assert marks(p, a) == []
    errors = [e for e in p.trace() if e.kind == ag.EventKind.CUSTOM and "error" in e.detail]
    assert errors


def test_observer_grid_survives_migration(platform_factory):
    # in transit [1, 8): the tick-5 check is skipped, and the late wake at 8
    # realigns to the grid instead of firing off-grid
    p = platform_factory(migration=7)
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    a = p.spawn_agent(a_loc, [
        ag.Observer(5, ag.ActionDescriptor("always"), mark("hit"), mode=ag.CYCLIC),
        ag.Sequential([
            ag.Observer(1, ag.ActionDescriptor("clock_at_least", {"tick": 1}), ag.ActionDescriptor("noop")),
            ag.Task(ag.ActionDescriptor("t.sim.go", {"dest": location_to_jsonable(b_loc)})),
        ]),
    ])
    p.run(until=21)
    hits = marks(p, a)
    assert hits == [["hit", 10], ["hit", 15], ["hit", 20]]
    assert all(t % 5 == 0 for _, t in hits)


# ---------------------------------------------------------------------------
# Listener
# ---------------------------------------------------------------------------


def test_listener_requires_callbacks():
    with pytest.raises(ag.NoCallbacks, match="^listener needs at least one callback$"):
        ag.Listener("X", [])


def test_listener_only_consumes_matching_type(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    hearer = p.spawn_agent(loc, [
        ag.Listener("PING", [mark("ping")], mode=ag.ONE_SHOT),
        ag.Listener("DATA", [mark("data")], mode=ag.ONE_SHOT),
    ])
    p.spawn_agent(loc, [ag.Sequential([
        ag.Task(ag.ActionDescriptor("send", {"to": hearer.value, "type": "DATA"})),
        ag.Task(ag.ActionDescriptor("send", {"to": hearer.value, "type": "PING"})),
    ])])
    p.run(None)
    got = dict((tag, t) for tag, t in marks(p, hearer))
    assert set(got) == {"ping", "data"}
    # DATA was sent first (tick 0) and PING second (tick 1)
    assert got["data"] == 1 and got["ping"] == 2


def test_listener_callbacks_run_in_order(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    hearer = p.spawn_agent(loc, [ag.Listener("PING", [mark("first"), mark("second")], mode=ag.ONE_SHOT)])
    p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("send", {"to": hearer.value, "type": "PING"}))])
    p.run(None)
    assert [tag for tag, _ in marks(p, hearer)] == ["first", "second"]


def test_listener_one_message_per_tick(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    hearer = p.spawn_agent(loc, [ag.Listener("PING", [mark("got")], mode=ag.CYCLIC)])
    for _ in range(3):
        p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("send", {"to": hearer.value, "type": "PING"}))])
    p.run(until=10)
    assert [t for _, t in marks(p, hearer)] == [1, 2, 3]


def test_listener_cancel_stops_remaining_callbacks(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    hearer = p.spawn_agent(loc, [
        ag.Listener("PING", [mark("before"), ag.ActionDescriptor("t.beh.cancel"), mark("after")], mode=ag.CYCLIC),
    ])
    p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("send", {"to": hearer.value, "type": "PING"}))])
    p.run(None)
    assert [tag for tag, _ in marks(p, hearer)] == ["before"]
    assert not p.is_alive(hearer)


def test_listener_callback_error_does_not_stop_listening(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    hearer = p.spawn_agent(loc, [
        ag.Listener("PING", [ag.ActionDescriptor("t.beh.boom"), mark("still")], mode=ag.CYCLIC),
    ])
    for _ in range(2):
        p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("send", {"to": hearer.value, "type": "PING"}))])
    p.run(until=10)
    assert [tag for tag, _ in marks(p, hearer)] == ["still", "still"]
    errors = [e for e in p.trace() if e.kind == ag.EventKind.CUSTOM and "error" in e.detail]
    assert len(errors) == 2


# ---------------------------------------------------------------------------
# Role factory
# ---------------------------------------------------------------------------


def test_role_registry_basics():
    reg = ag.RoleRegistry()
    reg.register("pinger", lambda params: ag.Task(ag.ActionDescriptor("noop")))
    assert "pinger" in reg.roles()
    built = reg.construct("pinger")
    assert isinstance(built, ag.Task)
    with pytest.raises(ag.UnknownRole):
        reg.construct("ponger")


def test_role_registry_rejects_conflicting_rebind():
    reg = ag.RoleRegistry()

    def make(params):
        return ag.Task(ag.ActionDescriptor("noop"))

    reg.register("worker", make)
    reg.register("worker", make)  # same constructor again is fine
    with pytest.raises(ag.DuplicateRole):
        reg.register("worker", lambda params: ag.Server())


def test_assign_role_attaches_constructed_behavior(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    reg = ag.RoleRegistry()
    reg.register("greeter", lambda params: ag.Task(mark(params.decode() or "hello")))
    blank = p.spawn_agent(loc, [ag.Listener("NEVER_SENT", [ag.ActionDescriptor("noop")])])
    p.run(until=2)
    ag.assign_role(p, reg, blank, "greeter", params=b"salut")
    p.run(None)
    assert marks(p, blank) == [["salut", 3]]


def test_agents_are_blank_until_role_assignment(platform_factory):
    """Pre-assignment agents are indistinguishable regardless of the role
    they will later play."""
    snapshots = []
    finals = []
    for role in ("alpha", "beta"):
        p = platform_factory()
        loc = p.create_location("l")
        reg = ag.RoleRegistry()
        reg.register("alpha", lambda params: ag.Task(mark("alpha-work")))
        reg.register("beta", lambda params: ag.Task(mark("beta-work")))
        blank = p.spawn_agent(loc, [ag.Listener("NEVER_SENT", [ag.ActionDescriptor("noop")])])
        p.run(until=1)
        snapshots.append((sorted(p.agent_state(blank)), [b.to_dict() for b in [ag.Listener("NEVER_SENT", [ag.ActionDescriptor("noop")])]]))
        ag.assign_role(p, reg, blank, role)
        p.run(None)
        finals.append(marks(p, blank))
    assert snapshots[0] == snapshots[1]
    assert finals[0] != finals[1]


# ---------------------------------------------------------------------------
# Late-bound params
# ---------------------------------------------------------------------------


def test_a_set_state_value_shares_nothing_with_the_action_params():
    ctx = context(0, {})
    action = ag.ActionDescriptor("set_state", {"key": "k", "value": {"a": [1, {"b": 2}]}})
    ctx.run_action(action)
    ctx.state["k"]["a"].append(3)
    ctx.state["k"]["a"][1]["b"] = 4
    assert action.params == {"key": "k", "value": {"a": [1, {"b": 2}]}}


def test_a_dict_with_a_marker_key_and_another_key_is_not_a_marker():
    ctx = context(0, {"k": 5})
    params = {"$state": "k", "x": 1}
    resolved = resolve_params(ctx, params)
    assert resolved == {"$state": "k", "x": 1} and resolved is not params
    assert resolve_params(ctx, {"$self": True, "x": 1}) == {"$self": True, "x": 1}


def test_markers_inside_lists_and_dicts_resolve():
    ctx = context(0, {"k": 5})
    params = [{"$state": "k"}, [{"$self": True}, "s"], {"n": [{"$state": "k"}], "m": None}, 2.5]
    assert resolve_params(ctx, params) == [5, [1, "s"], {"n": [5], "m": None}, 2.5]
    assert params[0] == {"$state": "k"}


# ---------------------------------------------------------------------------
# A constructor rejects what its decoder rejects, with the same message
# ---------------------------------------------------------------------------

NOOP = ag.ActionDescriptor("noop")

# Each case: a build from one argument, the key that argument is serialized
# under, a good and a bad value, and the message both entry points give for
# the bad one. Each bad value once built and ran, then raised from run() only
# when its agent landed after a move.
BUILT_AND_DECODED = {
    "observer_period_float": (
        lambda v: ag.Observer(v, NOOP, NOOP), "period", 2, 2.0, "observer period must be an integer, got 2.0"
    ),
    "objective_earliest_float": (
        lambda v: ag.Objective(ag.LocationId(1, "a"), v), "earliest", 1, 1.5, "objective earliest must be an integer of at least 0, got 1.5"
    ),
    "listener_filter_empty": (
        lambda v: ag.Listener(v, [NOOP]), "filter", "A", "", "listener filter must be a non-empty string, got ''"
    ),
    "action_name_int": (lambda v: ag.ActionDescriptor(v), "name", "noop", 5, "action name must be a string, got 5"),
    "sequential_index_bool": (
        lambda v: ag.Sequential([ag.Task(NOOP)], _index=v), "index", 0, True, "sequential index must be an integer from 0 to 1, got True"
    ),
    "client_server_float": (
        lambda v: ag.Client(v, ag.RequestEnvelope(NOOP)),
        "server",
        3,
        2.0,
        """client server must be an agent id value or a {"$state": key} marker, got 2.0""",
    ),
}


@pytest.mark.parametrize("case", sorted(BUILT_AND_DECODED))
def test_a_constructor_rejects_what_its_decoder_rejects(case):
    build, key, good, bad, message = BUILT_AND_DECODED[case]
    with pytest.raises(ValueError) as built:
        build(bad)
    value = build(good)
    if isinstance(value, ag.Behavior):
        d, decode = value.to_dict(), ag.behavior_from_dict
    else:
        d, decode = value.to_jsonable(), type(value).from_jsonable
    d[key] = bad
    with pytest.raises(ValueError) as decoded:
        decode(d)
    assert str(built.value) == str(decoded.value) == message


def test_a_client_server_that_is_an_agent_id_raises_where_it_is_built():
    # It used to build, then fail its first migrate: an AgentId is not JSON.
    with pytest.raises(ValueError, match=r"^client server must be .* marker, got AgentId\(3\)$"):
        ag.Client(ag.AgentId(3), ag.RequestEnvelope(NOOP))


# ---------------------------------------------------------------------------
# Serialization of in-progress behaviors
# ---------------------------------------------------------------------------


def test_observer_progress_survives_serde_round_trip(platform_factory):
    # Migration serializes the shell mid-run; the observer's grid anchor and
    # pending check must come back intact.
    p = platform_factory(migration=2)
    a_loc = p.create_location("a")
    b_loc = p.create_location("b")
    a = p.spawn_agent(a_loc, [
        ag.Observer(3, ag.ActionDescriptor("clock_at_least", {"tick": 8}), mark("hit"), mode=ag.ONE_SHOT),
        ag.Sequential([
            ag.Observer(1, ag.ActionDescriptor("clock_at_least", {"tick": 4}), ag.ActionDescriptor("noop")),
            ag.Task(ag.ActionDescriptor("t.sim.go", {"dest": location_to_jsonable(b_loc)})),
        ]),
    ])
    p.run(None)
    assert marks(p, a) == [["hit", 9]]  # 9 is the first on-grid tick >= 8 after arrival at 7


@given(behavior_trees)
@settings(max_examples=40, deadline=None)
def test_behavior_done_at_most_once_per_slot(tree):
    p = make_sim(max_ticks=80)
    loc = p.create_location("l")
    a = p.spawn_agent(loc, [tree])
    try:
        p.run(None)
    except ag.TickBudgetExceeded:
        pass
    done = [e for e in p.trace() if e.kind == ag.EventKind.BEHAVIOR_DONE and e.agent == a]
    slots = [e.detail["slot"] for e in done]
    assert len(slots) == len(set(slots))
    assert len(done) <= 1
