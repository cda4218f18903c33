"""Routes, arrival windows, delay estimation, and the itinerary behavior."""

import dataclasses
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import agentry as ag
from agentry.model import AgentShell, deserialize_shell, serialize_shell
from agentry.trace import EventKind

from conftest import events_of


def act(name, params=None):
    return ag.ActionDescriptor(name, params)


def mark(tag):
    return act("t.beh.mark", {"tag": tag})


def reached(platform):
    return [(e.detail, e.tick) for e in events_of(platform, EventKind.OBJECTIVE_REACHED)]


def missed(platform):
    return [(e.detail, e.tick) for e in events_of(platform, EventKind.OBJECTIVE_MISSED)]


# ---------------------------------------------------------------------------
# Arrival classification
# ---------------------------------------------------------------------------


def test_arrival_inside_window_is_on_time():
    assert ag.classify_arrival((5, 10), 7) == ag.OnTime()


def test_window_bounds_are_inclusive():
    assert ag.classify_arrival((5, 10), 5) == ag.OnTime()
    assert ag.classify_arrival((5, 10), 10) == ag.OnTime()
    assert ag.classify_arrival((0, 0), 0) == ag.OnTime()


def test_arrival_before_window_waits_for_its_start():
    assert ag.classify_arrival((5, 10), 4) == ag.Early(wait_until=5)
    assert ag.classify_arrival((5, 10), 0) == ag.Early(wait_until=5)


def test_arrival_after_window_is_late_by_the_overshoot():
    assert ag.classify_arrival((5, 10), 11) == ag.Late(by=1)
    assert ag.classify_arrival((5, 10), 25) == ag.Late(by=15)


def test_open_ended_window_never_turns_late():
    assert ag.classify_arrival((3, None), 2) == ag.Early(wait_until=3)
    assert ag.classify_arrival((3, None), 3) == ag.OnTime()
    assert ag.classify_arrival((3, None), 10_000) == ag.OnTime()


def test_classification_matches_brute_force_oracle():
    for start in range(7):
        for end in [*range(start, 9), None]:
            for arrival in range(11):
                got = ag.classify_arrival((start, end), arrival)
                if arrival < start:
                    assert got == ag.Early(wait_until=start)
                elif end is None or arrival <= end:
                    assert got == ag.OnTime()
                else:
                    assert got == ag.Late(by=arrival - end)


# ---------------------------------------------------------------------------
# Delay estimation
# ---------------------------------------------------------------------------


def test_unobserved_links_report_the_default():
    est = ag.DelayEstimator(default_estimate=Fraction(5))
    assert est.estimate(("a", "b")) == 5


def test_estimates_are_exact_rationals():
    est = ag.DelayEstimator()
    est = est.updated(("a", "b"), 7)
    assert est.estimate(("a", "b")) == Fraction(7, 2)
    est = est.updated(("a", "b"), 4)
    assert est.estimate(("a", "b")) == Fraction(15, 4)


def test_custom_alpha_weights_the_observation():
    est = ag.DelayEstimator(alpha=Fraction(1, 3), default_estimate=Fraction(6))
    assert est.updated(("x", "y"), 3).estimate(("x", "y")) == 5


def test_updates_never_mutate():
    est = ag.DelayEstimator()
    est.updated(("a", "b"), 9)
    assert est.estimate(("a", "b")) == 0
    assert est.links == {}


def test_estimator_validation():
    with pytest.raises(ValueError):
        ag.DelayEstimator(alpha=Fraction(3, 2))
    with pytest.raises(ValueError):
        ag.DelayEstimator(alpha=Fraction(-1, 2))
    with pytest.raises(ValueError):
        ag.DelayEstimator(default_estimate=Fraction(-1))
    with pytest.raises(ValueError):
        ag.DelayEstimator().updated(("a", "b"), -1)


def test_estimator_round_trips_exactly():
    est = ag.DelayEstimator(alpha=Fraction(1, 3), default_estimate=Fraction(7, 2))
    est = est.updated(("a", "b"), 5).updated(("b", "c"), 11).updated(("a", "b"), 2)
    rebuilt = ag.DelayEstimator.from_jsonable(est.to_jsonable())
    assert rebuilt == est
    assert rebuilt.estimate(("a", "b")) == est.estimate(("a", "b"))


@given(
    alpha=st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(1)]),
    default=st.sampled_from([Fraction(0), Fraction(5), Fraction(7, 2)]),
    observations=st.lists(st.integers(min_value=0, max_value=50), max_size=8),
)
def test_ema_matches_its_closed_form(alpha, default, observations):
    est = ag.DelayEstimator(alpha=alpha, default_estimate=default)
    for d in observations:
        est = ag.observe_and_update_delay(est, ("a", "b"), d)
    n = len(observations)
    decay = 1 - alpha
    expected = decay**n * default + alpha * sum(
        decay ** (n - 1 - i) * d for i, d in enumerate(observations)
    )
    assert est.estimate(("a", "b")) == expected


# ---------------------------------------------------------------------------
# Departure planning
# ---------------------------------------------------------------------------


def loc(value, name):
    return ag.LocationId(value, name)


def test_departure_with_no_estimate_targets_the_window_start():
    plan = ag.next_departure_plan(
        ag.DelayEstimator(), loc(1, "a"), ag.Objective(loc(2, "b"), earliest_offset=10), now=2
    )
    assert plan == 10


def test_departure_subtracts_the_estimate_rounding_up():
    est = ag.DelayEstimator(links={("a", "b"): Fraction(7, 2)})
    plan = ag.next_departure_plan(
        est, loc(1, "a"), ag.Objective(loc(2, "b"), earliest_offset=10), now=0
    )
    assert plan == 7  # ceil(10 - 7/2)
    est = ag.DelayEstimator(links={("a", "b"): Fraction(10, 3)})
    plan = ag.next_departure_plan(
        est, loc(1, "a"), ag.Objective(loc(2, "b"), earliest_offset=10), now=0
    )
    assert plan == 7  # ceil(10 - 10/3) = ceil(20/3)


def test_departure_never_lies_in_the_past():
    est = ag.DelayEstimator(links={("a", "b"): Fraction(3)})
    plan = ag.next_departure_plan(
        est, loc(1, "a"), ag.Objective(loc(2, "b"), earliest_offset=10), now=9
    )
    assert plan == 9


def test_departure_honors_the_base_time():
    plan = ag.next_departure_plan(
        ag.DelayEstimator(),
        loc(1, "a"),
        ag.Objective(loc(2, "b"), earliest_offset=10),
        now=0,
        base_time=100,
    )
    assert plan == 110


def test_infeasible_departure_degrades_to_now():
    est = ag.DelayEstimator(links={("a", "b"): Fraction(50)})
    plan = ag.next_departure_plan(
        est, loc(1, "a"), ag.Objective(loc(2, "b"), earliest_offset=10), now=3
    )
    assert plan == 3


# ---------------------------------------------------------------------------
# Objectives, routes, config
# ---------------------------------------------------------------------------


def test_objective_validation():
    with pytest.raises(ValueError):
        ag.Objective(loc(1, "a"), earliest_offset=-1)
    with pytest.raises(ValueError):
        ag.Objective(loc(1, "a"), earliest_offset=5, latest_offset=4)
    ag.Objective(loc(1, "a"), earliest_offset=5, latest_offset=5)  # point window is fine


def test_route_rejects_emptiness():
    with pytest.raises(ag.EmptyRoute):
        ag.Route(objectives=())


def test_route_windows_are_absolute():
    route = ag.Route(
        objectives=(ag.Objective(loc(1, "a"), earliest_offset=3, latest_offset=8),),
        base_time=100,
    )
    assert route.window(0, 100) == (103, 108)


def test_route_round_trips():
    route = ag.Route(
        objectives=(
            ag.Objective(loc(1, "a"), 3, 8, stop_tasks=(mark("here"),)),
            ag.Objective(loc(2, "b"), 0, None),
        ),
        base_time=None,
    )
    assert ag.Route.from_jsonable(route.to_jsonable()) == route


def test_config_is_frozen():
    cfg = ag.ItineraryConfig(route=ag.Route(objectives=(ag.Objective(loc(1, "a")),)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.route = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        ag.Objective(loc(1, "a")).earliest_offset = 9


def test_config_round_trips_with_missed_behavior():
    cfg = ag.ItineraryConfig(
        route=ag.Route(objectives=(ag.Objective(loc(1, "a")),)),
        reached_listeners=(mark("seen"),),
        missed_behavior=ag.Task(mark("recover")),
    )
    rebuilt = ag.ItineraryConfig.from_jsonable(cfg.to_jsonable())
    assert rebuilt == cfg


def test_itinerary_round_trips():
    itin = ag.Itinerary(
        ag.ItineraryConfig(route=ag.Route(objectives=(ag.Objective(loc(1, "a")),))),
        planned_departures=True,
        estimator=ag.DelayEstimator(links={("h", "a"): Fraction(5, 2)}),
    )
    rebuilt = ag.behavior_from_dict(itin.to_dict())
    assert isinstance(rebuilt, ag.Itinerary)
    assert rebuilt == itin
    assert rebuilt.estimator == itin.estimator


def _traveling_shell():
    a, b, c = loc(1, "a"), loc(2, "b"), loc(3, "c")
    recover = ag.Task(act("t.beh.mark", {"tag": "recover", "seen": {"ticks": [1, 2]}}))
    cfg = ag.ItineraryConfig(
        route=ag.Route(
            objectives=(
                ag.Objective(b, 2, 6, stop_tasks=(act("t.beh.mark", {"tag": "b", "extra": {"n": [1]}}),)),
                ag.Objective(c, 0, None),
                ag.Objective(a, 1, 9, stop_tasks=(mark("a"), act("noop"))),
            ),
            base_time=None,
        ),
        reached_listeners=(act("t.beh.mark", {"tag": "seen"}),),
        missed_behavior=recover,
    )
    estimator = ag.DelayEstimator(alpha=Fraction(1, 3)).updated(("a", "b"), 4).updated(("b", "c"), 7)
    itin = ag.Itinerary(
        cfg,
        planned_departures=True,
        estimator=estimator,
        _base=5,
        _index=1,
        _phase="missed",
        _arrival=12,
        _missed_clone=ag.clone_behavior(recover),
    )
    return AgentShell(
        id=ag.AgentId(9),
        home=a,
        current=c,
        behaviors=[itin, ag.Itinerary(ag.ItineraryConfig(route=cfg.route))],
        state={"log": [{"at": 3}], "visits": 2},
        inbox=deque([ag.make_message(ag.AgentId(1), ag.AgentId(9), "PING", "c1", b"\x00hi", sent_at=4)]),
    )


def test_itinerary_shell_round_trips_to_identical_bytes():
    blob = serialize_shell(_traveling_shell())
    again = deserialize_shell(blob)
    assert serialize_shell(again) == blob
    itin = again.behaviors[0]
    assert itin.estimator.estimate(("a", "b")) == Fraction(4, 3)
    assert itin._missed_clone == itin.config.missed_behavior


def test_two_decodes_of_one_blob_share_no_mutable_data():
    blob = serialize_shell(_traveling_shell())
    one, two = deserialize_shell(blob), deserialize_shell(blob)
    one.state["log"][0]["at"] = 99
    one.state["visits"] = 0
    itin = one.behaviors[0]
    itin.config.route.objectives[0].stop_tasks[0].params["extra"]["n"].append(2)
    itin.config.reached_listeners[0].params["tag"] = "changed"
    itin.config.missed_behavior.action.params["seen"]["ticks"].clear()
    itin._missed_clone.action.params["tag"] = "changed"
    one.behaviors[1].config.route.objectives[0].stop_tasks[0].params["tag"] = "changed"
    assert serialize_shell(one) != blob
    assert serialize_shell(two) == blob
    assert serialize_shell(deserialize_shell(blob)) == blob


# ---------------------------------------------------------------------------
# The behavior, on both platforms
# ---------------------------------------------------------------------------


def itinerary_for(objectives, base_time=0, **kw):
    return ag.Itinerary(ag.ItineraryConfig(route=ag.Route(tuple(objectives), base_time)), **kw)


def test_on_time_journey(platform_factory):
    p = platform_factory(migration=2)
    home = p.create_location("home")
    lab = p.create_location("lab")
    p.spawn_agent(
        home,
        [itinerary_for([ag.Objective(lab, 0, 20, stop_tasks=(mark("stop"),))])],
    )
    p.run()
    assert reached(p) == [({"objective": 0, "location": "lab", "arrival": 2, "class": "on_time"}, 2)]
    assert [e.tick for e in events_of(p, EventKind.TERMINATE)] == [2]


def test_early_arrival_waits_for_the_window(platform_factory):
    p = platform_factory(migration=2)
    home = p.create_location("home")
    lab = p.create_location("lab")
    a = p.spawn_agent(
        home,
        [itinerary_for([ag.Objective(lab, 10, 20, stop_tasks=(mark("stop"),))])],
    )
    p.run()
    # Processing holds until the window opens; the recorded arrival stays
    # the physical one.
    assert reached(p) == [
        ({"objective": 0, "location": "lab", "arrival": 2, "class": "early"}, 10)
    ]
    assert p.agent_state(a)["marks"] == [["stop", 10]]


def test_late_arrival_without_policy_halts_for_good(platform_factory):
    p = platform_factory(migration=5)
    home = p.create_location("home")
    lab = p.create_location("lab")
    lib = p.create_location("lib")
    a = p.spawn_agent(
        home,
        [itinerary_for([ag.Objective(lab, 0, 3), ag.Objective(lib, 0, 50)])],
    )
    p.run()
    assert missed(p) == [({"objective": 0, "location": "lab", "arrival": 5, "by": 2}, 5)]
    halts = [e for e in events_of(p, EventKind.CUSTOM) if e.detail.get("halted")]
    assert [e.detail for e in halts] == [{"halted": True, "objective": 0, "location": "lab"}]
    # Quiescent, not terminated: the agent stands where it stopped and the
    # rest of the route is never attempted.
    assert reached(p) == []
    assert events_of(p, EventKind.TERMINATE) == []
    assert len(events_of(p, EventKind.MIGRATE_START)) == 1
    assert p.is_alive(a)
    assert p.agent_location(a) == lab


def test_late_arrival_enacts_a_fresh_recovery_each_miss(platform_factory):
    p = platform_factory(migration=5)
    home = p.create_location("home")
    lab = p.create_location("lab")
    lib = p.create_location("lib")
    a = p.spawn_agent(
        home,
        [
            ag.Itinerary(
                ag.ItineraryConfig(
                    route=ag.Route((ag.Objective(lab, 0, 1), ag.Objective(lib, 0, 1))),
                    missed_behavior=ag.Task(mark("recovered")),
                )
            )
        ],
    )
    p.run()
    assert [d["location"] for d, _ in missed(p)] == ["lab", "lib"]
    # A one-shot recovery task fires twice only because each miss clones it.
    assert p.agent_state(a)["marks"] == [["recovered", 5], ["recovered", 11]]
    assert [e.tick for e in events_of(p, EventKind.TERMINATE)] == [11]


def test_listeners_fire_before_stop_tasks(platform_factory):
    p = platform_factory(migration=1)
    home = p.create_location("home")
    lab = p.create_location("lab")
    a = p.spawn_agent(
        home,
        [
            ag.Itinerary(
                ag.ItineraryConfig(
                    route=ag.Route((ag.Objective(lab, 0, None, stop_tasks=(mark("stop"),)),)),
                    reached_listeners=(mark("listener"),),
                )
            )
        ],
    )
    p.run()
    assert p.agent_state(a)["marks"] == [["listener", 1], ["stop", 1]]


def test_stop_task_errors_do_not_derail_the_route(platform_factory):
    p = platform_factory(migration=1)
    home = p.create_location("home")
    lab = p.create_location("lab")
    lib = p.create_location("lib")
    a = p.spawn_agent(
        home,
        [
            itinerary_for(
                [
                    ag.Objective(lab, 0, None, stop_tasks=(act("t.beh.boom"), mark("after"))),
                    ag.Objective(lib, 0, None),
                ]
            )
        ],
    )
    p.run()
    errors = [e for e in events_of(p, EventKind.CUSTOM) if e.detail.get("error") == "boom"]
    assert len(errors) == 1
    assert p.agent_state(a)["marks"] == [["after", 1]]
    assert [d["location"] for d, _ in reached(p)] == ["lab", "lib"]


def test_objective_at_the_current_location_needs_no_travel(platform_factory):
    p = platform_factory(migration=3)
    home = p.create_location("home")
    p.spawn_agent(home, [itinerary_for([ag.Objective(home, 0, None)])])
    p.run()
    assert events_of(p, EventKind.MIGRATE_START) == []
    assert reached(p) == [
        ({"objective": 0, "location": "home", "arrival": 0, "class": "on_time"}, 0)
    ]


def test_unanchored_route_starts_at_first_step(platform_factory):
    p = platform_factory()
    home = p.create_location("home")
    noop = ag.Task(act("noop"))
    p.spawn_agent(
        home,
        [
            ag.Sequential(
                [
                    ag.Task(act("noop")),
                    ag.Task(act("noop")),
                    ag.Task(act("noop")),
                    itinerary_for([ag.Objective(home, 5, None)], base_time=None),
                ]
            )
        ],
    )
    p.run()
    # First stepped at tick 3, so the window opens at 3 + 5, not at 5.
    assert reached(p) == [
        ({"objective": 0, "location": "home", "arrival": 3, "class": "early"}, 8)
    ]


def test_planned_departure_leaves_at_the_last_safe_tick(platform_factory):
    p = platform_factory(migration=4)
    home = p.create_location("home")
    lab = p.create_location("lab")
    p.spawn_agent(
        home,
        [
            itinerary_for(
                [ag.Objective(lab, 10, 12)],
                planned_departures=True,
                estimator=ag.DelayEstimator(links={("home", "lab"): Fraction(4)}),
            )
        ],
    )
    p.run()
    assert [e.tick for e in events_of(p, EventKind.MIGRATE_START)] == [6]
    assert reached(p) == [
        ({"objective": 0, "location": "lab", "arrival": 10, "class": "on_time"}, 10)
    ]


def test_immediate_departure_is_the_default(platform_factory):
    p = platform_factory(migration=4)
    home = p.create_location("home")
    lab = p.create_location("lab")
    p.spawn_agent(home, [itinerary_for([ag.Objective(lab, 10, 12)])])
    p.run()
    assert [e.tick for e in events_of(p, EventKind.MIGRATE_START)] == [0]
    assert reached(p)[0][0]["class"] == "early"


def test_journey_feeds_the_estimator_across_migrations(platform_factory):
    # The third leg is only on time if the first visit's observed latency
    # survived two serializations and drives the planned departure.
    p = platform_factory(migration=4)
    home = p.create_location("home")
    lab = p.create_location("lab")
    p.spawn_agent(
        home,
        [
            itinerary_for(
                [
                    ag.Objective(lab, 0, None),
                    ag.Objective(home, 0, None),
                    ag.Objective(lab, 22, 25),
                ],
                planned_departures=True,
            )
        ],
    )
    p.run()
    assert [e.tick for e in events_of(p, EventKind.MIGRATE_START)] == [0, 5, 20]
    assert [(d["arrival"], d["class"]) for d, _ in reached(p)] == [
        (4, "on_time"),
        (9, "on_time"),
        (24, "on_time"),
    ]
