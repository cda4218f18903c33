"""Routes, arrival windows, delay estimation, and the itinerary behavior."""

import copy
import dataclasses
import hashlib
import json
import math
import random
import re
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import agentry as ag
from agentry import simulator
from agentry.model import AgentShell, deserialize_shell, read_list, read_object, serialize_shell
from agentry.scenario import build_platform, render_trace, validate_scenario_doc
from agentry.trace import _TEMPLATES, EventKind

from conftest import events_of
from document_fuzz import _slots


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
        est = est.updated(("a", "b"), d)
    n = len(observations)
    decay = 1 - alpha
    expected = decay**n * default + alpha * sum(
        decay ** (n - 1 - i) * d for i, d in enumerate(observations)
    )
    assert est.estimate(("a", "b")) == expected


unit_fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
)
non_negative_fractions = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)


@given(
    alpha=unit_fractions,
    default=non_negative_fractions,
    prior=st.one_of(st.none(), non_negative_fractions),
    observations=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=6),
)
def test_an_update_equals_the_textbook_formula_exactly(alpha, default, prior, observations):
    link = ("a", "b")
    est = ag.DelayEstimator(alpha, default, {} if prior is None else {link: prior})
    for d in observations:
        expected = alpha * d + (1 - alpha) * est.estimate(link)
        est = est.updated(link, d)
        got = est.estimate(link)
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
        assert est.to_jsonable() == ag.DelayEstimator(alpha, default, {link: expected}).to_jsonable()


bounds_probes = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 10**6), Fraction(10**6 + 1, 10**6), 0, 1, -1, 2]),
    st.fractions(min_value=-3, max_value=3, max_denominator=1000),
    st.integers(min_value=-3, max_value=3),
)


@given(value=bounds_probes)
def test_integer_validation_accepts_what_fraction_comparisons_accepted(value):
    def accepted(**kw):
        try:
            ag.DelayEstimator(**kw)
        except ValueError:
            return False
        return True

    assert accepted(alpha=value) == (0 <= Fraction(value) <= 1)
    assert accepted(default_estimate=value) == (Fraction(value) >= 0)
    assert accepted(links={("a", "b"): Fraction(value)}) == (value >= 0)


def _written_fraction(value):
    value = Fraction(value)
    return [value.numerator, value.denominator]


@given(alpha=bounds_probes, default=bounds_probes, link=bounds_probes, observed=st.integers(min_value=0, max_value=10**6))
def test_an_estimator_is_checked_where_it_is_built_and_not_on_update(alpha, default, link, observed):
    """A bad alpha, default or link raises from the constructor and from
    from_jsonable; an update, which skips the check, equals the public build
    of its values."""
    links = {("a", "b"): Fraction(link)}
    written = {"alpha": _written_fraction(alpha), "default": _written_fraction(default)}
    written["links"] = [["a", "b", _written_fraction(link)]]
    builds = (lambda: ag.DelayEstimator(alpha, default, links), lambda: ag.DelayEstimator.from_jsonable(written))
    if not (0 <= Fraction(alpha) <= 1 and default >= 0 and link >= 0):
        for build in builds:
            with pytest.raises(ValueError):
                build()
        return
    for build in builds:
        est = build()
        for key in (("a", "b"), ("b", "a")):
            expected = Fraction(alpha) * observed + (1 - Fraction(alpha)) * est.estimate(key)
            assert est.updated(key, observed) == ag.DelayEstimator(alpha, default, {**links, key: expected})


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


@given(
    estimate=st.one_of(st.integers(min_value=0, max_value=10**6), non_negative_fractions),
    earliest=st.integers(min_value=0, max_value=10**6),
    base_time=st.integers(min_value=0, max_value=10**6),
    now=st.integers(min_value=0, max_value=3 * 10**6),
)
def test_a_departure_plan_equals_the_ceiling_formula(estimate, earliest, base_time, now):
    est = ag.DelayEstimator(links={("a", "b"): estimate})
    nxt = ag.Objective(loc(2, "b"), earliest_offset=earliest)
    expected = max(now, math.ceil(base_time + earliest - estimate))
    assert ag.next_departure_plan(est, loc(1, "a"), nxt, now, base_time) == expected


@given(
    alpha=unit_fractions,
    prior=non_negative_fractions,
    observed=st.integers(min_value=0, max_value=10**9),
)
def test_an_update_equals_a_fresh_fraction(alpha, prior, observed):
    link = ("a", "b")
    an, ad, en, ed = alpha.numerator, alpha.denominator, prior.numerator, prior.denominator
    expected = Fraction(an * observed * ed + (ad - an) * en, ad * ed)
    for _ in range(2):  # the second update of the same values is a cache hit
        got = ag.DelayEstimator(alpha, links={link: prior}).updated(link, observed).estimate(link)
        assert type(got) is Fraction and (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


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


def _shell_with_task_free_stops():
    a, b = loc(1, "a"), loc(2, "b")
    stops = (ag.Objective(b, 2, 6), ag.Objective(a, 1, None), ag.Objective(b, 3, 3, (mark("b"),)))
    itinerary = ag.Itinerary(ag.ItineraryConfig(route=ag.Route(objectives=stops)))
    return AgentShell(id=ag.AgentId(3), home=a, current=a, behaviors=[itinerary])


def test_a_tampered_window_is_rejected_after_its_valid_twin_decoded():
    blob = serialize_shell(_shell_with_task_free_stops())
    deserialize_shell(blob)
    tampered = json.loads(blob)
    tampered["behaviors"][0]["config"]["route"]["objectives"][0]["latest"] = 1
    with pytest.raises(ValueError, match="^objective latest must be null or an integer of at least 2, got 1$"):
        deserialize_shell(json.dumps(tampered).encode())


def test_two_decodes_share_only_task_free_objectives():
    blob = serialize_shell(_shell_with_task_free_stops())
    first, second = (deserialize_shell(blob).behaviors[0].config.route for _ in range(2))
    assert first is not second
    one, two = first.objectives, second.objectives
    assert one[0] is two[0] and one[1] is two[1]
    assert one[2] is not two[2] and one[2].stop_tasks[0] is not two[2].stop_tasks[0]
    # Without its stop task the route holds nothing mutable: decodes share it.
    shell = _shell_with_task_free_stops()
    task_free = ag.Route(shell.behaviors[0].config.route.objectives[:2])
    shell.behaviors[0] = ag.Itinerary(ag.ItineraryConfig(route=task_free))
    blob = serialize_shell(shell)
    first, second = (deserialize_shell(blob).behaviors[0].config.route for _ in range(2))
    assert first is second and first == task_free and first.objectives == (one[0], one[1])
    assert first.objectives[0] is one[0] and first.objectives[1] is one[1]
    assert ag.Route.from_jsonable(task_free.to_jsonable()) is first


def route_doc(*objectives, base_time=0):
    return {"objectives": list(objectives), "base_time": base_time}


def stop(value, name, earliest=0, latest=None, tasks=()):
    return {"location": {"value": value, "name": name}, "earliest": earliest, "latest": latest, "tasks": list(tasks)}


def test_a_malformed_route_reports_its_first_problem_in_objective_order():
    # Objective 0's window is checked before objective 1 is read.
    bad_window = stop(1, "a", earliest=-1)
    no_value = {"location": {"name": "b"}, "earliest": 2, "latest": None, "tasks": []}
    with pytest.raises(ValueError, match="^objective earliest must be an integer of at least 0, got -1$"):
        ag.Route.from_jsonable(route_doc(bad_window, no_value))
    with pytest.raises(KeyError, match="value"):
        ag.Route.from_jsonable(route_doc(stop(1, "a"), no_value, bad_window))
    # Every window is checked before base_time is read.
    swapped = stop(1, "a", earliest=5, latest=4)
    with pytest.raises(ValueError, match="^objective latest must be null or an integer of at least 5, got 4$"):
        ag.Route.from_jsonable(route_doc(stop(2, "b"), swapped, base_time="x"))
    with pytest.raises(ValueError, match="^route base_time must be null or an integer, got 'x'$"):
        ag.Route.from_jsonable(route_doc(stop(2, "b"), stop(1, "a", 5, 6), base_time="x"))
    with pytest.raises(ag.EmptyRoute):
        ag.Route.from_jsonable(route_doc())
    with pytest.raises(ValueError, match="^route base_time must be null or an integer, got 'x'$"):
        ag.Route.from_jsonable(route_doc(base_time="x"))


# ---------------------------------------------------------------------------
# Route decode against the per-objective reference
# ---------------------------------------------------------------------------


def _per_objective_route(d):
    """The reference decode: each objective's location built (both its keys
    looked up, then its constructor reads them) and each entry of a list of
    stop tasks decoded, then the objective built (its constructor reads
    earliest, then the tasks, then latest, at least earliest), in route
    order, then the route built (its constructor reads base_time)."""
    objectives = []
    for o in read_list(read_object(d, "route")["objectives"], "route objectives"):
        where = read_object(read_object(o, "objective")["location"], "location")
        location = ag.LocationId(where["value"], where["name"])
        tasks = o.get("tasks", [])
        tasks = [ag.ActionDescriptor.from_jsonable(t) for t in tasks] if isinstance(tasks, list) else tasks
        objectives.append(ag.Objective(location, o.get("earliest", 0), o.get("latest"), tasks))
    return ag.Route(tuple(objectives), d.get("base_time"))


# JSON values that are wrong in a route, or right by accident.
ROUTE_JUNK = [None, True, False, 0, 1, -1, -4, 3, 9, 2.5, float("inf"), float("nan"), "", "x", "7"]
ROUTE_JUNK += [[], [1], {}, {"value": 1}, {"name": "noop"}]


def _mutated_route(seed):
    """A fleet-like route dict (8 windowed stops over 12 sites; about a third
    of the routes have a stop task) with one to three values replaced by junk
    or a stop task, deleted, or emptied."""
    rng = random.Random(seed)
    names = [f"site{i}" for i in range(12)]
    objectives = []
    for k in range(1, 9):
        value = rng.randrange(12)
        earliest = 10 * k + rng.randint(-3, 3)
        tasks = [{"name": "trace", "params": {"k": k}}] if rng.random() < 0.05 else []
        latest = rng.choice([None, earliest + rng.randint(0, 4)])
        objectives.append(stop(value + 1, names[value], earliest, latest, tasks))
    d = route_doc(*objectives, base_time=rng.choice([0, None, rng.randrange(20)]))
    for _ in range(rng.randint(1, 3)):
        slots = list(_slots(d))
        if not slots:
            break
        container, key = rng.choice(slots)
        op = rng.random()
        if op < 0.2:
            del container[key]
        elif op < 0.3:
            container[key] = [] if isinstance(container[key], list) else {}
        elif op < 0.4 and isinstance(container, dict) and "tasks" in container:
            container["tasks"] = [{"name": "noop", "params": rng.choice([None, {"n": [1]}])}]
        else:
            container[key] = json.loads(json.dumps(rng.choice(ROUTE_JUNK)))
    return d


def _decoded(decode, d):
    try:
        route = decode(d)
    except Exception as exc:
        return type(exc), str(exc)
    return type(route), route.to_jsonable()


def _route_decode_mismatch(seed):
    """None when Route.from_jsonable gives the reference's route, or raises
    the reference's exception type and message; else both outcomes."""
    d = _mutated_route(seed)
    want, got = _decoded(_per_objective_route, copy.deepcopy(d)), _decoded(ag.Route.from_jsonable, d)
    return None if got == want else (want, got)


def route_decodes_as_the_reference(seed):
    """The differential check ``(seed) -> problems`` for route decoding."""
    mismatch = _route_decode_mismatch(seed)
    return [] if mismatch is None else ["reference gives {!r}, Route.from_jsonable {!r}".format(*mismatch)]


ROUTE_SEEDS = range(200)


@pytest.mark.parametrize("seed", ROUTE_SEEDS)
def test_a_route_decodes_as_the_per_objective_reference(seed):
    assert route_decodes_as_the_reference(seed) == []


# ---------------------------------------------------------------------------
# Decoded progress the behavior cannot resume from
# ---------------------------------------------------------------------------

STOPS = [f"loc{i}" for i in range(1, 9)]
AT = "/agents/0/behaviors/0"
NOOP_TASK = {"kind": "task", "done": False, "action": {"name": "noop", "params": None}}


def edited_itinerary_doc(**edits):
    """A one-agent scenario holding a fleet-style itinerary with ``edits``
    applied to its serialized fields."""
    objectives = [
        {"location": {"$location": name}, "earliest": 10 * k, "latest": 10 * k + 3, "tasks": []}
        for k, name in enumerate(STOPS, start=1)
    ]
    behavior = {
        "kind": "itinerary",
        "config": {
            "route": {"objectives": objectives, "base_time": 0},
            "listeners": [],
            "missed_behavior": {"kind": "task", "action": {"name": "noop", "params": None}},
        },
        "planned": False,
        "estimator": {"alpha": [1, 2], "default": [0, 1], "links": []},
        **edits,
    }
    return {
        "format_version": 1,
        "seed": 0,
        "config": {"migration_latency": {"kind": "fixed", "ticks": 2}, "max_ticks": 200},
        "locations": ["loc0", *STOPS],
        "agents": [{"location": "loc0", "behavior": behavior}],
    }


def assert_runs(**edits):
    doc = edited_itinerary_doc(**edits)
    assert validate_scenario_doc(doc) == []
    build_platform(doc).run()


def test_an_unknown_phase_is_reported():
    assert validate_scenario_doc(edited_itinerary_doc(phase="bogus")) == [
        f"{AT}: itinerary phase must be one of "
        "('start', 'depart', 'traveling', 'window_wait', 'missed', 'halted'), got 'bogus'"
    ]


def test_an_index_off_the_route_is_reported():
    for index, done in ((99, False), (8, False), (-1, False), (9, True), (-1, True)):
        assert validate_scenario_doc(edited_itinerary_doc(index=index, done=done)) == [
            f"{AT}: itinerary index {index} out of range for 8 objectives"
        ]
    assert_runs(index=8, done=True, phase="depart", base=0)
    assert_runs(index=7, phase="depart", base=0)


def test_the_missed_phase_without_its_clone_is_reported():
    assert validate_scenario_doc(edited_itinerary_doc(phase="missed", base=0, missed_clone=None)) == [
        f"{AT}: itinerary phase 'missed' needs a missed_clone"
    ]
    assert_runs(phase="missed", base=0, missed_clone=NOOP_TASK)
    # A clone that finished on the last objective leaves exactly this state.
    assert_runs(phase="missed", base=0, index=8, done=True, missed_clone=None)


def test_a_phase_past_start_without_an_integer_base_is_reported():
    for phase in ("depart", "traveling", "window_wait", "halted"):
        for base in (None, "x"):
            assert validate_scenario_doc(edited_itinerary_doc(phase=phase, base=base)) == [
                f"{AT}: itinerary base must be an integer past 'start', got {base!r}"
            ]
    assert_runs(phase="start", base=None)


def test_a_negative_link_estimate_is_reported():
    estimator = {"alpha": [1, 2], "default": [0, 1], "links": [["loc1", "loc2", [-50, 1]]]}
    assert validate_scenario_doc(edited_itinerary_doc(estimator=estimator)) == [
        f"{AT}: link estimates must be non-negative"
    ]
    with pytest.raises(ValueError, match="link estimates must be non-negative"):
        ag.DelayEstimator(links={("a", "b"): Fraction(-1, 3)})


_EXACT = "an int, a finite float, or a decimal or 'a/b' literal"


def test_a_float_alpha_reads_as_its_decimal_literal():
    # Fraction(0.3) was the double nearest 0.3, 5404319552844595/18014398509481984.
    assert ag.DelayEstimator(alpha=0.3).alpha == Fraction(3, 10)
    assert ag.DelayEstimator(default_estimate="5/2", links={("a", "b"): 1.5}).estimate(("a", "b")) == Fraction(3, 2)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(alpha=True), f"estimator alpha must be {_EXACT}, got True"),
        (dict(default_estimate="1/0"), f"estimator default must be {_EXACT}, got '1/0'"),
        (dict(links={("a", "b"): None}), f"link estimate must be {_EXACT}, got None"),
        (dict(links={(1, "b"): Fraction(1)}), "estimator link must be a (source, destination) pair of strings, got (1, 'b')"),
        (dict(links={"ab": Fraction(1)}), "estimator link must be a (source, destination) pair of strings, got 'ab'"),
        (dict(links=[("a", "b", Fraction(1))]), "estimator links must be an object, got [('a', 'b', Fraction(1, 1))]"),
    ],
)
def test_an_estimator_reads_its_fields_where_it_is_built(kw, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ag.DelayEstimator(**kw)


@pytest.mark.parametrize(
    "link, message",
    [
        ([1, "b", [1, 1]], "estimator link must be [source name, destination name, [n, d]], got [1, 'b', [1, 1]]"),
        (["a", ["b"], [1, 1]], "estimator link must be [source name, destination name, [n, d]], got ['a', ['b'], [1, 1]]"),
        (["a", "b"], "estimator link must be [source name, destination name, [n, d]], got ['a', 'b']"),
        ("ab1", "estimator link must be [source name, destination name, [n, d]], got 'ab1'"),
        (["a", "b", 1], "link estimate must be [numerator, denominator] in lowest terms, got 1"),
    ],
)
def test_an_estimator_link_entry_is_read_before_it_becomes_a_key(link, message):
    # [1, "b", ...] used to build a link keyed (1, 'b'), and a list name raised TypeError.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ag.DelayEstimator.from_jsonable({"alpha": [1, 2], "default": [0, 1], "links": [link]})


def test_an_estimator_is_read_as_to_jsonable_writes_it():
    # Only a lowest-terms pair of ints decodes; [2, 4] would read back as [1, 2].
    for alpha in ([True, 2], [1, True], [2, 4], [0, 2], [1, -2], [1, 0], [1.0, 2]):
        estimator = {"alpha": alpha, "default": [0, 1], "links": []}
        assert validate_scenario_doc(edited_itinerary_doc(estimator=estimator)) == [
            f"{AT}: estimator alpha must be [numerator, denominator] in lowest terms, got {alpha!r}"
        ]
    # Links are written sorted, each once.
    links = [["loc2", "loc3", [1, 1]], ["loc1", "loc2", [1, 1]]]
    for written in (links, [links[1], links[1]]):
        estimator = {"alpha": [1, 2], "default": [0, 1], "links": written}
        assert validate_scenario_doc(edited_itinerary_doc(estimator=estimator)) == [
            f"{AT}: estimator links must be sorted by link, each once, got {written!r}"
        ]
    estimator = ag.DelayEstimator(Fraction(1, 3), Fraction(5, 2), {("a", "b"): Fraction(7, 4), ("b", "a"): Fraction(2)})
    assert ag.DelayEstimator.from_jsonable(estimator.to_jsonable()) == estimator


# ---------------------------------------------------------------------------
# Migration blob bytes
# ---------------------------------------------------------------------------


def fleet_like_doc(seed):
    """20 itineraries of 4 windowed objectives over 6 sites with uniform
    migration latency; odd agents plan their departures, one stop runs a
    task with dict params and one agent recovers from misses."""
    rng = random.Random(seed)
    names = [f"site{i}" for i in range(6)]
    agents = []
    for i in range(20):
        here = start = rng.choice(names)
        objectives = []
        for k in range(1, 5):
            here = rng.choice([n for n in names if n != here])
            earliest = 8 * k + rng.randint(-2, 2)
            objectives.append(
                {"location": {"$location": here}, "earliest": earliest, "latest": earliest + 2, "tasks": []}
            )
        if i == 2:
            objectives[1]["tasks"] = [{"name": "trace", "params": {"stop": {"agent": i, "marks": [1, 2]}}}]
        recover = {"kind": "task", "action": {"name": "trace", "params": {"recovered": i}}} if i == 3 else None
        itinerary = {
            "kind": "itinerary",
            "config": {
                "route": {"objectives": objectives, "base_time": 0},
                "listeners": [],
                "missed_behavior": recover,
            },
            "planned": i % 2 == 1,
            "estimator": {"alpha": [1, 3], "default": [2, 1], "links": []},
        }
        agents.append({"location": start, "behavior": itinerary})
    config = {"migration_latency": {"kind": "uniform", "lo": 1, "hi": 8}, "max_ticks": 400}
    return {"format_version": 1, "seed": seed, "config": config, "locations": names, "agents": agents}


def test_migration_blobs_and_trace_bytes_are_pinned(monkeypatch):
    blobs = []
    encode = simulator.serialize_shell

    def recording(shell):
        blobs.append(encode(shell))
        return blobs[-1]

    monkeypatch.setattr(simulator, "serialize_shell", recording)
    doc = fleet_like_doc(seed=7)
    assert validate_scenario_doc(doc) == []
    platform = build_platform(doc)
    platform.run()
    trace = render_trace(platform)
    kinds = [json.loads(line).get("kind") for line in trace.splitlines()[1:]]
    assert {"objective_missed", "objective_reached"} <= set(kinds)
    assert '"recovered":3' in trace and '"marks":[1,2]' in trace and '"halted":true' in trace
    # Every hop's blob and the trace are pinned: a change that only makes the
    # codec or the estimator faster keeps every byte.
    digest = hashlib.sha256(b"".join(blobs) + trace.encode()).hexdigest()
    assert (len(blobs), digest) == (61, "ab00f37e4c7a94422b1f5080e2c8a827a81d433f78377192ff257807f3512a45")


def test_an_itinerarys_objective_events_render_through_their_templates():
    platform = build_platform(fleet_like_doc(seed=7))
    platform.run()
    rows = [e for e in platform.trace() if e.kind in (EventKind.OBJECTIVE_REACHED, EventKind.OBJECTIVE_MISSED)]
    assert {e.kind for e in rows} == {EventKind.OBJECTIVE_REACHED, EventKind.OBJECTIVE_MISSED}
    assert [_TEMPLATES[e.kind.value](e.tick, e.seq, e.agent, e.detail) for e in rows] == [e.to_json_line() + "\n" for e in rows]


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
