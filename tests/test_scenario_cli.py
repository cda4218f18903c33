"""Scenario files, the world builder, golden traces, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import agentry as ag
from agentry.actions import builtin_action
from agentry.cli import (
    EXIT_GOLDEN_MISMATCH,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_TICK_BUDGET,
    TRACE_DIR_ENV,
    run_scenario,
)
from agentry.model import AgentShell, deserialize_shell, serialize_shell
from agentry import model, scenario
from agentry.scenario import (
    build_platform,
    effective_seed,
    first_divergence,
    render_trace,
    validate_scenario,
    validate_scenario_doc,
)
from agentry.trace import EventKind

import document_fuzz
from conftest import events_of
from document_fuzz import SHIPPED, load_bench_worlds


@builtin_action("t.scn.count_tests")
def _count_tests(ctx, params, message):
    ctx.state["n_tests"] = len(ag.load_tests(params["repo"]))


def task_spec(name, params=None):
    return {"kind": "task", "action": {"name": name, "params": params}}


def base_doc(**over):
    doc = {
        "format_version": 1,
        "seed": 5,
        "config": {
            "message_latency": {"kind": "fixed", "ticks": 1},
            "migration_latency": {"kind": "fixed", "ticks": 2},
            "max_ticks": 200,
        },
        "locations": ["home", "away"],
        "agents": [{"location": "home", "behavior": task_spec("trace", {"hello": 1})}],
    }
    doc.update(over)
    return doc


def write_scenario(tmp_path, doc, name="world.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_valid_scenario_has_no_problems(tmp_path):
    assert validate_scenario_doc(base_doc(), tmp_path) == []


def test_version_problems():
    assert validate_scenario_doc({"locations": ["a"], "agents": []}) == [
        "/format_version: missing"
    ]
    problems = validate_scenario_doc(base_doc(format_version=9))
    assert any("unsupported version 9" in p for p in problems)


def test_unknown_fields_come_with_suggestions():
    problems = validate_scenario_doc(base_doc(agnts=[]))
    assert any("/agnts" in p and "did you mean 'agents'" in p for p in problems)


def test_seed_must_be_a_natural_number():
    for bad in (-1, True, "five"):
        problems = validate_scenario_doc(base_doc(seed=bad))
        assert any(p.startswith("/seed") for p in problems), bad


def test_config_problems():
    doc = base_doc(
        config={
            "message_latency": {"kind": "fixd", "ticks": 1},
            "migration_latency": {"kind": "uniform", "lo": 1},
            "max_ticks": -1,
            "mystery": 1,
        }
    )
    problems = validate_scenario_doc(doc)
    assert any("did you mean 'fixed'" in p for p in problems)
    assert any(p.startswith("/config/migration_latency") for p in problems)
    assert any(p.startswith("/config/max_ticks") for p in problems)
    assert any(p.startswith("/config/mystery") for p in problems)


def test_location_problems():
    assert validate_scenario_doc(base_doc(locations=[])) == [
        "/locations: must be a non-empty list of names"
    ]
    problems = validate_scenario_doc(base_doc(locations=["home", "home", ""]))
    assert any("duplicate location name 'home'" in p for p in problems)
    assert any(p.startswith("/locations/2") for p in problems)


def test_agent_entry_problems():
    problems = validate_scenario_doc(base_doc(agents=["nope"]))
    assert any("must be an object" in p for p in problems)
    problems = validate_scenario_doc(
        base_doc(agents=[{"location": "hom", "behavior": task_spec("noop")}])
    )
    assert any("unknown location 'hom'" in p and "did you mean 'home'" in p for p in problems)
    problems = validate_scenario_doc(base_doc(agents=[{"location": "home"}]))
    assert any("missing 'behavior'" in p for p in problems)
    problems = validate_scenario_doc(
        base_doc(
            agents=[
                {
                    "location": "home",
                    "behavior": task_spec("noop"),
                    "behaviors": [task_spec("noop")],
                }
            ]
        )
    )
    assert any("not both" in p for p in problems)
    problems = validate_scenario_doc(base_doc(agents=[{"location": "home", "behaviors": []}]))
    assert any("non-empty list" in p for p in problems)


def test_behavior_kind_problems():
    doc = base_doc(agents=[{"location": "home", "behavior": {"kind": "taks"}}])
    problems = validate_scenario_doc(doc)
    assert any("unknown behavior kind 'taks'" in p and "did you mean 'task'" in p for p in problems)


def test_behavior_shape_problems_carry_their_path():
    doc = base_doc(agents=[{"location": "home", "behavior": {"kind": "task"}}])
    problems = validate_scenario_doc(doc)
    assert any(p.startswith("/agents/0/behaviors/0") for p in problems)


def test_marker_problems():
    doc = base_doc(
        agents=[
            {
                "location": "home",
                "behavior": task_spec("t.sim.go", {"dest": {"$location": "awy"}}),
            }
        ]
    )
    problems = validate_scenario_doc(doc)
    assert any("unknown location 'awy'" in p and "did you mean 'away'" in p for p in problems)

    doc = base_doc(
        agents=[
            {"location": "home", "behavior": task_spec("send", {"to": {"$agent": 4}, "type": "X"})}
        ]
    )
    problems = validate_scenario_doc(doc)
    assert any("$agent index 4 out of range" in p for p in problems)


def test_a_bad_marker_is_reported_once_and_its_tree_not_built():
    def problems_for(marker):
        params = {"dest": marker, "to": [marker]}
        return validate_scenario_doc(
            base_doc(agents=[{"location": "home", "behavior": task_spec("t.sim.go", params)}])
        )

    at = "/agents/0/behaviors/0/action/params"
    assert problems_for({"$location": "awy"}) == [
        f"{at}/dest: unknown location 'awy' (did you mean 'away'?)",
        f"{at}/to/0: unknown location 'awy' (did you mean 'away'?)",
    ]
    assert problems_for({"$agent": 4}) == [
        f"{at}/dest: $agent index 4 out of range (have 1 agents)",
        f"{at}/to/0: $agent index 4 out of range (have 1 agents)",
    ]
    assert problems_for({"$agent": True}) == [
        f"{at}/dest: $agent index True out of range (have 1 agents)",
        f"{at}/to/0: $agent index True out of range (have 1 agents)",
    ]


CLIENT = {"kind": "client", "request": {"task": {"name": "noop"}}}
OBSERVER = {"kind": "observer", "period": 2, "trigger": {"name": "noop"}, "handler": {"name": "noop"}}
FSM = {
    "kind": "fsm",
    "definition": {"states": {"s0": {"name": "noop"}}, "start": "s0", "terminals": ["s0"]},
    "current": None,
}
LISTENER = {"kind": "listener", "filter": "A", "callbacks": [{"name": "noop"}]}
NOOP = task_spec("noop")
SEQUENTIAL = {"kind": "sequential", "children": [NOOP, NOOP]}
ITINERARY = {
    "kind": "itinerary",
    "config": {"route": {"objectives": [{"location": {"$location": "away"}, "earliest": 4}]}},
    "estimator": {"alpha": [1, 2], "default": [0, 1]},
}
MISTYPED_FIELDS = {
    "client_server_str": (
        {**CLIENT, "server": "x"},
        """client server must be an agent id value or a {"$state": key} marker, got 'x'""",
    ),
    "client_server_bool": (
        {**CLIENT, "server": True},
        """client server must be an agent id value or a {"$state": key} marker, got True""",
    ),
    "client_server_state_int": (
        {**CLIENT, "server": {"$state": 1}},
        """client server must be an agent id value or a {"$state": key} marker, got {'$state': 1}""",
    ),
    "observer_start_object": (
        {**OBSERVER, "start": {"k": 1}},
        "observer start must be null or an integer, got {'k': 1}",
    ),
    "observer_start_bool": ({**OBSERVER, "start": False}, "observer start must be null or an integer, got False"),
    "fsm_current_unknown": ({**FSM, "current": "s9"}, "current state 's9' not among states"),
    "fsm_current_list": ({**FSM, "current": ["s0"]}, "current state ['s0'] not among states"),
    "fsm_entered_str": ({**FSM, "entered": "yes"}, "entered must be true or false, got 'yes'"),
    "fsm_entered_int": ({**FSM, "entered": 1}, "entered must be true or false, got 1"),
    "fsm_pending_label_list": (
        {**FSM, "entered": True, "pending_label": ["x"]},
        "pending_label must be null or a string, got ['x']",
    ),
    "fsm_pending_label_object": (
        {**FSM, "entered": True, "pending_label": {"x": 1}},
        "pending_label must be null or a string, got {'x': 1}",
    ),
    "fsm_pending_label_int": (
        {**FSM, "entered": True, "pending_label": 5},
        "pending_label must be null or a string, got 5",
    ),
    "fsm_pending_label_not_entered": ({**FSM, "pending_label": "go"}, "pending_label 'go' needs entered: true"),
    "task_action_name_null": (task_spec(None), "action name must be a string, got None"),
    "observer_trigger_name_int": (
        {**OBSERVER, "trigger": {"name": 7}},
        "action name must be a string, got 7",
    ),
    "observer_handler_name_list": (
        {**OBSERVER, "handler": {"name": ["noop"]}},
        "action name must be a string, got ['noop']",
    ),
    "fsm_state_name_null": (
        {**FSM, "definition": {**FSM["definition"], "states": {"s0": {"name": None}}}},
        "action name must be a string, got None",
    ),
    "listener_filter_list": ({**LISTENER, "filter": ["A"]}, "listener filter must be a non-empty string, got ['A']"),
    "listener_filter_int": ({**LISTENER, "filter": 7}, "listener filter must be a non-empty string, got 7"),
    "listener_filter_empty": ({**LISTENER, "filter": ""}, "listener filter must be a non-empty string, got ''"),
    "task_done_str": ({**NOOP, "done": "no"}, "done must be true or false, got 'no'"),
    "task_done_int": ({**NOOP, "done": 1}, "done must be true or false, got 1"),
    "task_done_null": ({**NOOP, "done": None}, "done must be true or false, got None"),
    "itinerary_planned_str": ({**ITINERARY, "planned": "no"}, "itinerary planned must be true or false, got 'no'"),
    "itinerary_planned_int": ({**ITINERARY, "planned": 0}, "itinerary planned must be true or false, got 0"),
    "sequential_index_negative": (
        {**SEQUENTIAL, "index": -1},
        "sequential index must be an integer from 0 to 2, got -1",
    ),
    "sequential_index_past_the_end": (
        {**SEQUENTIAL, "index": 3},
        "sequential index must be an integer from 0 to 2, got 3",
    ),
    "sequential_index_str": (
        {**SEQUENTIAL, "index": "1"},
        "sequential index must be an integer from 0 to 2, got '1'",
    ),
    "sequential_index_bool": (
        {**SEQUENTIAL, "index": True},
        "sequential index must be an integer from 0 to 2, got True",
    ),
    "sequential_current_started_str": (
        {**SEQUENTIAL, "current_started": "no"},
        "current_started must be true or false, got 'no'",
    ),
    # A child reports its own field; its parent's done is read after it.
    "sequential_child_done": (
        {**SEQUENTIAL, "children": [NOOP, {**NOOP, "done": [False]}], "done": "x"},
        "done must be true or false, got [False]",
    ),
    "client_phase_int": (
        {**CLIENT, "server": 0, "phase": 7},
        "client phase must be one of ('init', 'await_ack', 'await_result'), got 7",
    ),
    # A nullable nested field decodes anything but null as its class does.
    "client_on_result_int": ({**CLIENT, "server": 0, "on_result": 5}, "action must be an object, got 5"),
    "client_phase_unknown": (
        {**CLIENT, "server": 0, "phase": "done"},
        "client phase must be one of ('init', 'await_ack', 'await_result'), got 'done'",
    ),
    "itinerary_arrival_class_unknown": (
        {**ITINERARY, "arrival_class": "late"},
        "itinerary arrival_class must be one of ('', 'early', 'on_time'), got 'late'",
    ),
    "itinerary_arrival_class_null": (
        {**ITINERARY, "arrival_class": None},
        "itinerary arrival_class must be one of ('', 'early', 'on_time'), got None",
    ),
    "itinerary_arrival_str": ({**ITINERARY, "arrival": "4"}, "itinerary arrival must be null or an integer, got '4'"),
    "itinerary_arrival_bool": ({**ITINERARY, "arrival": True}, "itinerary arrival must be null or an integer, got True"),
    "observer_period_bool": ({**OBSERVER, "period": True}, "observer period must be an integer, got True"),
    "sequential_children_str": ({**SEQUENTIAL, "children": ""}, "sequential children must be a list, got ''"),
    "itinerary_missed_behavior_false": (
        {**ITINERARY, "config": {**ITINERARY["config"], "missed_behavior": False}},
        "behavior must be an object, got False",
    ),
    "itinerary_missed_clone_int": ({**ITINERARY, "missed_clone": 5}, "behavior must be an object, got 5"),
    "objective_earliest_bool": (
        {**ITINERARY, "config": {"route": {"objectives": [{"location": {"$location": "away"}, "earliest": True}]}}},
        "objective earliest must be an integer of at least 0, got True",
    ),
    "objective_tasks_str": (
        {**ITINERARY, "config": {"route": {"objectives": [{"location": {"$location": "away"}, "tasks": ""}]}}},
        "objective tasks must be a list, got ''",
    ),
    "route_base_time_bool": (
        {**ITINERARY, "config": {"route": {**ITINERARY["config"]["route"], "base_time": True}}},
        "route base_time must be null or an integer, got True",
    ),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_FIELDS))
def test_a_mistyped_behavior_field_is_reported_at_its_behavior(case):
    spec, message = MISTYPED_FIELDS[case]
    noop = task_spec("noop")
    doc = base_doc(agents=[{"location": "home", "behaviors": [noop]}, {"location": "home", "behaviors": [noop, spec]}])
    assert validate_scenario_doc(doc) == [f"/agents/1/behaviors/1: {message}"]


# Values the bench documents and the shipped scenario do not already use.
@pytest.mark.parametrize(
    "spec",
    [
        {**CLIENT, "server": {"$state": "server"}},
        {**OBSERVER, "start": 4},
        FSM,
        {**FSM, "current": "s0", "entered": True, "pending_label": "go"},
        {**LISTENER, "filter": "*"},
        {**NOOP, "done": True},
        {**ITINERARY, "planned": True},
        {**SEQUENTIAL, "index": 1, "current_started": True},
        {**SEQUENTIAL, "index": 2, "done": True},
    ],
)
def test_well_typed_behavior_fields_validate_clean(spec):
    assert validate_scenario_doc(base_doc(agents=[{"location": "home", "behaviors": [spec]}])) == []


def test_tests_marker_needs_the_tests_field_reported_in_document_order():
    doc = base_doc(
        agents=[
            {
                "location": "hom",
                "behavior": task_spec("t.scn.count_tests", {"repo": {"$tests": True}}),
            }
        ],
        expected=7,
    )
    assert validate_scenario_doc(doc) == [
        "/agents/0/location: unknown location 'hom' (did you mean 'home'?)",
        "/tests: required, a behavior uses the $tests marker",
        "/expected: must be a path string, got 7",
    ]


def test_a_tests_marker_argument_other_than_true_is_reported_at_the_marker(tmp_path):
    ag.save_tests(
        tmp_path / "repo.json",
        [ag.Test("t1", "x", (ag.Question("q", "true_false", "?", True, 1),))],
    )

    def problems_for(marker):
        spec = task_spec("t.scn.count_tests", {"repo": marker})
        return validate_scenario_doc(
            base_doc(tests="repo.json", agents=[{"location": "home", "behavior": spec}]),
            tmp_path,
        )

    at = "/agents/0/behaviors/0/action/params/repo"
    assert problems_for({"$tests": False}) == [f"{at}: $tests marker takes true, got False"]
    assert problems_for({"$tests": 0}) == [f"{at}: $tests marker takes true, got 0"]
    assert problems_for({"$tests": {"$agent": 9}}) == [
        f"{at}: $tests marker takes true, got {{'$agent': 9}}"
    ]
    assert problems_for({"$tests": True}) == []


def test_per_link_negative_latency_is_a_config_problem():
    doc = base_doc(config={"migration_latency": {"kind": "per_link", "links": [["home", "lab", -3]]}})
    assert validate_scenario_doc(doc) == ["/config/migration_latency: per_link latency ticks must be an integer of at least 0, got -3"]


AT_LINKS = "/config/migration_latency/links"
UNKNOWN_LINK_NAMES = {
    "misspelt_source": ([["hom", "away", 7]], [f"{AT_LINKS}/0: unknown location 'hom' (did you mean 'home'?)"]),
    "unknown_both": (
        [["home", "away", 1], ["lab", "moon", 2]],
        [f"{AT_LINKS}/1: unknown location 'lab'", f"{AT_LINKS}/1: unknown location 'moon'"],
    ),
    "repeated_pair": (
        [["home", "away", 7], ["away", "home", 3], ["home", "away", 1]],
        [f"{AT_LINKS}/2: duplicate link 'home' -> 'away' (first at {AT_LINKS}/0)"],
    ),
    "repeated_unknown_pair": (
        [["hom", "away", 7], ["hom", "away", 1]],
        [
            f"{AT_LINKS}/0: unknown location 'hom' (did you mean 'home'?)",
            f"{AT_LINKS}/1: unknown location 'hom' (did you mean 'home'?)",
        ],
    ),
    "clean": ([["home", "away", 7], ["away", "home", 3], ["home", "home", 0]], []),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_LINK_NAMES))
def test_a_per_link_entry_must_name_declared_locations_once(case):
    # Such an entry used to build a PerLink that never matched, or silently
    # replaced the earlier entry for its pair. Its lines come in the config's
    # place: after /seed, before /config/max_ticks and the location problems.
    links, lines = UNKNOWN_LINK_NAMES[case]
    config = {"migration_latency": {"kind": "per_link", "links": links}, "max_ticks": -1}
    doc = base_doc(seed=-1, config=config, locations=["home", "away", "home"])
    assert validate_scenario_doc(doc) == [
        "/seed: seed must be an integer of at least 0, got -1",
        *lines,
        "/config/max_ticks: max_ticks must be an integer of at least 0, got -1",
        "/locations/2: duplicate location name 'home'",
    ]


def test_per_link_names_are_not_checked_without_declared_locations():
    config = {"message_latency": {"kind": "per_link", "links": [["x", "y", 1], ["x", "y", 2]]}}
    assert validate_scenario_doc(base_doc(config=config, locations=[], agents=[])) == [
        "/config/message_latency/links/1: duplicate link 'x' -> 'y' (first at /config/message_latency/links/0)",
        "/locations: must be a non-empty list of names",
    ]


AT_LEAST_0 = "must be an integer of at least 0, got"
LINK_SHAPE = "per_link latency link must be [source, destination, ticks], got"

# Each spec used to build through a lossy int()/str() conversion.
LOSSY_LATENCIES = {
    "fixed_float": ({"kind": "fixed", "ticks": 2.9}, f"fixed latency ticks {AT_LEAST_0} 2.9"),
    "fixed_bool": ({"kind": "fixed", "ticks": True}, f"fixed latency ticks {AT_LEAST_0} True"),
    "fixed_str": ({"kind": "fixed", "ticks": "5"}, f"fixed latency ticks {AT_LEAST_0} '5'"),
    "uniform_float": ({"kind": "uniform", "lo": 0.5, "hi": 3}, f"uniform latency lo {AT_LEAST_0} 0.5"),
    "uniform_str": ({"kind": "uniform", "lo": 0, "hi": "3"}, f"uniform latency hi {AT_LEAST_0} '3'"),
    "per_link_default_bool": ({"kind": "per_link", "default": False}, f"per_link latency default {AT_LEAST_0} False"),
    "per_link_str_entry": ({"kind": "per_link", "links": ["ab1"]}, f"{LINK_SHAPE} 'ab1'"),
    "per_link_dict": ({"kind": "per_link", "links": {"xy3": 1}}, "per_link latency links must be a list, got {'xy3': 1}"),
    "per_link_float_ticks": ({"kind": "per_link", "links": [["a", "b", 1.5]]}, f"per_link latency ticks {AT_LEAST_0} 1.5"),
    "per_link_bool_ticks": ({"kind": "per_link", "links": [["a", "b", True]]}, f"per_link latency ticks {AT_LEAST_0} True"),
    "per_link_int_name": ({"kind": "per_link", "links": [[1, "b", 1]]}, "per_link latency source must be a string, got 1"),
    "per_link_short_entry": ({"kind": "per_link", "links": [["a", "b"]]}, f"{LINK_SHAPE} ['a', 'b']"),
}


@pytest.mark.parametrize("case", sorted(LOSSY_LATENCIES))
def test_a_latency_spec_that_is_not_int_ticks_is_a_config_problem(case):
    spec, message = LOSSY_LATENCIES[case]
    doc = base_doc(config={"message_latency": spec})
    assert validate_scenario_doc(doc) == [f"/config/message_latency: {message}"]
    with pytest.raises(ag.ScenarioError) as err:
        build_platform(doc)
    assert err.value.problems == validate_scenario_doc(doc)


@pytest.mark.parametrize(
    "spec, key", [({"kind": "fixed"}, "ticks"), ({"kind": "uniform", "lo": 1}, "hi")], ids=["fixed", "uniform"]
)
def test_a_latency_spec_without_a_required_field_names_it(spec, key):
    # It was the bare KeyError text: "/config/message_latency: 'ticks'".
    doc = base_doc(config={"message_latency": spec})
    assert validate_scenario_doc(doc) == [f"/config/message_latency: missing field '{key}'"]


def test_int_latency_specs_build_their_exact_models():
    doc = base_doc(
        config={
            "message_latency": {"kind": "uniform", "lo": 0, "hi": 3},
            "migration_latency": {"kind": "per_link", "links": [["home", "away", 3]], "default": 2},
        }
    )
    assert validate_scenario_doc(doc) == []
    config = build_platform(doc).config
    assert config.message_latency == ag.UniformRange(0, 3)
    assert config.migration_latency == ag.PerLink({("home", "away"): 3}, default=2)


def test_tests_field_problems(tmp_path):
    problems = validate_scenario_doc(base_doc(tests="missing.json"), tmp_path)
    assert any("test repository not found" in p for p in problems)

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    problems = validate_scenario_doc(base_doc(tests="bad.json"), tmp_path)
    assert any(p.startswith("/tests") and "not valid JSON" in p for p in problems)

    doc = base_doc(
        agents=[
            {
                "location": "home",
                "behavior": task_spec("t.scn.count_tests", {"repo": {"$tests": True}}),
            }
        ]
    )
    problems = validate_scenario_doc(doc, tmp_path)
    assert any("required, a behavior uses the $tests marker" in p for p in problems)


def test_expected_field_problems():
    problems = validate_scenario_doc(base_doc(expected=7))
    assert any(p.startswith("/expected") for p in problems)


def test_file_level_diagnostics(tmp_path):
    assert validate_scenario(tmp_path / "nope.json") == [
        f"/: scenario file not found: {tmp_path / 'nope.json'}"
    ]
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{]")
    problems = validate_scenario(garbled)
    assert len(problems) == 1 and "not valid JSON" in problems[0]


def test_load_scenario_raises_with_every_problem(tmp_path):
    path = write_scenario(tmp_path, base_doc(seed=-1, locations=[]))
    with pytest.raises(ag.ScenarioError) as err:
        ag.load_scenario(path)
    assert len(err.value.problems) == 2
    assert "/seed" in str(err.value) and "/locations" in str(err.value)


def count_reads(monkeypatch, path):
    """Count Path.read_text calls on one file."""
    reads = []
    read_text = Path.read_text

    def counting(self, *args, **kwargs):
        if self == path:
            reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    return reads


def test_load_scenario_reads_the_file_once(tmp_path, monkeypatch):
    path = write_scenario(tmp_path, base_doc())
    reads = count_reads(monkeypatch, path)
    assert ag.load_scenario(path) == base_doc()
    assert len(reads) == 1


def test_run_scenario_reads_the_file_once(tmp_path, monkeypatch):
    path = write_scenario(tmp_path, base_doc())
    reads = count_reads(monkeypatch, path)
    assert run_scenario(path) == EXIT_OK
    assert len(reads) == 1


@pytest.mark.parametrize("workload", ["fanin", "fleet", "fsm_mesh"])
def test_run_scenario_builds_each_behavior_once(tmp_path, monkeypatch, workload):
    # One reading both checks the document and builds the trees it spawns.
    doc = load_bench_worlds().WORKLOADS[workload][0](0)
    path = write_scenario(tmp_path, doc)
    calls = []
    decode = scenario.behavior_from_dict

    def counting(data):
        calls.append(data)
        return decode(data)

    monkeypatch.setattr(scenario, "behavior_from_dict", counting)
    assert run_scenario(path, until=0) == EXIT_OK
    assert len(calls) == len(doc["agents"])  # each bench entry gives one "behavior"


# ---------------------------------------------------------------------------
# Building worlds
# ---------------------------------------------------------------------------


def test_build_runs_the_declared_world(tmp_path):
    p = build_platform(base_doc(), base_dir=tmp_path)
    p.run(None)
    customs = [e.detail for e in events_of(p, EventKind.CUSTOM)]
    assert customs == [{"hello": 1}]
    assert [loc.name for loc in p.locations()] == ["home", "away"]


def test_location_markers_bind_to_real_locations(tmp_path):
    doc = base_doc(
        agents=[
            {
                "location": "home",
                "behavior": task_spec("t.sim.go", {"dest": {"$location": "away"}}),
            }
        ]
    )
    p = build_platform(doc, base_dir=tmp_path)
    p.run(None)
    mover = events_of(p, EventKind.SPAWN)[0].agent
    assert p.agent_location(mover).name == "away"


def spawned_trees(monkeypatch):
    """Record the behavior lists every SimPlatform.spawn_agent receives."""
    trees = []
    spawn = ag.SimPlatform.spawn_agent

    def recording(self, location, behaviors, *args, **kwargs):
        trees.append(list(behaviors))
        return spawn(self, location, behaviors, *args, **kwargs)

    monkeypatch.setattr(ag.SimPlatform, "spawn_agent", recording)
    return trees


@pytest.mark.parametrize("workload", ["fanin", "fleet", "fsm_mesh"])
def test_validation_builds_the_trees_the_build_spawns(monkeypatch, workload):
    # Validation's stand-in ids are the ones a fresh SimPlatform assigns, so
    # the trees it builds to check a document are the trees the build spawns.
    doc = load_bench_worlds().WORKLOADS[workload][0](0)
    checked = []
    decode = scenario.behavior_from_dict

    def recording(data):
        checked.append(decode(data))
        return checked[-1]

    monkeypatch.setattr(scenario, "behavior_from_dict", recording)
    assert validate_scenario_doc(doc) == []
    monkeypatch.setattr(scenario, "behavior_from_dict", decode)
    spawned = spawned_trees(monkeypatch)
    build_platform(doc)
    assert len(spawned) == len(doc["agents"])
    assert checked == [tree for trees in spawned for tree in trees]


def test_two_builds_of_one_document_share_no_mutable_data(monkeypatch):
    params = {"tag": "x", "extra": {"n": [1]}, "at": {"$location": "away"}, "who": [{"$agent": 1}]}
    listener = {
        "kind": "listener",
        "filter": "PING",
        "callbacks": [{"name": "t.beh.mark", "params": {"tag": "got", "seen": {"ticks": [0]}}}],
        "mode": "cyclic",
    }
    doc = base_doc(
        agents=[
            {"location": "home", "behaviors": [task_spec("trace", params), listener]},
            {"location": "away", "behavior": task_spec("send", {"to": {"$agent": 0}, "type": "PING", "payload": [1]})},
        ]
    )
    pristine = json.dumps(doc, sort_keys=True)
    spawned = spawned_trees(monkeypatch)
    build_platform(doc)
    build_platform(doc)
    one, two = spawned[:2], spawned[2:]
    before = [[tree.to_dict() for tree in trees] for trees in two]
    one[0][0].action.params["extra"]["n"].append(2)
    one[0][0].action.params["at"]["name"] = "changed"
    one[0][0].action.params["who"].clear()
    one[0][1].callbacks[0].params["seen"]["ticks"].clear()
    one[1][0].action.params["payload"].append(2)
    assert [[tree.to_dict() for tree in trees] for trees in one] != before
    assert [[tree.to_dict() for tree in trees] for trees in two] == before
    assert json.dumps(doc, sort_keys=True) == pristine


def _mutable_values(value, found):
    """``found`` with every dict and list reachable from ``value``, through
    the items of containers and the attributes of objects, keyed by id."""
    if isinstance(value, (dict, list)):
        if id(value) in found:
            return found
        found[id(value)] = value
        items = value.values() if isinstance(value, dict) else value
    elif isinstance(value, (tuple, frozenset)):
        items = value
    elif hasattr(value, "__dict__") and not isinstance(value, type):
        items = vars(value).values()
    else:
        return found
    for item in items:
        _mutable_values(item, found)
    return found


def _nested_params_doc():
    """Trees whose action params nest dicts and lists holding markers: a
    task, an Fsm's states, a listener's callbacks and an itinerary's stop."""
    params = {"tag": "x", "extra": {"n": [1, {"k": []}]}, "at": {"$location": "away"}, "who": [{"$agent": 1}, [{"$agent": 0}]]}
    send = {"name": "send", "params": {"to": {"$agent": 0}, "type": "PING", "payload": [params]}}
    fsm = {"kind": "fsm", "definition": {"states": {"a": send, "b": {"name": "trace", "params": params}}, "start": "a", "terminals": ["b"]}, "current": "a"}
    listener = {"kind": "listener", "filter": "PING", "callbacks": [{"name": "trace", "params": params}], "mode": "cyclic"}
    stop = {"location": {"$location": "away"}, "earliest": 0, "latest": None, "tasks": [{"name": "trace", "params": params}]}
    itinerary = {"kind": "itinerary", "config": {"route": {"objectives": [stop]}}, "estimator": {"alpha": [1, 2], "default": [0, 1]}}
    agents = [{"location": "home", "behaviors": [task_spec("trace", params), listener]}, {"location": "away", "behaviors": [fsm, itinerary]}]
    return base_doc(agents=agents)


@pytest.mark.parametrize("kind", ["fanin", "fleet", "fsm_mesh", "shipped", "nested params"])
def test_two_builds_share_no_dict_or_list_with_each_other_or_the_document(kind):
    if kind == "shipped":
        doc = json.loads(SHIPPED.read_text())
    else:
        doc = _nested_params_doc() if kind == "nested params" else load_bench_worlds().WORKLOADS[kind][0](0)
    reads = [scenario._read(doc, SHIPPED.parent) for _ in range(2)]
    assert [problems for problems, *_ in reads] == [[], []]
    in_doc, one, two = (_mutable_values(value, {}) for value in (doc, reads[0][3], reads[1][3]))
    assert not in_doc.keys() & one.keys() and not in_doc.keys() & two.keys() and not one.keys() & two.keys()


def test_a_blob_binds_no_marker():
    # A read that refuses its tree mid-decode leaves no binder behind.
    bad = base_doc(agents=[{"location": "home", "behavior": {"kind": "client", "server": {"$agent": 0}, "request": 5}}])
    assert validate_scenario_doc(bad) == ["/agents/0/behaviors/0: request must be an object, got 5"]
    assert model._MARKERS == [None]
    at_home = ag.LocationId(1, "home")
    stops = (ag.Objective(at_home, 0, 5), ag.Objective(at_home, 1, 6, (ag.ActionDescriptor("noop"),)))
    marked = {"at": {"$location": "home"}, "who": [{"$agent": 0}]}
    behaviors = [
        ag.Itinerary(ag.ItineraryConfig(route=ag.Route(stops))),
        ag.Client(1, ag.RequestEnvelope(ag.ActionDescriptor("noop"))),
        ag.Task(ag.ActionDescriptor("trace", marked)),
    ]
    blob = json.loads(serialize_shell(AgentShell(ag.AgentId(1), at_home, at_home, behaviors)))
    for i in range(2):  # the task-free stop, read by the route's rows, and the stop with a task
        tampered = json.loads(json.dumps(blob))
        tampered["behaviors"][0]["config"]["route"]["objectives"][i]["location"] = {"$location": "home"}
        with pytest.raises(KeyError, match="'value'"):
            deserialize_shell(json.dumps(tampered).encode())
    tampered = json.loads(json.dumps(blob))
    tampered["behaviors"][1]["server"] = {"$agent": 0}
    with pytest.raises(ValueError, match=r"^client server must be an agent id value or a \{\"\$state\": key\} marker, got \{'\$agent': 0\}$"):
        deserialize_shell(json.dumps(tampered).encode())
    assert deserialize_shell(json.dumps(blob).encode()).behaviors[2].action.params == marked


class _Noted(ag.Behavior):
    """A hand-written kind that keeps its one field as the document wrote
    it, so the whole-tree walk binds the markers in it."""

    kind = "t.scn.noted"

    def __init__(self, note):
        super().__init__()
        self.note = note

    def _step(self, ctx):
        ctx.trace({"note": self.note})
        return ag.DONE

    def _to_dict_body(self):
        return {"note": self.note}

    @classmethod
    def _from_dict_body(cls, d):
        return cls(d["note"])


@pytest.mark.parametrize("nested", [False, True])
def test_a_hand_written_kind_has_its_markers_bound_by_the_whole_tree_walk(tmp_path, nested):
    note = {"at": {"$location": "away"}, "who": [{"$agent": 0}]}
    spec = {"kind": "t.scn.noted", "note": note}
    spec = {"kind": "sequential", "children": [spec]} if nested else spec
    doc = base_doc(agents=[{"location": "home", "behavior": spec}])
    p = build_platform(doc, base_dir=tmp_path)
    p.run(None)
    assert [e.detail for e in events_of(p, EventKind.CUSTOM)] == [{"note": {"at": {"value": 2, "name": "away"}, "who": [1]}}]
    note["who"] = [{"$agent": 7}]
    where = "/agents/0/behaviors/0" + "/children/0" * nested
    assert validate_scenario_doc(doc) == [f"{where}/note/who/0: $agent index 7 out of range (have 1 agents)"]
    reads = [document_fuzz._tree_read(read, spec, doc) for read in (scenario._behavior, document_fuzz._bound_then_decoded)]
    assert reads[0] == reads[1]


def test_a_marker_under_a_key_no_decoder_reads_is_left_unread():
    # Only the fields that are read bind their markers, so these are neither
    # reported nor a reason to need a tests repository.
    task = {"kind": "task", "action": {"name": "noop", "note": {"$tests": True}}, "note": {"$location": "nowhere"}}
    assert validate_scenario_doc(base_doc(agents=[{"location": "home", "behavior": task}])) == []


def test_a_marker_inside_a_dict_or_list_subclass_is_replaced(tmp_path):
    class Params(dict):
        pass

    class Items(list):
        pass

    params = Params(at=Params({"$location": "away"}), who=Items([Params({"$agent": 0})]))
    doc = base_doc(agents=[{"location": "home", "behavior": task_spec("trace", params)}])
    assert validate_scenario_doc(doc) == []
    p = build_platform(doc, base_dir=tmp_path)
    p.run(None)
    customs = [e.detail for e in events_of(p, EventKind.CUSTOM)]
    assert customs == [{"at": {"value": 2, "name": "away"}, "who": [1]}]
    assert type(customs[0]["at"]) is dict and type(customs[0]["who"]) is list


def test_agent_markers_may_point_forward(tmp_path):
    doc = base_doc(
        agents=[
            {
                "location": "home",
                "behavior": {
                    "kind": "listener",
                    "filter": "PING",
                    "callbacks": [{"name": "t.beh.mark", "params": {"tag": "got"}}],
                    "mode": "cyclic",
                },
            },
            {
                "location": "away",
                "behavior": task_spec("send", {"to": {"$agent": 0}, "type": "PING", "payload": 1}),
            },
        ]
    )
    p = build_platform(doc, base_dir=tmp_path)
    p.run(None)
    listener = events_of(p, EventKind.SPAWN)[0].agent
    assert p.agent_state(listener)["marks"] == [["got", 1]]


def test_tests_marker_resolves_against_the_scenario_directory(tmp_path):
    ag.save_tests(
        tmp_path / "repo.json",
        [ag.Test("t1", "x", (ag.Question("q", "true_false", "?", True, 1),))],
    )
    doc = base_doc(
        tests="repo.json",
        agents=[
            {
                "location": "home",
                "behavior": task_spec("t.scn.count_tests", {"repo": {"$tests": True}}),
            }
        ],
    )
    assert validate_scenario_doc(doc, tmp_path) == []
    p = build_platform(doc, base_dir=tmp_path)
    p.run(None)
    agent = events_of(p, EventKind.SPAWN)[0].agent
    assert p.agent_state(agent)["n_tests"] == 1


def test_seed_precedence():
    assert effective_seed({}) == 0
    assert effective_seed({"seed": None}) == 0
    assert effective_seed({"seed": 7}) == 7
    assert effective_seed({"seed": 7}, override=3) == 3
    assert effective_seed({"seed": 7}, override=0) == 0


def test_first_divergence_reports():
    assert first_divergence("a\nb\n", "a\nb\n") is None
    report = first_divergence("a\nX\n", "a\nb\n")
    assert report.splitlines() == ["trace mismatch at line 2", "expected: b", "actual:   X"]
    report = first_divergence("a\n", "a\nb\n")
    assert "line 2" in report and "(end of trace)" in report


def test_first_divergence_shows_line_ending_differences():
    # A difference the plain line would hide shows as Python literals.
    report = first_divergence("a\r\nb\r\n", "a\nb\n")
    assert report.splitlines() == ["trace mismatch at line 1", r"expected: 'a\n'", r"actual:   'a\r\n'"]
    report = first_divergence("a\nb", "a\nb\n")
    assert report.splitlines() == ["trace mismatch at line 2", r"expected: 'b\n'", "actual:   'b'"]
    report = first_divergence("a\nb\n\n", "a\nb\n")
    assert report.splitlines() == ["trace mismatch at line 3", "expected: (end of trace)", r"actual:   '\n'"]
    # A visible difference still shows plainly, with the old exact wording.
    assert first_divergence("a\n", "a\nb\n").splitlines() == [
        "trace mismatch at line 2",
        "expected: b",
        "actual:   (end of trace)",
    ]


# ---------------------------------------------------------------------------
# Generated documents: one that validates clean builds and runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", document_fuzz.TIER1_SEEDS)
def test_generated_documents_build_exactly_when_they_validate(seed):
    assert document_fuzz.document_holds(seed) == []


@pytest.mark.parametrize("kind", document_fuzz.KINDS)
def test_each_marker_in_each_slot_reads_as_the_whole_tree_walk_reads_it(kind):
    assert document_fuzz.marker_sweep(kind) == []


# ---------------------------------------------------------------------------
# run_scenario exit codes
# ---------------------------------------------------------------------------


def seeded_doc(**over):
    """A world whose trace depends on the seed: uniform latency on a send."""
    doc = base_doc(
        config={"message_latency": {"kind": "uniform", "lo": 1, "hi": 5}, "max_ticks": 300},
        agents=[
            {
                "location": "home",
                "behavior": {
                    "kind": "listener",
                    "filter": "PING",
                    "callbacks": [{"name": "t.beh.mark", "params": {"tag": "got"}}],
                    "mode": "one_shot",
                },
            },
            {
                "location": "away",
                "behavior": task_spec("send", {"to": {"$agent": 0}, "type": "PING", "payload": 1}),
            },
        ],
    )
    doc.update(over)
    return doc


def test_clean_run_writes_the_trace(tmp_path):
    path = write_scenario(tmp_path, base_doc())
    out = tmp_path / "deep" / "dir" / "trace.jsonl"
    assert run_scenario(path, trace_out=out) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == '{"format_version":1}'
    assert len(lines) > 1


def test_invalid_scenario_exits_3(tmp_path, capsys):
    path = write_scenario(tmp_path, base_doc(locations=[]))
    assert run_scenario(path) == EXIT_INVALID
    assert "/locations" in capsys.readouterr().err


def test_golden_self_establishes_then_verifies(tmp_path):
    doc = seeded_doc(expected="golden.jsonl")
    path = write_scenario(tmp_path, doc)
    # First verified run writes the trace before comparing, establishing it.
    assert run_scenario(path, trace_out=tmp_path / "golden.jsonl") == EXIT_OK
    assert run_scenario(path) == EXIT_OK


def test_golden_mismatch_exits_1_with_a_divergence_report(tmp_path, capsys):
    doc = seeded_doc(expected="golden.jsonl")
    path = write_scenario(tmp_path, doc)
    assert run_scenario(path, trace_out=tmp_path / "golden.jsonl") == EXIT_OK
    golden = tmp_path / "golden.jsonl"
    lines = golden.read_text().splitlines()
    lines[1] = lines[1].replace('"tick":0', '"tick":9')
    golden.write_text("\n".join(lines) + "\n")
    assert run_scenario(path) == EXIT_GOLDEN_MISMATCH
    err = capsys.readouterr().err
    assert "trace mismatch at line 2" in err
    assert "expected:" in err and "actual:" in err


def test_a_crlf_golden_is_a_mismatch(tmp_path, capsys):
    # The golden is compared byte for byte: CRLF line endings are not the
    # trace's LF ones, and the report shows both lines as literals.
    path = write_scenario(tmp_path, seeded_doc(expected="golden.jsonl"))
    golden = tmp_path / "golden.jsonl"
    assert run_scenario(path, trace_out=golden) == EXIT_OK
    golden.write_bytes(golden.read_bytes().replace(b"\n", b"\r\n"))
    assert run_scenario(path) == EXIT_GOLDEN_MISMATCH
    assert capsys.readouterr().err.splitlines() == [
        "trace mismatch at line 1",
        r"""expected: '{"format_version":1}\r\n'""",
        r"""actual:   '{"format_version":1}\n'""",
    ]


def test_missing_golden_is_a_mismatch(tmp_path, capsys):
    path = write_scenario(tmp_path, seeded_doc(expected="never_written.jsonl"))
    assert run_scenario(path) == EXIT_GOLDEN_MISMATCH
    assert "golden trace file not found" in capsys.readouterr().err


def test_seed_override_skips_the_golden_comparison(tmp_path):
    doc = seeded_doc(expected="golden.jsonl")
    path = write_scenario(tmp_path, doc)
    assert run_scenario(path, trace_out=tmp_path / "golden.jsonl") == EXIT_OK
    # A reseeded run produces a different trace, which is exactly why the
    # golden only binds the scenario's own seed.
    assert run_scenario(path, seed=11, trace_out=tmp_path / "other.jsonl") == EXIT_OK
    assert (tmp_path / "other.jsonl").read_text() != (tmp_path / "golden.jsonl").read_text()


def test_a_null_seed_runs_as_seed_0_and_checks_its_golden(tmp_path):
    # A null seed validates as an absent one; it used to crash the run.
    path = write_scenario(tmp_path, seeded_doc(seed=None, expected="golden.jsonl"))
    assert validate_scenario(path) == []
    golden = tmp_path / "golden.jsonl"
    assert run_scenario(path, trace_out=golden) == EXIT_OK
    assert run_scenario(path) == EXIT_OK
    seed_0 = build_platform(seeded_doc(seed=0))
    seed_0.run(None)
    assert golden.read_text() == render_trace(seed_0)
    # --seed 0 is the scenario's own seed, so the golden is still compared.
    golden.write_text(golden.read_text().replace('"tick":0', '"tick":9', 1))
    assert run_scenario(path, seed=0) == EXIT_GOLDEN_MISMATCH
    assert run_scenario(path, seed=3) == EXIT_OK


def test_same_seed_runs_are_byte_identical(tmp_path):
    path = write_scenario(tmp_path, seeded_doc())
    assert run_scenario(path, trace_out=tmp_path / "a.jsonl") == EXIT_OK
    assert run_scenario(path, trace_out=tmp_path / "b.jsonl") == EXIT_OK
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def restless_doc():
    """Never quiesces: an observer polls forever on a never-true trigger."""
    return base_doc(
        config={"max_ticks": 50},
        agents=[
            {
                "location": "home",
                "behavior": {
                    "kind": "observer",
                    "period": 1,
                    "trigger": {"name": "never", "params": None},
                    "handler": {"name": "noop", "params": None},
                    "mode": "cyclic",
                },
            }
        ],
    )


def test_tick_budget_exits_2_but_still_writes_the_trace(tmp_path, capsys):
    path = write_scenario(tmp_path, restless_doc())
    out = tmp_path / "trace.jsonl"
    assert run_scenario(path, trace_out=out) == EXIT_TICK_BUDGET
    assert "tick budget exceeded" in capsys.readouterr().err
    assert out.exists()


def test_bounded_runs_never_hit_the_budget(tmp_path):
    path = write_scenario(tmp_path, restless_doc())
    assert run_scenario(path, until=20) == EXIT_OK


def test_shipped_scenario_matches_its_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the courier writes its report store here
    assert validate_scenario(SHIPPED) == []
    assert run_scenario(SHIPPED) == EXIT_OK
    report = ag.load_reports(tmp_path / "push_exam_reports.jsonl")[0]
    assert report.delivered and not report.missed


def test_shipped_scenario_reseeded_still_passes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_scenario(SHIPPED, seed=123) == EXIT_OK


# ---------------------------------------------------------------------------
# The command line itself
# ---------------------------------------------------------------------------


def cli(*args, cwd, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    # The child runs in cwd, so import agentry from where this process did.
    package_root = str(Path(ag.__file__).parents[1])
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, full_env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "agentry.cli", *args],
        cwd=str(cwd),
        env=full_env,
        capture_output=True,
        text=True,
    )


def test_cli_validate(tmp_path):
    good = write_scenario(tmp_path, base_doc(), "good.json")
    bad = write_scenario(tmp_path, base_doc(locations=[]), "bad.json")
    ok = cli("validate", str(good), cwd=tmp_path)
    assert (ok.returncode, ok.stdout.strip()) == (EXIT_OK, "ok")
    broken = cli("validate", str(bad), cwd=tmp_path)
    assert broken.returncode == EXIT_INVALID
    assert "/locations" in broken.stderr


@pytest.mark.parametrize("weight", ["1/0", [1], None])
def test_cli_validate_reports_a_bad_weight_in_the_test_repository(tmp_path, weight):
    # "1/0" printed a ZeroDivisionError traceback and exited 1.
    question = {"id": "q", "kind": "true_false", "key": True, "weight": weight}
    (tmp_path / "bank.json").write_text(json.dumps({"tests": [{"id": "t", "questions": [question]}]}))
    res = cli("validate", str(write_scenario(tmp_path, base_doc(tests="bank.json"))), cwd=tmp_path)
    assert res.returncode == EXIT_INVALID, res.stderr
    assert res.stderr.startswith("/tests: ")
    assert f"test 't': question 'q' weight must be an int, a finite float, or a decimal or 'a/b' literal, got {weight!r}" in res.stderr


def test_cli_reports_a_scenario_path_that_names_a_directory(tmp_path):
    folder = tmp_path / "not_a_file"
    folder.mkdir()
    for command in ("validate", "run"):
        res = cli(command, str(folder), cwd=tmp_path)
        assert res.returncode == EXIT_INVALID, res.stderr
        assert res.stderr.startswith("/: cannot read scenario file: ")
        assert "Traceback" not in res.stderr


def test_cli_reports_a_document_nested_too_deep_to_parse(tmp_path):
    # json's decoder raised RecursionError: a traceback and exit 1, the
    # code for a golden mismatch. 100,000 levels are past the parser's limit
    # on every supported interpreter; 3.13's C scanner parses 2,000.
    depth = 100_000
    tree = '{"kind": "sequential", "children": [' * depth + json.dumps(task_spec("noop")) + "]}" * depth
    path = tmp_path / "deep.json"
    path.write_text(f'{{"format_version": 1, "locations": ["home"], "agents": [{{"location": "home", "behavior": {tree}}}]}}')
    for command in ("validate", "run"):
        res = cli(command, str(path), cwd=tmp_path)
        assert res.returncode == EXIT_INVALID, res.stderr
        assert res.stderr == "/: not valid JSON: nested deeper than the parser's recursion limit\n"


def test_a_tree_too_deep_to_bind_is_reported_at_its_behavior(tmp_path):
    # The marker walk raised RecursionError out of validate_scenario_doc.
    tree = task_spec("noop")
    for _ in range(5_000):
        tree = {"kind": "sequential", "children": [tree]}
    doc = base_doc(agents=[{"location": "home", "behavior": tree}])
    assert validate_scenario_doc(doc, tmp_path) == ["/agents/0/behaviors/0: nested deeper than the recursion limit"]


def test_cli_reports_a_document_nested_2000_deep(tmp_path):
    # 3.13's C scanner parses it, and its tree then raised RecursionError out
    # of validation: a traceback and exit 1. The earlier interpreters' parsers
    # stop first.
    depth = 2_000
    tree = '{"kind": "sequential", "children": [' * depth + json.dumps(task_spec("noop")) + "]}" * depth
    path = tmp_path / "deep.json"
    path.write_text(f'{{"format_version": 1, "locations": ["home"], "agents": [{{"location": "home", "behavior": {tree}}}]}}')
    res = cli("validate", str(path), cwd=tmp_path)
    assert res.returncode == EXIT_INVALID, res.stderr
    assert res.stderr in (
        "/: not valid JSON: nested deeper than the parser's recursion limit\n",
        "/agents/0/behaviors/0: nested deeper than the recursion limit\n",
    )


def test_cli_run_with_flags(tmp_path):
    path = write_scenario(tmp_path, seeded_doc())
    done = cli("run", str(path), "--trace", "out.jsonl", "--seed", "3", cwd=tmp_path)
    assert done.returncode == EXIT_OK, done.stderr
    assert (tmp_path / "out.jsonl").exists()


def test_cli_run_reports_a_negative_seed(tmp_path):
    path = write_scenario(tmp_path, seeded_doc())
    res = cli("run", str(path), "--seed", "-1", cwd=tmp_path)
    assert res.returncode == EXIT_INVALID
    assert res.stderr == "--seed must be an integer of at least 0, got -1\n"


def test_cli_rejects_a_malformed_until(tmp_path):
    path = write_scenario(tmp_path, base_doc())
    res = cli("run", str(path), "--until", "soon", cwd=tmp_path)
    assert res.returncode == EXIT_INVALID
    assert "--until" in res.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["run", "x.json", "--seed", "abc"], "agentry run: error: argument --seed: invalid int value: 'abc'\n"),
        (["run", "x.json", "--bogus"], "agentry: error: unrecognized arguments: --bogus\n"),
        ([], "agentry: error: the following arguments are required: command\n"),
    ],
    ids=["seed_abc", "bogus_option", "no_command"],
)
def test_cli_a_usage_error_is_invalid_input(tmp_path, args, message):
    # Each exited 2, the tick-budget code, under the earlier command line.
    res = cli(*args, cwd=tmp_path)
    assert (res.returncode, res.stdout, res.stderr) == (EXIT_INVALID, "", message)


def test_cli_help_exits_ok(tmp_path):
    res = cli("run", "--help", cwd=tmp_path)
    assert res.returncode == EXIT_OK, res.stderr
    assert "--until" in res.stdout


def test_the_package_needs_only_the_standard_library():
    # -S leaves site-packages off the path, so only the stdlib and src import.
    root = Path(__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    res = subprocess.run([sys.executable, "-S", "-c", "import agentry, agentry.cli"], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "dependencies = []" in (root / "pyproject.toml").read_text().splitlines()


def test_cli_rejects_a_negative_until(tmp_path):
    path = write_scenario(tmp_path, base_doc())
    res = cli("run", str(path), "--until", "-3", "--trace", "out.jsonl", cwd=tmp_path)
    assert res.returncode == EXIT_INVALID
    assert "--until" in res.stderr
    assert not (tmp_path / "out.jsonl").exists()


def test_cli_bounds_the_run_with_until(tmp_path):
    path = write_scenario(tmp_path, restless_doc())
    res = cli("run", str(path), "--until", "20", cwd=tmp_path)
    assert res.returncode == EXIT_OK, res.stderr


def test_cli_trace_dir_env_var_names_the_trace(tmp_path):
    path = write_scenario(tmp_path, base_doc(), "myworld.json")
    res = cli(
        "run", str(path), cwd=tmp_path, env={TRACE_DIR_ENV: str(tmp_path / "traces")}
    )
    assert res.returncode == EXIT_OK, res.stderr
    assert (tmp_path / "traces" / "myworld.trace.jsonl").exists()


def test_cli_explicit_trace_beats_the_env_var(tmp_path):
    path = write_scenario(tmp_path, base_doc(), "myworld.json")
    res = cli(
        "run",
        str(path),
        "--trace",
        "picked.jsonl",
        cwd=tmp_path,
        env={TRACE_DIR_ENV: str(tmp_path / "traces")},
    )
    assert res.returncode == EXIT_OK, res.stderr
    assert (tmp_path / "picked.jsonl").exists()
    assert not (tmp_path / "traces").exists()
