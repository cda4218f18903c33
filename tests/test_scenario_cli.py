"""Scenario files, the world builder, golden traces, and the CLI."""

import importlib.util
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
from agentry.model import AgentId
from agentry import scenario
from agentry.scenario import (
    build_platform,
    effective_seed,
    first_divergence,
    render_trace,
    validate_scenario,
    validate_scenario_doc,
)
from agentry.trace import EventKind

from conftest import events_of

SHIPPED = Path(__file__).parent.parent / "scenarios" / "push_exam.json"
BENCH = Path(__file__).parent.parent / "bench"


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
            "max_ticks": 0,
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
    [{**CLIENT, "server": {"$state": "server"}}, {**OBSERVER, "start": 4}, FSM],
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
    assert validate_scenario_doc(doc) == ["/config/migration_latency: latency must be non-negative"]


LINKS_MESSAGE = "links must be a list of [source name, destination name, ticks] entries"

# Each spec used to build through a lossy int()/str() conversion.
LOSSY_LATENCIES = {
    "fixed_float": ({"kind": "fixed", "ticks": 2.9}, "ticks must be an integer number of ticks, not 2.9"),
    "fixed_bool": ({"kind": "fixed", "ticks": True}, "ticks must be an integer number of ticks, not True"),
    "fixed_str": ({"kind": "fixed", "ticks": "5"}, "ticks must be an integer number of ticks, not '5'"),
    "uniform_float": ({"kind": "uniform", "lo": 0.5, "hi": 3}, "lo must be an integer number of ticks, not 0.5"),
    "uniform_str": ({"kind": "uniform", "lo": 0, "hi": "3"}, "hi must be an integer number of ticks, not '3'"),
    "per_link_default_bool": ({"kind": "per_link", "default": False}, "default must be an integer number of ticks, not False"),
    "per_link_str_entry": ({"kind": "per_link", "links": ["ab1"]}, LINKS_MESSAGE),
    "per_link_dict": ({"kind": "per_link", "links": {"xy3": 1}}, LINKS_MESSAGE),
    "per_link_float_ticks": ({"kind": "per_link", "links": [["a", "b", 1.5]]}, LINKS_MESSAGE),
    "per_link_bool_ticks": ({"kind": "per_link", "links": [["a", "b", True]]}, LINKS_MESSAGE),
    "per_link_int_name": ({"kind": "per_link", "links": [[1, "b", 1]]}, LINKS_MESSAGE),
    "per_link_short_entry": ({"kind": "per_link", "links": [["a", "b"]]}, LINKS_MESSAGE),
}


@pytest.mark.parametrize("case", sorted(LOSSY_LATENCIES))
def test_a_latency_spec_that_is_not_int_ticks_is_a_config_problem(case):
    spec, message = LOSSY_LATENCIES[case]
    doc = base_doc(config={"message_latency": spec})
    assert validate_scenario_doc(doc) == [f"/config/message_latency: {message}"]
    with pytest.raises(TypeError):
        build_platform(doc)


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


def _load_bench_worlds():
    # bench/worlds.py generates the benchmark's scenario documents; it is read
    # here, never changed, and loaded under its own name so nothing else in
    # bench/ lands on sys.path.
    spec = importlib.util.spec_from_file_location("bench_worlds", BENCH / "worlds.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    doc = _load_bench_worlds().WORKLOADS[workload][0](0)
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


def test_cli_reports_a_scenario_path_that_names_a_directory(tmp_path):
    folder = tmp_path / "not_a_file"
    folder.mkdir()
    for command in ("validate", "run"):
        res = cli(command, str(folder), cwd=tmp_path)
        assert res.returncode == EXIT_INVALID, res.stderr
        assert res.stderr.startswith("/: cannot read scenario file: ")
        assert "Traceback" not in res.stderr


def test_cli_run_with_flags(tmp_path):
    path = write_scenario(tmp_path, seeded_doc())
    done = cli("run", str(path), "--trace", "out.jsonl", "--seed", "3", cwd=tmp_path)
    assert done.returncode == EXIT_OK, done.stderr
    assert (tmp_path / "out.jsonl").exists()


def test_cli_rejects_a_malformed_until(tmp_path):
    path = write_scenario(tmp_path, base_doc())
    res = cli("run", str(path), "--until", "soon", cwd=tmp_path)
    assert res.returncode == EXIT_INVALID
    assert "--until" in res.stderr


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
