"""Tests of the benchmark itself: its hooks fire where the layer model says,
its runs repeat exactly, and its checks catch a broken trace.

    python3 -m pytest bench/test_bench.py

The fanin world is shrunk to 100 clients here; its hooks and invariants do
not depend on size.
"""

from __future__ import annotations

import json

import pytest

import run
import worlds

run.use_repo_src()

import agentry.model as model  # noqa: E402
import probes  # noqa: E402

SEED = 1
WORLDS = {
    "fanin": worlds.fanin(SEED, clients=100),
    "fleet": worlds.fleet(SEED),
    "fsm_mesh": worlds.fsm_mesh(SEED),
}


def layer_metrics(doc: dict) -> tuple[dict, run.Run, run.Run]:
    counter = probes.Probe(probes.COUNT_WAKES)
    counted = run.execute(doc, counter)
    probe = probes.Probe(probes.TIMED)
    timed = run.execute(doc, probe)
    return probe.metrics(counter.wake_checks, timed.event_ticks, timed.trace_bytes, timed.events), counted, timed


def events_of(result: run.Run) -> list[dict]:
    return list(run.trace_events(result.text))


@pytest.mark.parametrize("name", WORLDS)
def test_hooks_fire_where_predicted(name):
    metrics, _, _ = layer_metrics(WORLDS[name])
    assert metrics["simulator.wake_checks"] > 0
    assert metrics["behavior.steps"] > 0
    assert metrics["trace.events"] > 0
    if name == "fleet":
        assert metrics["model.deserialize_calls"] == metrics["model.serialize_calls"] > 0
        assert metrics["model.blob_bytes"] > 0
    else:
        assert metrics["model.deserialize_calls"] == metrics["model.serialize_calls"] == 0
    kinds = {kind for kind in probes.KINDS if metrics[f"behavior.{kind}.steps"]}
    assert kinds == {
        "fanin": {"server", "client", "task", "sequential", "observer"},
        "fleet": {"itinerary", "task"},
        "fsm_mesh": {"sequential", "parallel", "fsm", "observer", "task"},
    }[name]


@pytest.mark.parametrize("name", WORLDS)
def test_runs_repeat_exactly_traced_or_not(name):
    doc = WORLDS[name]
    first, second = run.execute(doc, None), run.execute(doc, None)
    metrics, counted, timed = layer_metrics(doc)
    again, _, _ = layer_metrics(doc)
    for other in (second, counted, timed):
        assert (other.digest, other.events, other.ticks) == (first.digest, first.events, first.ticks)
    units = run.per_layer_units()
    assert run.layer_counts(metrics, units) == run.layer_counts(again, units)


@pytest.mark.parametrize("name", WORLDS)
def test_invariants_hold(name):
    doc = WORLDS[name]
    check = worlds.WORKLOADS[name][1]
    result = run.execute(doc, None)
    events = events_of(result)
    assert events == [json.loads(line) for line in result.text.splitlines()[1:]]
    assert check(doc, events) == []


def _drop_first(events: list[dict], predicate) -> list[dict]:
    index = next(i for i, e in enumerate(events) if predicate(e))
    return events[:index] + events[index + 1 :]


@pytest.mark.parametrize(
    "name, predicate",
    [
        ("fanin", lambda e: e["kind"] == "deliver" and e["detail"]["type"] == "RESULT"),
        ("fleet", lambda e: e["kind"] == "objective_reached"),
        ("fsm_mesh", lambda e: e["detail"].get("fsm_state") == f"s{worlds.MESH_STATES - 1}"),
    ],
)
def test_invariants_catch_a_missing_event(name, predicate):
    doc = WORLDS[name]
    check = worlds.WORKLOADS[name][1]
    assert check(doc, _drop_first(events_of(run.execute(doc, None)), predicate))


def test_verifier_rejects_a_changed_trace():
    doc = WORLDS["fleet"]
    verify = run.Verifier(doc, worlds.check_fleet, expected=None)
    assert verify(run.execute(doc, None)) == []
    other = run.execute(worlds.fleet(SEED + 1), None)
    assert verify(other)
    recorded = run.Verifier(doc, worlds.check_fleet, expected="0" * 64)
    assert recorded(run.execute(doc, None))


def test_missing_hook_is_absent_not_zero(monkeypatch):
    monkeypatch.setitem(probes.HOOKS, "take", (model.AgentContext, "no_such_method"))
    metrics, _, _ = layer_metrics(WORLDS["fsm_mesh"])
    assert metrics["behavior.idle_steps"] is None
    assert metrics["behavior.idle_step_ratio"] is None
    assert metrics["behavior.steps"] > 0


def test_probe_restores_every_hook():
    originals = {group: getattr(owner, attr) for group, (owner, attr) in probes.HOOKS.items()}
    for groups in (probes.COUNT_WAKES, probes.TIMED):
        run.execute(WORLDS["fanin"], probes.Probe(groups))
    assert {group: getattr(owner, attr) for group, (owner, attr) in probes.HOOKS.items()} == originals


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(worlds.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
