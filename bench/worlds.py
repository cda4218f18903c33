"""Seeded scenario documents for the benchmark workloads, and the invariants
each finished run must satisfy.

A generator returns a plain scenario document (the JSON format that
``agentry.scenario`` validates and builds); the program under test sees
nothing else. The seed picks the random details (client start order, routes,
windows, latency draws) while the world's size and load stay fixed, so run
time and virtual ticks are comparable across seeds.

Why each workload exists:

* ``fanin`` - one Server and N=800 Clients whose first requests are
  staggered, one per tick. Every request spawns a worker that terminates at
  once, so the agents ever spawned reach ~2N while few are alive: the
  simulator's per-tick scans over every agent dominate. No migration, so
  shell serialization is bypassed. N=800 rather than the ROADMAP's 1600
  keeps enough runs in one measuring window to give a steady median;
  sweep.py measures 400, 800 and 1600.
* ``fleet`` - Itinerary agents migrating between locations under tight
  arrival windows: thousands of real shell serialize/deserialize round
  trips and Fraction estimator updates, a fixed agent count, no messages.
* ``fsm_mesh`` - a ring of long-lived agents, each running a Sequential of
  a Parallel(any) of an Fsm passing a token to its successor and a cyclic,
  never-firing Observer, then a Task. Every agent stays alive, blocked on
  an AnyOf of a message and a timer; zero-latency deliveries hit the
  end-of-tick sweep. It is the events-heavy case and uses the scheduler the
  opposite way from ``fanin``.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from typing import Callable, Iterable

NOOP = {"name": "noop", "params": None}

# Fixed sizes. The seed never changes them.
FANIN_CLIENTS = 800
FLEET_AGENTS = 300
FLEET_OBJECTIVES = 8
FLEET_LOCATIONS = 12
FLEET_LEG = 10  # ticks between consecutive window openings
FLEET_WINDOW = 3  # window width past its opening, inclusive
MESH_AGENTS = 200
MESH_STATES = 30
MESH_OBSERVER_PERIOD = 7

CLIENT_FAILED = "client_failed"
TOKEN = "e"
TOKEN_LABEL = '"e"'  # the send action JSON-encodes its payload


def _doc(seed: int, locations: list[str], agents: list[dict], config: dict) -> dict:
    return {
        "format_version": 1,
        "seed": seed,
        "config": config,
        "locations": locations,
        "agents": agents,
    }


def fanin(seed: int, clients: int = FANIN_CLIENTS) -> dict:
    rng = random.Random(seed)
    # Clients start one per tick, in shuffled order: the load is the same for
    # every seed and matches what the server serves, one request a tick.
    delays = list(range(1, clients + 1))
    rng.shuffle(delays)
    agents: list[dict] = [{"location": "hub", "behavior": {"kind": "server", "handler": None}}]
    for period in delays:
        delay = {
            "kind": "observer",
            "period": period,
            "trigger": {"name": "always", "params": None},
            "handler": NOOP,
            "mode": "one_shot",
        }
        client = {
            "kind": "client",
            "server": {"$agent": 0},
            "request": {"task": NOOP, "result_slot": ""},
            "ack_timeout": 400,
            "result_timeout": 400,
            "on_result": None,
            "on_failure": {"name": "trace", "params": {CLIENT_FAILED: True}},
        }
        agents.append(
            {"location": f"site{rng.randrange(4)}", "behavior": {"kind": "sequential", "children": [delay, client]}}
        )
    config = {"message_latency": {"kind": "uniform", "lo": 1, "hi": 20}, "max_ticks": clients + 2000}
    return _doc(seed, ["hub", "site0", "site1", "site2", "site3"], agents, config)


def fleet(seed: int) -> dict:
    rng = random.Random(seed)
    names = [f"loc{i}" for i in range(FLEET_LOCATIONS)]
    agents = []
    for i in range(FLEET_AGENTS):
        here = rng.choice(names)
        start = here
        objectives = []
        for k in range(FLEET_OBJECTIVES):
            here = rng.choice([n for n in names if n != here])
            earliest = (k + 1) * FLEET_LEG + rng.randint(-2, 2)
            objectives.append(
                {"location": {"$location": here}, "earliest": earliest, "latest": earliest + FLEET_WINDOW, "tasks": []}
            )
        itinerary = {
            "kind": "itinerary",
            "config": {
                "route": {"objectives": objectives, "base_time": 0},
                "listeners": [],
                "missed_behavior": {"kind": "task", "action": NOOP},
            },
            "planned": i % 2 == 1,
            "estimator": {"alpha": [1, 2], "default": [0, 1], "links": []},
        }
        agents.append({"location": start, "behavior": itinerary})
    config = {
        "migration_latency": {"kind": "uniform", "lo": 2, "hi": 12},
        "max_ticks": FLEET_LEG * FLEET_OBJECTIVES * 10,
    }
    return _doc(seed, names, agents, config)


def fsm_mesh(seed: int) -> dict:
    rng = random.Random(seed)
    names = [f"node{i}" for i in range(8)]
    agents = []
    for i in range(MESH_AGENTS):
        send = {
            "name": "send",
            "params": {"to": {"$agent": (i + 1) % MESH_AGENTS}, "type": "FSM_EVENT", "payload": TOKEN},
        }
        last = f"s{MESH_STATES - 1}"
        states = {f"s{k}": send for k in range(MESH_STATES - 1)}
        states[last] = NOOP
        fsm = {
            "kind": "fsm",
            "definition": {
                "states": states,
                "transitions": {f"s{k}": {TOKEN_LABEL: f"s{k + 1}"} for k in range(MESH_STATES - 1)},
                "start": "s0",
                "terminals": [last],
            },
            "current": "s0",
        }
        observer = {
            "kind": "observer",
            "period": MESH_OBSERVER_PERIOD + rng.randrange(3),
            "trigger": {"name": "never", "params": None},
            "handler": NOOP,
            "mode": "cyclic",
        }
        tree = {
            "kind": "sequential",
            "children": [
                {"kind": "parallel", "completion": "any", "children": [fsm, observer]},
                {"kind": "task", "action": NOOP},
            ],
        }
        agents.append({"location": rng.choice(names), "behavior": tree})
    config = {"message_latency": {"kind": "uniform", "lo": 0, "hi": 4}, "max_ticks": MESH_STATES * 100}
    return _doc(seed, names, agents, config)


# ---------------------------------------------------------------------------
# Invariants. Each takes the scenario document and the run's events as the
# dicts of TraceEvent.to_jsonable(), reads the events once, in order, and
# returns a list of violations.
# ---------------------------------------------------------------------------


def check_fanin(doc: dict, events: Iterable[dict]) -> list[str]:
    clients = set(range(2, len(doc["agents"]) + 1))  # agent 1 is the server
    requests: dict[str, int] = {}
    replies: Counter = Counter()
    terminated: set[int] = set()
    problems = []
    for e in events:
        d = e["detail"]
        if e["kind"] == "send" and d["type"] == "REQUEST":
            requests[d["conversation"]] = e["agent"]
        elif e["kind"] == "deliver" and e["agent"] in clients:
            if d.get("failed"):
                problems.append(f"failed delivery to client {e['agent']}")
            else:
                replies[(d["conversation"], d["type"])] += 1
        elif e["kind"] == "custom" and CLIENT_FAILED in d:
            problems.append(f"client {e['agent']} timed out")
        elif e["kind"] == "terminate":
            terminated.add(e["agent"])
    if set(requests.values()) != clients:
        problems.append(f"{len(clients - set(requests.values()))} clients sent no request")
    for conv in requests:
        for kind in ("ACK", "RESULT"):
            if replies[(conv, kind)] != 1:
                problems.append(f"conversation {conv} got {replies[(conv, kind)]} {kind}")
    if not clients <= terminated:
        problems.append("a client did not terminate")
    return problems


def check_fleet(doc: dict, events: Iterable[dict]) -> list[str]:
    seen: dict[int, list[int]] = defaultdict(list)
    classes: Counter = Counter()
    terminated: set[int] = set()
    for e in events:
        if e["kind"] == "objective_reached":
            seen[e["agent"]].append(e["detail"]["objective"])
            classes[e["detail"]["class"]] += 1
        elif e["kind"] == "objective_missed":
            seen[e["agent"]].append(e["detail"]["objective"])
            classes["late"] += 1
        elif e["kind"] == "terminate":
            terminated.add(e["agent"])
    problems = []
    expected = list(range(FLEET_OBJECTIVES))
    for agent in range(1, len(doc["agents"]) + 1):
        if seen[agent] != expected:
            problems.append(f"itinerary {agent} classified objectives {seen[agent]}")
    for cls in ("early", "on_time", "late"):
        if not classes[cls]:
            problems.append(f"no {cls} arrival")
    if len(terminated) != len(doc["agents"]):
        problems.append("an itinerary agent did not terminate")
    return problems


def check_fsm_mesh(doc: dict, events: Iterable[dict]) -> list[str]:
    last = f"s{MESH_STATES - 1}"
    reached: set[int] = set()
    terminated: set[int] = set()
    undefined = False
    for e in events:
        if e["kind"] == "custom":
            if e["detail"].get("fsm_state") == last:
                reached.add(e["agent"])
            undefined = undefined or "error" in e["detail"]
        elif e["kind"] == "terminate":
            terminated.add(e["agent"])
    problems = []
    agents = set(range(1, len(doc["agents"]) + 1))
    if reached != agents:
        problems.append(f"{len(agents - reached)} FSMs never reached {last}")
    if undefined:
        problems.append("an FSM saw an undefined transition")
    if terminated != agents:
        problems.append("a mesh agent did not terminate")
    return problems


WORKLOADS: dict[str, tuple[Callable[[int], dict], Callable[[dict, Iterable[dict]], list[str]]]] = {
    "fanin": (fanin, check_fanin),
    "fleet": (fleet, check_fleet),
    "fsm_mesh": (fsm_mesh, check_fsm_mesh),
}
