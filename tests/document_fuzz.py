"""The ``document_fuzz`` generator and the marker sweep: a scenario reads as
validation says it does, and its trees bind their markers as the whole-tree
walk binds them.

Each seed takes a small bench world, a world resumed mid-run or the shipped
scenario and replaces one to three of its values with JSON junk or a good or
bad marker, deletes them or wraps them in a list, an object or a marker. The
check builds it: a clean document must build and run, and with both
latencies fixed it must run the same on the mock; a broken one must raise
exactly the problems validation lists.

The sweep puts each marker kind, in its good form and in every
``BAD_MARKERS`` form, into every slot of the trees of those documents, typed
fields and action params alike, once per shape of agent entry. Each tree
must read as the reading before
typed fields bound their own markers reads it (``_bound_then_decoded``): the
same problems, the same tree and the same use of ``$tests``.

The module imports only the standard library and agentry, so any
interpreter can run it:

    PYTHONPATH=src python -S tests/document_fuzz.py

checks every seed and the sweep, and exits 1 if either fails.
``tests/test_scenario_cli.py`` runs the tier-1 seeds and the sweep, and
``tests/test_differential.py`` registers both ranges.
"""

import copy
import functools
import importlib.util
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import agentry as ag
from agentry import scenario
from agentry.model import AgentId, LocationId, behavior_from_dict, behavior_kinds
from agentry.scenario import build_platform, validate_scenario_doc

SHIPPED = Path(__file__).parent.parent / "scenarios" / "push_exam.json"
BENCH = Path(__file__).parent.parent / "bench"
KINDS = ["fanin", "fleet", "fsm_mesh", "mid_run", "shipped"]
TIER1_SEEDS = range(200)
CI_SEEDS = range(200, 2200)


@functools.lru_cache(maxsize=None)
def load_bench_worlds():
    # bench/worlds.py generates the benchmark's scenario documents; it is read
    # here, never changed, and loaded under its own name so nothing else in
    # bench/ lands on sys.path.
    spec = importlib.util.spec_from_file_location("bench_worlds", BENCH / "worlds.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _small(doc, agents):
    """Keep a bench document's first agent entries; $agent markers wrap round."""

    def rewire(value):
        if isinstance(value, dict):
            if set(value) == {"$agent"}:
                return {"$agent": value["$agent"] % agents}
            return {k: rewire(v) for k, v in value.items()}
        return [rewire(v) for v in value] if isinstance(value, list) else value

    return rewire({**doc, "agents": doc["agents"][:agents]})


@functools.lru_cache(maxsize=None)
def _document_base(kind, seed):
    """A base document's JSON text: a small bench world, a world resumed
    mid-run or the shipped scenario."""
    worlds = load_bench_worlds()
    if kind == "fanin":
        return json.dumps(worlds.fanin(seed, clients=3))
    if kind in ("fleet", "fsm_mesh"):
        return json.dumps(_small(worlds.WORKLOADS[kind][0](seed), 3))
    if kind == "mid_run":
        return json.dumps(_mid_run_document(seed))
    return SHIPPED.read_text()


def _mid_run_document(seed):
    """A small world resumed mid-run: an Fsm that has entered its state and
    holds a pending label, and a Listener its next state calls on."""
    fsm = {
        "kind": "fsm",
        "definition": {
            "states": {
                "s0": {"name": "noop"},
                "s1": {"name": "send", "params": {"to": {"$agent": 1}, "type": "A"}},
                "s2": {"name": "noop"},
            },
            # The send action JSON-encodes its payload, so the reply's label is '"go"'.
            "transitions": {"s0": {"go": "s1"}, "s1": {'"go"': "s2"}},
            "start": "s0",
            "terminals": ["s2"],
        },
        "current": "s0",
        "entered": True,
        "pending_label": "go",
    }
    reply = {"name": "send", "params": {"to": {"$agent": 0}, "type": "FSM_EVENT", "payload": "go"}}
    listener = {"kind": "listener", "filter": "A", "callbacks": [reply], "mode": "one_shot"}
    config = {"message_latency": {"kind": "fixed", "ticks": 1}, "max_ticks": 50}
    agents = [{"location": "home", "behavior": fsm}, {"location": "home", "behavior": listener}]
    return {"format_version": 1, "seed": seed, "config": config, "locations": ["home"], "agents": agents}


# JSON values that are wrong almost anywhere, or right by accident.
JUNK = [None, True, False, 0, 1, -1, 3, 2.5, "", "x", "task", "home", [], [1], {}, {"kind": "task"}, {"name": "noop"}]
BAD_MARKERS = [{"$location": "nowhere"}, {"$agent": 99}, {"$agent": -1}, {"$agent": True}, {"$tests": 1}]


def _slots(value):
    """Every (container, key) pair in a document, parents before children."""
    keys = value.keys() if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else ()
    for key in list(keys):
        yield value, key
        yield from _slots(value[key])


def _mutated_document(seed):
    """A seeded scenario document: a small bench world, a world resumed mid-run
    or the shipped scenario, with one to three values replaced by JSON junk
    or a good or bad marker, deleted, or wrapped in a list, an object or a
    marker."""
    rng = random.Random(seed)
    doc = json.loads(_document_base(rng.choice(KINDS), rng.randrange(8)))
    good = [{"$location": rng.choice(doc["locations"])}, {"$agent": rng.randrange(len(doc["agents"]))}, {"$tests": True}]
    for _ in range(rng.randint(1, 3)):
        container, key = rng.choice(list(_slots(doc)))
        op = rng.random()
        if op < 0.15:
            del container[key]
        elif op < 0.3:
            marker = rng.choice(["$location", "$agent", "$tests"])
            container[key] = rng.choice([[container[key]], {"value": container[key]}, {marker: container[key]}])
        else:
            value = rng.choice(JUNK + good + BAD_MARKERS if op < 0.8 else good + BAD_MARKERS)
            container[key] = json.loads(json.dumps(value))  # a copy no other slot shares
    return doc


def _check_document(doc):
    """Validation and the build read a document the same way: a clean one
    builds and runs, raising at most TickBudgetExceeded; otherwise the build
    raises ScenarioError with exactly the problems validation lists. Returns
    what disagrees."""
    problems = validate_scenario_doc(doc)
    try:
        platform = build_platform(doc)
    except ag.ScenarioError as exc:
        if not problems:
            return [f"a clean document did not build: {exc}"]
        return [] if exc.problems == problems else [f"the build raised {exc.problems}, validation listed {problems}"]
    if problems:
        return [f"a document with problems built: {problems}"]
    try:
        platform.run(None)
    except ag.TickBudgetExceeded:
        pass
    return []


def _run_to_the_end(platform):
    try:
        platform.run(None)
        raised = None
    except Exception as exc:
        raised = type(exc)
    return platform.trace().to_jsonl(), platform.now(), raised


def _document_holds(seed):
    """The document oracle, then, for a clean document, the mock: with both
    latencies fixed at ticks drawn from the seed, the mock spawns the trees
    the scenario's reading built and must give the sim's trace, final clock
    and exception from ``run(None)``."""
    doc = _mutated_document(seed)
    problems = _check_document(doc)
    if problems or validate_scenario_doc(doc):
        return problems
    rng = random.Random(f"fixed latencies {seed}")
    message, migration = rng.randint(0, 3), rng.randint(0, 3)
    config = {
        **doc.get("config", {}),
        "message_latency": {"kind": "fixed", "ticks": message},
        "migration_latency": {"kind": "fixed", "ticks": migration},
    }
    fixed = {**doc, "config": config}
    sim = build_platform(fixed)
    _, settings, names, entries = scenario._read(fixed, None)
    mock = ag.MockPlatform(message_delay=message, migration_delay=migration, max_ticks=settings.max_ticks)
    locations = {name: mock.create_location(name) for name in names}
    for where, behaviors in entries:
        mock.spawn_agent(locations[where], behaviors)
    on_sim, on_mock = _run_to_the_end(sim), _run_to_the_end(mock)
    return [] if on_sim == on_mock else [f"fixed latencies {message}, {migration}: sim and mock disagree"]


def document_holds(seed):
    """The differential check ``(seed) -> problems`` for fuzzed documents. It
    runs in a fresh working directory: a push-exam courier appends to a
    report store there."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            return _document_holds(seed)
        finally:
            os.chdir(home)


# ---------------------------------------------------------------------------
# The marker sweep
# ---------------------------------------------------------------------------


def _bound_then_decoded(spec, path, binder, known, problems):
    """The reading of one tree before typed fields bound their own markers,
    written out as the oracle: the whole tree bound, then decoded."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(spec, dict) or not isinstance(kind, str) or kind not in known:
        return scenario._behavior(spec, path, binder, known, problems)  # reported before any marker is read
    n_problems = len(problems)
    bound = scenario._built(path, problems, binder.bind, spec, path)
    if len(problems) == n_problems:
        return scenario._built(path, problems, behavior_from_dict, bound)
    return None


def _tree_read(read, spec, doc):
    """What ``read`` makes of one tree of ``doc``: its problems, the tree it
    builds as a dict and whether a ``$tests`` marker was bound."""
    problems = []
    locations = {name: LocationId(i + 1, name) for i, name in enumerate(doc["locations"])}
    binder = scenario._Binder(locations, [AgentId(i + 1) for i in range(len(doc["agents"]))], "tests", problems)
    tree = read(spec, "/agents/0/behaviors/0", binder, behavior_kinds(), problems)
    return problems, None if tree is None else tree.to_dict(), binder.uses_tests


def marker_sweep(kind):
    """The sweep's check on one base document: each agent entry whose trees
    hold a sequence of kinds no earlier entry holds, with each marker in each
    slot of its trees in turn, reads as ``_bound_then_decoded`` reads it and
    stays as written. Returns what disagrees."""
    doc = json.loads(_document_base(kind, 0))
    markers = [{"$location": doc["locations"][-1]}, {"$agent": len(doc["agents"]) - 1}, {"$tests": True}, *BAD_MARKERS]
    problems, swept = [], set()
    for i, entry in enumerate(doc["agents"]):
        shape = tuple(c[k] for c, k in _slots(entry) if k == "kind" and isinstance(c[k], str))
        if shape in swept:
            continue
        swept.add(shape)
        for spec in entry.get("behaviors", [entry.get("behavior")]):
            for container, key in list(_slots(spec)):
                was = container[key]
                for marker in markers:
                    container[key] = copy.deepcopy(marker)
                    written = json.dumps(spec)
                    fast, oracle = _tree_read(scenario._behavior, spec, doc), _tree_read(_bound_then_decoded, spec, doc)
                    if fast != oracle or json.dumps(spec) != written:
                        problems.append(f"{kind} agent {i}, {marker} at key {key!r}: read {fast}, the oracle {oracle}")
                container[key] = was
    return problems


def main(seeds=range(TIER1_SEEDS.start, CI_SEEDS.stop)):
    """Check ``seeds`` and the sweep; print what fails, with the first
    problems, and return 1 if anything failed."""
    failures = {}
    for seed in seeds:
        try:
            problems = document_holds(seed)
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures[seed] = problems
    span = f"seeds {seeds.start}-{seeds.stop - 1}"
    if failures:
        first = next(iter(failures))
        print(f"document_fuzz: {len(failures)} of {len(seeds)} {span} fail: {list(failures)}")
        print(f"  seed {first}: {'; '.join(failures[first])}")
    else:
        print(f"document_fuzz: {span} hold")
    swept = {kind: marker_sweep(kind) for kind in KINDS}
    for kind, problems in swept.items():
        print(f"marker_sweep {kind}: {len(problems)} disagree" + (f"; first: {problems[0]}" if problems else ""))
    return 1 if failures or any(swept.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
