"""Scenario files: a declarative JSON description of a simulated world.

A scenario lists locations, agents with their behavior trees, an optional
test repository, optional latency configuration, and an optional golden
trace to compare runs against. Behavior trees use the behavior
serialization format plus three late-bound markers the loader substitutes:

* ``{"$location": "name"}`` - the location object created for that name
* ``{"$agent": i}`` - the id value assigned to the i-th agent entry
* ``{"$tests": true}`` - the scenario's test repository path (``tests``,
  which a scenario using this marker must give)

Validation reports a bad marker at its own path and does not build its tree.
Relative paths (``tests``, ``expected``) resolve against the scenario
file's own directory so scenario bundles stay portable.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from .errors import MalformedRepository, ScenarioError
from .model import AgentId, Behavior, LocationId, Ticks, behavior_from_dict, behavior_kinds, location_to_jsonable
from .repository import load_tests
from .simulator import Fixed, LatencyModel, PerLink, SimConfig, SimPlatform, UniformRange

SCENARIO_FORMAT_VERSION = 1

_LATENCY_KINDS = ("fixed", "uniform", "per_link")

# The nodes the binder walks into; every other value is a leaf, kept as is.
_NODES = (dict, list)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _suggest(name: str, known: list[str]) -> str:
    close = difflib.get_close_matches(name, known, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


@dataclass
class _Binder:
    """Replaces the markers in one document's behavior trees in one walk and
    records whether ``$tests`` was used. With a problem list (validation) it
    reports an undeclared location, an out-of-range agent or a ``$tests``
    argument other than ``true`` at the marker's JSON-pointer path; the
    build passes no list and an empty path. Each dict and list is copied
    whole, then the walk calls itself only for the dicts and lists inside,
    and formats a child's path only while validating."""

    locations: dict[str, LocationId]
    agents: list[AgentId]
    tests: str
    problems: Optional[list[str]] = None
    uses_tests: bool = False

    def bind(self, value: Any, path: str = "") -> Any:
        if not isinstance(value, dict):
            if isinstance(value, list):
                copy = list(value)
                for i, v in enumerate(copy):
                    if isinstance(v, _NODES):
                        copy[i] = self.bind(v, path and f"{path}/{i}")
                return copy
            return value
        if len(value) == 1:
            ((key, arg),) = value.items()
            if key == "$location":
                if self.problems is None or (isinstance(arg, str) and arg in self.locations):
                    return location_to_jsonable(self.locations[arg])
                self.problems.append(f"{path}: unknown location {arg!r}{_suggest(str(arg), list(self.locations))}")
                return value
            if key == "$agent":
                n = len(self.agents)
                if self.problems is None or (_is_int(arg) and 0 <= arg < n):
                    return self.agents[arg].value
                self.problems.append(f"{path}: $agent index {arg!r} out of range (have {n} agents)")
                return value
            if key == "$tests":
                if self.problems is not None and arg is not True:
                    self.problems.append(f"{path}: $tests marker takes true, got {arg!r}")
                    return value
                self.uses_tests = True
                return self.tests
        copy = dict(value)
        for k, v in copy.items():
            if isinstance(v, _NODES):
                copy[k] = self.bind(v, path and f"{path}/{k}")
        return copy


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _validate_latency(spec: Any, path: str, problems: list[str]) -> None:
    if not isinstance(spec, dict):
        problems.append(f"{path}: latency must be an object")
        return
    kind = spec.get("kind")
    if kind not in _LATENCY_KINDS:
        problems.append(f"{path}/kind: unknown latency kind {kind!r}{_suggest(str(kind), list(_LATENCY_KINDS))}")
        return
    try:
        _parse_latency(spec)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"{path}: {exc}")


def _validate_behavior(spec: Any, path: str, binder: _Binder, known: dict[str, Any], problems: list[str]) -> None:
    """Check one behavior tree by building it with the document's binder for
    its markers; a tree with a bad marker is reported there, not built."""
    if not isinstance(spec, dict):
        problems.append(f"{path}: behavior spec must be an object")
        return
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in known:
        problems.append(f"{path}/kind: unknown behavior kind {kind!r}{_suggest(str(kind), known)}")
        return
    n_problems = len(problems)
    bound = binder.bind(spec, path)
    if len(problems) > n_problems:
        return
    try:
        behavior_from_dict(bound)
    except Exception as exc:
        problems.append(f"{path}: {exc}")


def _agent_behavior_specs(entry: dict, path: str, problems: list[str]) -> list[Any]:
    """An agent entry carries either one tree ("behavior") or a list."""
    if "behavior" in entry and "behaviors" in entry:
        problems.append(f"{path}: give either 'behavior' or 'behaviors', not both")
        return []
    if "behavior" in entry:
        return [entry["behavior"]]
    specs = entry.get("behaviors")
    if specs is None:
        problems.append(f"{path}: missing 'behavior' (or 'behaviors')")
        return []
    if not isinstance(specs, list) or not specs:
        problems.append(f"{path}/behaviors: must be a non-empty list")
        return []
    return specs


def validate_scenario_doc(doc: Any, base_dir: Optional[Path] = None) -> list[str]:
    """Collect every problem in a parsed scenario document.

    Paths in diagnostics are JSON-pointer style. An empty list means the
    scenario can be built.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["/: scenario must be a JSON object"]
    version = doc.get("format_version")
    if version is None:
        problems.append("/format_version: missing")
    elif version != SCENARIO_FORMAT_VERSION:
        problems.append(f"/format_version: unsupported version {version!r} (expected {SCENARIO_FORMAT_VERSION})")

    known_keys = {"format_version", "seed", "config", "locations", "agents", "tests", "expected"}
    for key in doc:
        if key not in known_keys:
            problems.append(f"/{key}: unknown field{_suggest(key, sorted(known_keys))}")

    seed = doc.get("seed")
    if seed is not None and (not _is_int(seed) or seed < 0):
        problems.append(f"/seed: must be a non-negative integer, got {seed!r}")

    config = doc.get("config", {})
    if not isinstance(config, dict):
        problems.append("/config: must be an object")
        config = {}
    for key in config:
        if key not in ("message_latency", "migration_latency", "max_ticks"):
            problems.append(f"/config/{key}: unknown field{_suggest(key, ['message_latency', 'migration_latency', 'max_ticks'])}")
    for field in ("message_latency", "migration_latency"):
        if field in config:
            _validate_latency(config[field], f"/config/{field}", problems)
    max_ticks = config.get("max_ticks")
    if max_ticks is not None and (not _is_int(max_ticks) or max_ticks < 1):
        problems.append(f"/config/max_ticks: must be a positive integer, got {max_ticks!r}")

    locations = doc.get("locations")
    names: list[str] = []
    if not isinstance(locations, list) or not locations:
        problems.append("/locations: must be a non-empty list of names")
    else:
        for i, name in enumerate(locations):
            if not isinstance(name, str) or not name:
                problems.append(f"/locations/{i}: location name must be a non-empty string")
            elif name in names:
                problems.append(f"/locations/{i}: duplicate location name {name!r}")
            else:
                names.append(name)

    agents = doc.get("agents", [])
    if not isinstance(agents, list):
        problems.append("/agents: must be a list")
        agents = []
    # Stand-ins are the ids a fresh SimPlatform assigns: both count from 1.
    stand_ins = {name: LocationId(i + 1, name) for i, name in enumerate(names)}
    binder = _Binder(stand_ins, [AgentId(i + 1) for i in range(len(agents))], "tests", problems)
    known = behavior_kinds()
    for i, entry in enumerate(agents):
        path = f"/agents/{i}"
        if not isinstance(entry, dict):
            problems.append(f"{path}: agent entry must be an object")
            continue
        where = entry.get("location")
        if not isinstance(where, str) or (names and where not in names):
            problems.append(f"{path}/location: unknown location {where!r}{_suggest(str(where), names)}")
        for j, spec in enumerate(_agent_behavior_specs(entry, path, problems)):
            _validate_behavior(spec, f"{path}/behaviors/{j}", binder, known, problems)

    tests = doc.get("tests")
    if tests is not None:
        if not isinstance(tests, str) or not tests:
            problems.append(f"/tests: must be a path string, got {tests!r}")
        else:
            repo = _resolve(tests, base_dir)
            if not repo.exists():
                problems.append(f"/tests: test repository not found: {repo}")
            else:
                try:
                    load_tests(repo)
                except MalformedRepository as exc:
                    problems.append(f"/tests: {exc}")
    elif binder.uses_tests:
        problems.append("/tests: required, a behavior uses the $tests marker")

    expected = doc.get("expected")
    if expected is not None and (not isinstance(expected, str) or not expected):
        problems.append(f"/expected: must be a path string, got {expected!r}")
    return problems


def validate_scenario(path: Union[str, Path]) -> list[str]:
    """Validate a scenario file; parse errors come back as diagnostics."""
    try:
        load_scenario(path)
    except ScenarioError as exc:
        return exc.problems
    return []


def load_scenario(path: Union[str, Path]) -> dict:
    """Read, parse and validate a scenario file once; raise ScenarioError
    listing every problem, an unreadable file and bad JSON included."""
    file = Path(path)
    try:
        doc = json.loads(file.read_text())
    except FileNotFoundError:
        problems = [f"/: scenario file not found: {file}"]
    except OSError as exc:
        problems = [f"/: cannot read scenario file: {exc}"]
    except ValueError as exc:
        problems = [f"/: not valid JSON: {exc}"]
    else:
        problems = validate_scenario_doc(doc, file.parent)
    if problems:
        raise ScenarioError(f"invalid scenario {path}", problems)
    return doc


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def _resolve(path: str, base_dir: Optional[Path]) -> Path:
    # Joining an absolute path onto base_dir yields that path unchanged.
    return Path(path) if base_dir is None else base_dir / path


def _ticks(value: Any, name: str) -> Ticks:
    if not _is_int(value):
        raise TypeError(f"{name} must be an integer number of ticks, not {value!r}")
    return value


def _is_link(link: Any) -> bool:
    return isinstance(link, list) and len(link) == 3 and isinstance(link[0], str) and isinstance(link[1], str) and _is_int(link[2])


def _parse_latency(spec: dict) -> LatencyModel:
    kind = spec["kind"]
    if kind == "fixed":
        return Fixed(_ticks(spec["ticks"], "ticks"))
    if kind == "uniform":
        return UniformRange(_ticks(spec["lo"], "lo"), _ticks(spec["hi"], "hi"))
    links = spec.get("links", [])
    if not isinstance(links, list) or not all(_is_link(link) for link in links):
        raise TypeError("links must be a list of [source name, destination name, ticks] entries")
    return PerLink({(src, dst): ticks for src, dst, ticks in links}, default=_ticks(spec.get("default", 1), "default"))


def effective_seed(doc: dict, override: Optional[int] = None) -> int:
    """Seed precedence: explicit override, then scenario, then 0."""
    if override is not None:
        return override
    return int(doc.get("seed", 0))


def build_platform(
    doc: dict,
    *,
    seed: Optional[int] = None,
    base_dir: Optional[Path] = None,
) -> SimPlatform:
    """Build the world a validated scenario document describes.

    Agent ids are reserved for all entries before any behavior is built, so
    ``$agent`` markers may point forward.
    """
    config_doc = doc.get("config", {})
    kwargs: dict[str, Any] = {"seed": effective_seed(doc, seed)}
    if "message_latency" in config_doc:
        kwargs["message_latency"] = _parse_latency(config_doc["message_latency"])
    if "migration_latency" in config_doc:
        kwargs["migration_latency"] = _parse_latency(config_doc["migration_latency"])
    if "max_ticks" in config_doc:
        kwargs["max_ticks"] = int(config_doc["max_ticks"])
    platform = SimPlatform(SimConfig(**kwargs))

    locations = {name: platform.create_location(name) for name in doc["locations"]}
    entries = doc.get("agents", [])
    ids = [platform.reserve_agent_id() for _ in entries]
    tests = str(_resolve(doc["tests"], base_dir)) if doc.get("tests") else ""
    binder = _Binder(locations, ids, tests)
    for entry, agent_id in zip(entries, ids):
        specs = [entry["behavior"]] if "behavior" in entry else entry["behaviors"]
        behaviors: list[Behavior] = [behavior_from_dict(binder.bind(spec)) for spec in specs]
        platform.spawn_agent(locations[entry["location"]], behaviors, agent_id=agent_id)
    return platform


# ---------------------------------------------------------------------------
# Golden traces
# ---------------------------------------------------------------------------


def render_trace(platform: SimPlatform) -> str:
    """The full on-disk trace text: versioned header plus one event per line."""
    header = json.dumps({"format_version": 1}, separators=(",", ":"))
    return header + "\n" + platform.trace().to_jsonl()


def _lines(text: str) -> list[str]:
    # Split after "\n" only, keeping it, so a "\r" or a missing final
    # newline stays part of the line it belongs to.
    lines = [line + "\n" for line in text.split("\n")]
    last = lines.pop()[:-1]
    return lines + [last] if last else lines


def _shown(line: Optional[str], exact: bool) -> str:
    if line is None:
        return "(end of trace)"
    return repr(line) if exact else line.rstrip("\n")


def first_divergence(actual: str, golden: str) -> Optional[str]:
    """None when identical; otherwise a short first-divergence report.

    Lines show without their newline, unless that would hide the difference
    (a carriage return, a missing final newline, an empty line): then both
    show as Python string literals.
    """
    if actual == golden:
        return None
    actual_lines = _lines(actual)
    golden_lines = _lines(golden)
    i = 0
    while i < min(len(actual_lines), len(golden_lines)) and actual_lines[i] == golden_lines[i]:
        i += 1
    want = golden_lines[i] if i < len(golden_lines) else None
    got = actual_lines[i] if i < len(actual_lines) else None
    plain = {_shown(want, False), _shown(got, False)}
    exact = len(plain) == 1 or "" in plain or "\r" in (want or "") + (got or "")
    return f"trace mismatch at line {i + 1}\nexpected: {_shown(want, exact)}\nactual:   {_shown(got, exact)}"
