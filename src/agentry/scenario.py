"""Scenario files: a declarative JSON description of a simulated world.

A scenario lists locations, agents with their behavior trees, an optional
test repository, optional latency configuration, and an optional golden
trace to compare runs against. Behavior trees use the behavior
serialization format plus three late-bound markers the loader substitutes:

* ``{"$location": "name"}`` - the location object created for that name
* ``{"$agent": i}`` - the id value assigned to the i-th agent entry
* ``{"$tests": true}`` - the scenario's test repository path (``tests``,
  which a scenario using this marker must give)

One reading of a document reports every problem at its JSON-pointer path
and builds the config, the locations' names and every behavior tree, with
markers bound to the ids a fresh SimPlatform assigns: typed fields bind their
own, and only action ``params`` are walked and copied. A tree that read
refuses is walked whole, so a bad marker is reported at its own path and its
tree is not built (a marker under a key no decoder reads is left unread).
``validate_scenario_doc`` returns the problems; ``build_platform`` raises
them as a ScenarioError, or spawns the trees that reading built. Relative paths
(``tests``, ``expected``) resolve against the scenario file's own directory
so scenario bundles stay portable.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .errors import MalformedRepository, ScenarioError
from .model import _MARKERS, AgentId, Behavior, LocationId, _is_int, behavior_from_dict, behavior_kinds, location_to_jsonable, read_int
from .repository import load_tests
from .simulator import Fixed, LatencyModel, PerLink, SimConfig, SimPlatform, UniformRange

SCENARIO_FORMAT_VERSION = 1

_LATENCY_MODELS = (Fixed, UniformRange, PerLink)

# The nodes the binder walks into; every other value is a leaf, kept as is.
_NODES = (dict, list)


def _suggest(name: str, known: list[str]) -> str:
    close = difflib.get_close_matches(name, known, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _pointer(path: Any) -> str:
    return path if isinstance(path, str) else f"{_pointer(path[0])}/{path[1]}"


@dataclass
class _Binder:
    """One document's markers and whether ``$tests`` was used; typed fields
    bind their own through ``bound``. ``bind`` walks action params, or a whole
    tree on the error path, and reports an undeclared location, an out-of-range
    agent or a ``$tests`` argument other than ``true`` at the marker's path. It
    copies each dict and list whole, then calls itself only for the dicts and
    lists inside, with a ``(parent, key)`` path joined only to report a problem."""

    locations: dict[str, LocationId]
    agents: list[AgentId]
    tests: str
    problems: list[str]
    uses_tests: bool = False

    def bound(self, key: str, marker: dict) -> Any:
        """A ``$location`` marker's LocationId or an ``$agent`` marker's id value; None if bad."""
        arg = marker.get(key)
        if key == "$location":
            return self.locations.get(arg) if isinstance(arg, str) else None
        return self.agents[arg].value if _is_int(arg) and 0 <= arg < len(self.agents) else None

    def bind(self, value: Any, path: Any) -> Any:
        if not isinstance(value, dict):
            if isinstance(value, list):
                copy = list(value)
                for i, v in enumerate(copy):
                    if isinstance(v, _NODES):
                        copy[i] = self.bind(v, (path, i))
                return copy
            return value
        if len(value) == 1:
            ((key, arg),) = value.items()
            if key == "$location" or key == "$agent":
                bound = self.bound(key, value)
                if bound is not None:
                    return location_to_jsonable(bound) if key == "$location" else bound
                if key == "$location":
                    self.problems.append(f"{_pointer(path)}: unknown location {arg!r}{_suggest(str(arg), list(self.locations))}")
                else:
                    self.problems.append(f"{_pointer(path)}: $agent index {arg!r} out of range (have {len(self.agents)} agents)")
                return value
            if key == "$tests":
                if arg is not True:
                    self.problems.append(f"{_pointer(path)}: $tests marker takes true, got {arg!r}")
                    return value
                self.uses_tests = True
                return self.tests
        copy = dict(value)
        for k, v in copy.items():
            if isinstance(v, _NODES):
                copy[k] = self.bind(v, (path, k))
        return copy


# ---------------------------------------------------------------------------
# Reading a document
# ---------------------------------------------------------------------------


def _resolve(path: str, base_dir: Optional[Path]) -> Path:
    # Joining an absolute path onto base_dir yields that path unchanged.
    return Path(path) if base_dir is None else base_dir / path


def _check_links(links: list, path: str, names: list[str], problems: list[str]) -> None:
    """A per_link entry naming an undeclared location would never match, and
    one repeating an earlier pair would silently replace it."""
    first: dict[tuple[str, str], int] = {}
    for i, (src, dst, _) in enumerate(links):
        unknown = [name for name in (src, dst) if names and name not in names]
        for name in unknown:
            problems.append(f"{path}/links/{i}: unknown location {name!r}{_suggest(name, names)}")
        if not unknown and (src, dst) in first:
            problems.append(f"{path}/links/{i}: duplicate link {src!r} -> {dst!r} (first at {path}/links/{first[src, dst]})")
        first.setdefault((src, dst), i)


def _built(path: str, problems: list[str], build: Callable[..., Any], *args: Any) -> Any:
    """``build(*args)``, or None with what it raised reported at ``path``; a
    missing required field, the KeyError of indexing an object for it, reads
    ``missing field '<key>'``, and a RecursionError says the value nests too
    deep."""
    try:
        return build(*args)
    except KeyError as exc:
        problems.append(f"{path}: missing field {exc}")
    except RecursionError:
        problems.append(f"{path}: nested deeper than the recursion limit")
    except Exception as exc:
        problems.append(f"{path}: {exc}")
    return None


def _latency(spec: Any, path: str, names: list[str], problems: list[str]) -> Optional[LatencyModel]:
    """The model whose tag the spec's kind names, read by its decoder."""
    if not isinstance(spec, dict):
        problems.append(f"{path}: latency must be an object")
        return None
    kind = spec.get("kind")
    for cls in _LATENCY_MODELS:
        if kind == cls._tag:
            model = _built(path, problems, cls.from_jsonable, spec)
            if isinstance(model, PerLink):
                _check_links(spec.get("links", []), path, names, problems)
            return model
    problems.append(f"{path}/kind: unknown latency kind {kind!r}{_suggest(str(kind), [cls._tag for cls in _LATENCY_MODELS])}")
    return None


def _behavior(spec: Any, path: str, binder: _Binder, known: dict[str, Any], problems: list[str]) -> Optional[Behavior]:
    """Build one behavior tree, its decoders binding its markers; one they refuse (a bad marker, any
    raise, a hand-written decoder) is bound whole, then decoded, so its problems keep their paths."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(spec, dict):
        problems.append(f"{path}: behavior spec must be an object")
    elif not isinstance(kind, str) or kind not in known:
        problems.append(f"{path}/kind: unknown behavior kind {kind!r}{_suggest(str(kind), known)}")
    else:
        n_problems, uses_tests = len(problems), binder.uses_tests
        _MARKERS[0] = binder
        try:
            behavior = _built(path, problems, behavior_from_dict, spec)
        finally:
            _MARKERS[0] = None
        if len(problems) == n_problems:
            return behavior
        del problems[n_problems:]
        binder.uses_tests = uses_tests
        bound = _built(path, problems, binder.bind, spec, path)
        if len(problems) == n_problems:
            return _built(path, problems, behavior_from_dict, bound)
    return None


def _location_names(locations: Any, problems: list[str]) -> list[str]:
    names: list[str] = []
    if not isinstance(locations, list) or not locations:
        problems.append("/locations: must be a non-empty list of names")
        return names
    for i, name in enumerate(locations):
        if not isinstance(name, str) or not name:
            problems.append(f"/locations/{i}: location name must be a non-empty string")
        elif name in names:
            problems.append(f"/locations/{i}: duplicate location name {name!r}")
        else:
            names.append(name)
    return names


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


def _read(doc: Any, base_dir: Optional[Path]) -> tuple[list[str], SimConfig, list[str], list[tuple[str, list[Behavior]]]]:
    """The one reading of a scenario document: every problem, in document
    order, and the world it describes as a config, the location names and,
    per agent entry, its location name and built trees. Once the problem
    list is empty the rest is what a build spawns."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["/: scenario must be a JSON object"], SimConfig(), [], []
    version = doc.get("format_version")
    if version is None:
        problems.append("/format_version: missing")
    elif version != SCENARIO_FORMAT_VERSION:
        problems.append(f"/format_version: unsupported version {version!r} (expected {SCENARIO_FORMAT_VERSION})")

    known_keys = {"format_version", "seed", "config", "locations", "agents", "tests", "expected"}
    for key in doc:
        if key not in known_keys:
            problems.append(f"/{key}: unknown field{_suggest(key, sorted(known_keys))}")

    # Read as SimConfig reads them; a value that fails is left out of the config.
    seed = doc.get("seed")
    if seed is not None:
        seed = _built("/seed", problems, read_int, seed, "seed", 0)

    # Config checks link names against the locations, whose problems follow.
    location_problems: list[str] = []
    names = _location_names(doc.get("locations"), location_problems)
    config = doc.get("config", {})
    if not isinstance(config, dict):
        problems.append("/config: must be an object")
        config = {}
    for key in config:
        if key not in ("message_latency", "migration_latency", "max_ticks"):
            problems.append(f"/config/{key}: unknown field{_suggest(key, ['message_latency', 'migration_latency', 'max_ticks'])}")
    latencies = {f: _latency(config[f], f"/config/{f}", names, problems) for f in ("message_latency", "migration_latency") if f in config}
    max_ticks = config.get("max_ticks")
    if max_ticks is not None:
        max_ticks = _built("/config/max_ticks", problems, read_int, max_ticks, "max_ticks", 0)

    problems += location_problems

    agents = doc.get("agents", [])
    if not isinstance(agents, list):
        problems.append("/agents: must be a list")
        agents = []
    tests = doc.get("tests")
    repo = _resolve(tests, base_dir) if isinstance(tests, str) and tests else None
    # The ids a fresh SimPlatform assigns: both count from 1.
    ids = {name: LocationId(i + 1, name) for i, name in enumerate(names)}
    binder = _Binder(ids, [AgentId(i + 1) for i in range(len(agents))], "tests" if repo is None else str(repo), problems)
    known = behavior_kinds()
    entries = []
    for i, entry in enumerate(agents):
        path = f"/agents/{i}"
        if not isinstance(entry, dict):
            problems.append(f"{path}: agent entry must be an object")
            continue
        where = entry.get("location")
        if not isinstance(where, str) or (names and where not in names):
            problems.append(f"{path}/location: unknown location {where!r}{_suggest(str(where), names)}")
        specs = _agent_behavior_specs(entry, path, problems)
        entries.append((where, [_behavior(spec, f"{path}/behaviors/{j}", binder, known, problems) for j, spec in enumerate(specs)]))

    if tests is not None:
        if repo is None:
            problems.append(f"/tests: must be a path string, got {tests!r}")
        elif not repo.exists():
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
    settings = {"seed": seed, "max_ticks": max_ticks, **latencies}
    return problems, SimConfig(**{k: v for k, v in settings.items() if v is not None}), names, entries


def validate_scenario_doc(doc: Any, base_dir: Optional[Path] = None) -> list[str]:
    """Collect every problem in a parsed scenario document, each at its
    JSON-pointer path. An empty list means the scenario can be built."""
    return _read(doc, base_dir)[0]


# ---------------------------------------------------------------------------
# Files and worlds
# ---------------------------------------------------------------------------


def validate_scenario(path: Union[str, Path]) -> list[str]:
    """Validate a scenario file; parse errors come back as diagnostics."""
    try:
        load_scenario(path)
    except ScenarioError as exc:
        return exc.problems
    return []


def _parse_file(path: Union[str, Path]) -> Any:
    """Read and parse a scenario file once; raise ScenarioError for a file
    that cannot be read, is not JSON or nests too deep to parse."""
    file = Path(path)
    try:
        return json.loads(file.read_text())
    except FileNotFoundError:
        problem = f"/: scenario file not found: {file}"
    except OSError as exc:
        problem = f"/: cannot read scenario file: {exc}"
    except ValueError as exc:
        problem = f"/: not valid JSON: {exc}"
    except RecursionError:
        problem = "/: not valid JSON: nested deeper than the parser's recursion limit"
    raise ScenarioError(f"invalid scenario {path}", [problem])


def load_scenario(path: Union[str, Path]) -> dict:
    """Read, parse and validate a scenario file once; raise ScenarioError
    listing every problem, an unreadable file and bad JSON included."""
    doc = _parse_file(path)
    problems = validate_scenario_doc(doc, Path(path).parent)
    if problems:
        raise ScenarioError(f"invalid scenario {path}", problems)
    return doc


def effective_seed(doc: dict, override: Optional[int] = None) -> int:
    """Seed precedence: explicit override, then scenario, then 0. A null
    seed counts as absent, as validation treats it."""
    if override is not None:
        return override
    seed = doc.get("seed")
    return 0 if seed is None else seed


def build_platform(
    doc: dict,
    *,
    seed: Optional[int] = None,
    base_dir: Optional[Path] = None,
) -> SimPlatform:
    """Build the world a scenario document describes, or raise ScenarioError
    listing every problem validation reports. It spawns the trees that one
    reading built; their markers hold the ids this fresh platform assigns in
    entry order, so ``$agent`` markers may point forward."""
    problems, config, names, entries = _read(doc, base_dir)
    if problems:
        raise ScenarioError("invalid scenario", problems)
    platform = SimPlatform(config if seed is None else replace(config, seed=seed))
    locations = {name: platform.create_location(name) for name in names}
    for where, behaviors in entries:
        platform.spawn_agent(locations[where], behaviors)
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
