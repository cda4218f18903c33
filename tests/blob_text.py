"""The ``blob_text`` generator: ``serialize_shell`` writes the bytes the
shell's dict form encodes to.

``serialize_shell`` writes a blob as text from the records' columns, and a
route without stop tasks keeps its text once written. ``reference`` here is
the dict form: every behavior's ``to_dict`` and every record's
``to_jsonable`` through ``canonical_json``, built inside its guard, so a tree
too deep or circular to write raises the ValueError a state does. Each seed
builds shells of every record behavior kind, nested, beside a behavior with
a hand-written codec, a subclass of a record that is not one, a record
subclass of a record and a record with its own ``to_dict``. Their strings
need escaping, their ints run to 2**100 in size, and an itinerary's route
may be shared or hold stop tasks. Junk that encodes (a bool, a float, an
``int`` or ``str`` subclass, None) is stored into the behaviors' plain
fields after construction. Some shells then get one fault that raises: a
set or a key JSON cannot write in the state, a circular state or tree, an
int too long to write, or junk in a nested or list field. Each shell is
written three times: once, again, and after its stop tasks' params and its
state changed. Both paths must give the same bytes, or raise the same error
type with the same text.

A shell gets at most one raising fault. The dict form builds every dict
before it encodes any, so of two faults it reports one raised while
building; the text path reports the first in key order. Both refuse the
shell.

The module imports only the standard library and agentry, so any
interpreter can run it:

    PYTHONPATH=src python -S tests/blob_text.py

checks every seed and exits 1 if one fails. ``tests/test_model.py`` runs
the tier-1 seeds, and ``tests/test_differential.py`` registers both ranges.
"""

import random
import sys
from collections import deque
from dataclasses import fields
from fractions import Fraction
from typing import Any

import agentry as ag
from agentry.model import (
    _RECORDS,
    AgentId,
    AgentShell,
    Behavior,
    LocationId,
    Message,
    canonical_json,
    column,
    read_int,
    record,
    serialize_shell,
)

TIER1_SEEDS = range(200)
CI_SEEDS = range(200, 2200)
STRINGS = ['"', "\\", "".join(map(chr, range(0x20))), "\x7f", "é☃", "\U0001f600", "\ud800", "a\udfffb", "{t0}", "'", "</script>", ""]


class Text(str):
    pass


class Count(int):
    pass


# Values that encode, stored where a plain value is kept.
JUNK = [True, False, 1.5, -0.0, float("nan"), float("inf"), Count(7), Text("t"), None, [1, "x"], {"k": None}]


class Hand(Behavior):
    """A behavior with a hand-written codec."""

    kind = "blob_text_hand"

    def __init__(self, note: Any) -> None:
        super().__init__()
        self.note = note

    def _to_dict_body(self) -> dict:
        return {"note": self.note}

    @classmethod
    def _from_dict_body(cls, d: dict) -> "Hand":
        return cls(d["note"])


class Stamped(ag.Task):
    """A subclass of a record that is not a record, with a to_dict of its own."""

    def to_dict(self) -> dict:
        return {**super().to_dict(), "stamp": [1, "s"]}


@record(eq=False, repr=False)
class Counted(ag.Task):
    """A record subclass of a record behavior, with a column of its own."""

    kind = "blob_text_counted"
    count: int = column(read_int, "counted count", default=0)


@record(eq=False, repr=False)
class OwnDict(Behavior):
    """A record behavior whose own to_dict writes its blob."""

    kind = "blob_text_own_dict"
    note: Any = column(default=None)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "own": self.note, "done": self._finished}


def reference(shell: AgentShell) -> bytes:
    """The blob as the shell's dict form gives it."""
    try:
        return canonical_json(
            {
                "id": shell.id.value,
                "home": LocationId.to_jsonable(shell.home),
                "current": LocationId.to_jsonable(shell.current),
                "behaviors": [b.to_dict() for b in shell.behaviors],
                "state": shell.state,
                "inbox": [Message.to_jsonable(m) for m in shell.inbox],
            }
        )
    except RecursionError:
        raise ValueError("canonical JSON: the value is circular or nested too deep to encode") from None


def _string(rng):
    if rng.random() < 0.5:
        return rng.choice(STRINGS)
    ranges = [(0x20, 0x7F), (0, 0x20), (0x80, 0xD800), (0xD800, 0xE000), (0xE000, 0x10000), (0x10000, 0x110000)]
    return "".join(chr(rng.randrange(*rng.choice(ranges))) for _ in range(rng.randint(0, 5)))


def _name(rng):
    return _string(rng) or "n"


def _int(rng, lo=-(2**100)):
    return rng.choice([0, 1, rng.randint(0, 10**6), rng.randint(lo, 2**100), 2**63])


def _json(rng, depth=2):
    pick = rng.randrange(8 if depth else 5)
    if pick == 0:
        return rng.choice([None, True, False, 0.1, -0.0, 1e300])
    if pick in (1, 2):
        return _int(rng)
    if pick in (3, 4):
        return _string(rng)
    if pick == 5:
        return [_json(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    if pick == 6:
        return tuple(_json(rng, depth - 1) for _ in range(rng.randint(0, 2)))
    return {_string(rng): _json(rng, depth - 1) for _ in range(rng.randint(0, 3))}


def _action(rng):
    return ag.ActionDescriptor(_name(rng), rng.choice([None, _json(rng), {_string(rng): _json(rng)}]))


def _location(rng):
    return LocationId(_int(rng), _string(rng))


def _route(rng):
    stops = []
    for _ in range(rng.randint(1, 3)):
        earliest = rng.randint(0, 9)
        tasks = tuple(_action(rng) for _ in range(rng.choice([0, 0, 1, 2])))
        stops.append(ag.Objective(_location(rng), earliest, rng.choice([None, earliest + rng.randint(0, 5)]), tasks))
    return ag.Route(tuple(stops), rng.choice([None, 0, _int(rng, 0)]))


def _estimator(rng):
    links = {(_string(rng), _string(rng)): Fraction(rng.randint(0, 99), rng.randint(1, 9)) for _ in range(rng.randint(0, 3))}
    denominator = rng.randint(1, 9)
    return ag.DelayEstimator(Fraction(rng.randint(0, denominator), denominator), Fraction(rng.randint(0, 50), rng.randint(1, 7)), links)


def _itinerary(rng, depth, routes):
    route = rng.choice(routes) if routes and rng.random() < 0.5 else _route(rng)
    routes.append(route)  # later itineraries may share it
    missed = _behavior(rng, depth + 1, routes) if rng.random() < 0.4 else None
    config = ag.ItineraryConfig(route, tuple(_action(rng) for _ in range(rng.randint(0, 2))), missed)
    phase = rng.choice(["start", "depart", "traveling", "window_wait", "missed", "halted"])
    clone = _behavior(rng, depth + 1, routes) if phase == "missed" else None
    return ag.Itinerary(
        config, rng.random() < 0.5, rng.choice([None, _estimator(rng)]),
        _base=None if phase == "start" else _int(rng), _index=rng.randrange(len(route.objectives)), _phase=phase,
        _arrival=rng.choice([None, _int(rng)]), _arrival_class=rng.choice(["", "early", "on_time"]), _missed_clone=clone,
    )


def _fsm(rng):
    names = list({_name(rng) for _ in range(rng.randint(1, 4))})
    transitions = {rng.choice(names): {_name(rng): rng.choice(names)} for _ in range(rng.randint(0, 3))}
    definition = ag.FsmDefinition({name: _action(rng) for name in names}, transitions, names[0], frozenset(rng.sample(names, rng.randint(0, len(names)))))
    entered = rng.random() < 0.5
    return ag.Fsm(definition, _current=rng.choice(names), _entered=entered, _pending_label=rng.choice([None, _name(rng)]) if entered else None)


def _behavior(rng, depth, routes):
    """A behavior of any kind, composites and itineraries nesting more below ``depth`` 3."""
    kinds = ["task", "observer", "listener", "client", "server", "fsm", "hand", "stamped", "counted", "own_dict"]
    kind = rng.choice(kinds + (["sequential", "parallel", "itinerary"] * 2 if depth < 3 else []))
    if kind == "sequential":
        children = [_behavior(rng, depth + 1, routes) for _ in range(rng.randint(0, 3))]
        b = ag.Sequential(children, _index=rng.randint(0, len(children)), _current_started=rng.random() < 0.5)
    elif kind == "parallel":
        b = ag.Parallel([_behavior(rng, depth + 1, routes) for _ in range(rng.randint(0, 3))], rng.choice([ag.ALL, ag.ANY]))
    elif kind == "itinerary":
        b = _itinerary(rng, depth, routes)
    elif kind == "observer":
        b = ag.Observer(rng.randint(1, 9), _action(rng), _action(rng), rng.choice([ag.ONE_SHOT, ag.CYCLIC]), _start=rng.choice([None, _int(rng)]))
    elif kind == "listener":
        b = ag.Listener(_name(rng), [_action(rng) for _ in range(rng.randint(1, 2))], rng.choice([ag.ONE_SHOT, ag.CYCLIC]))
    elif kind == "client":
        b = ag.Client(
            rng.choice([_int(rng), {"$state": _string(rng)}]), ag.RequestEnvelope(_action(rng), _string(rng)), rng.randint(1, 99),
            rng.randint(1, 99), rng.choice([None, _action(rng)]), rng.choice([None, _action(rng)]),
            _phase=rng.choice(["init", "await_ack", "await_result"]), _conversation=_string(rng), _deadline=_int(rng),
        )
    elif kind == "server":
        b = ag.Server(rng.choice([None, _action(rng)]))
    elif kind == "fsm":
        b = _fsm(rng)
    elif kind == "hand":
        b = Hand(_json(rng))
    elif kind == "stamped":
        b = Stamped(_action(rng))
    elif kind == "counted":
        b = Counted(_action(rng), _int(rng, 0))
    elif kind == "own_dict":
        b = OwnDict(_json(rng))
    else:
        b = ag.Task(_action(rng))
    b._finished = rng.random() < 0.3
    return b


def _nested(b):
    """``b`` and every behavior nested in it."""
    yield b
    for child in [*getattr(b, "children", ()), *(getattr(b, "config", None) and [b.config.missed_behavior] or ()), getattr(b, "_missed_clone", None)]:
        if isinstance(child, Behavior):
            yield from _nested(child)


def _plain_fields(b):
    """The fields of a record behavior that the blob keeps as they are."""
    if type(b) not in _RECORDS:
        return []
    return [f.name for f in fields(b) if f.metadata["encode"] is None and not f.metadata["each"]]


def _stop_tasks(behaviors):
    for b in behaviors:
        if isinstance(b, ag.Itinerary):
            for objective in b.config.route.objectives:
                yield from objective.stop_tasks


def _raising_fault(rng, shell, behaviors):
    """Plant one fault that makes the blob raise, and name it."""
    lists = [b for b in behaviors if type(b) in (ag.Sequential, ag.Parallel)]
    records = [b for b in behaviors if type(b) in _RECORDS and any(isinstance(f.metadata["encode"], str) and not f.metadata["each"] for f in fields(b))]
    fault = rng.choice(["set", "tuple key", "mixed keys", "circular state", "long int", "circular tree", "not a list", "junk entry", "junk nested"])
    if fault == "circular tree" and lists:
        rng.choice(lists).children.append(rng.choice(lists))
    elif fault == "not a list" and lists:
        rng.choice(lists).children = rng.choice([5, True, None])
    elif fault == "junk entry" and lists:
        rng.choice(lists).children.append(rng.choice([5, "x", ag.ActionDescriptor("noop")]))
    elif fault == "junk nested" and records:
        b = rng.choice(records)
        name = rng.choice([f.name for f in fields(b) if isinstance(f.metadata["encode"], str) and not f.metadata["each"]])
        setattr(b, name, rng.choice([5, "x", None, ag.Task(ag.ActionDescriptor("noop"))]))
        fault = f"junk in {type(b).__name__}.{name}"
    elif fault == "long int":
        shell.state["n"] = 10 ** (sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 5000)
    elif fault == "circular state":
        loop: dict = {}
        loop["self"] = [loop]
        shell.state["loop"] = loop
    elif fault == "tuple key":
        shell.state[("a", 1)] = 1
    elif fault == "mixed keys":
        shell.state["mixed"] = {1: "one", "two": 2}
    else:
        shell.state["s"] = {1, 2}
        fault = "set"
    return fault


def _shell(rng, routes):
    """A shell, its behaviors nested ones included, its stop tasks and its raising fault or None."""
    behaviors = [_behavior(rng, rng.randint(0, 2), routes) for _ in range(rng.randint(0, 3))]
    agents = [AgentId(rng.randint(1, 2**40)) for _ in range(2)]
    inbox = deque(
        Message(rng.choice(agents), rng.choice(agents), _name(rng), _string(rng), rng.randbytes(rng.randint(0, 9)), _int(rng, 0))
        for _ in range(rng.randint(0, 2))
    )
    state = {_string(rng): _json(rng) for _ in range(rng.randint(0, 3))}
    shell = AgentShell(agents[0], _location(rng), _location(rng), behaviors, state, inbox)
    nested = [b for top in behaviors for b in _nested(top)]
    tasks = list(_stop_tasks(nested))
    for _ in range(rng.randint(0, 4)):
        b = rng.choice(nested) if nested else None
        if b is not None and rng.random() < 0.2:
            b._finished = rng.choice(JUNK)
        elif b is not None and _plain_fields(b):
            setattr(b, rng.choice(_plain_fields(b)), rng.choice(JUNK))
    return shell, nested, tasks, _raising_fault(rng, shell, nested) if rng.random() < 0.35 else None


def _outcome(encode, shell):
    try:
        return encode(shell)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _short(outcome):
    text = repr(outcome)
    return text if len(text) < 200 else f"{text[:120]}...{text[-60:]} ({len(text)} chars)"


def blob_text_holds(seed):
    """The differential check ``(seed) -> problems`` for the blob's text."""
    rng, routes, problems = random.Random(seed), [], []
    for k in range(3):
        shell, _, tasks, fault = _shell(rng, routes)
        for when in ("first", "again", "changed"):
            if when == "changed":
                for task in tasks:
                    if isinstance(task.params, dict):
                        task.params[_string(rng)] = _json(rng)
                    elif isinstance(task.params, list):
                        task.params.append(_json(rng))
                shell.state[_string(rng)] = _json(rng)
            got, want = _outcome(serialize_shell, shell), _outcome(reference, shell)
            if got != want:
                problems.append(f"shell {k} ({fault or 'no raising fault'}), {when} write: serialize_shell gives {_short(got)}, the dict form {_short(want)}")
    return problems


def kinds_built(seeds):
    """The behavior classes the shells of ``seeds`` hold, nested ones included."""
    built = set()
    for seed in seeds:
        rng, routes = random.Random(seed), []
        for _ in range(3):
            built |= {type(b) for b in _shell(rng, routes)[1]}
    return built


def main(seeds=range(TIER1_SEEDS.start, CI_SEEDS.stop)):
    """Check ``seeds``; print the failing ones, with the first one's
    problems, and return 1 if any failed."""
    failures = {}
    for seed in seeds:
        try:
            problems = blob_text_holds(seed)
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures[seed] = problems
    span = f"seeds {seeds.start}-{seeds.stop - 1}"
    if not failures:
        print(f"blob_text: {span} hold")
        return 0
    first = next(iter(failures))
    print(f"blob_text: {len(failures)} of {len(seeds)} {span} fail: {list(failures)}")
    print(f"  seed {first}: {'; '.join(failures[first])}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
