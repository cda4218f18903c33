"""The ``render_templates`` generator: the trace's templates render exactly
what ``_json_line`` renders.

``TraceLog.to_jsonl`` renders the runtime's own detail shapes through
per-kind templates and every other row through ``_json_line``, which defines
the trace's bytes. Each seed builds a log of rows of every templated kind
with exactly its keys, near misses of them (a key added or dropped; a value
that is a bool, a float, a ``str`` or ``int`` subclass or None, an
objective event's ``arrival`` of None among them; a detail that is not a
plain dict) and rows of the other kinds, with strings that need escaping
and ints up to 2**100 in size. The check lists each way
``to_jsonl`` differs from the rows rendered one by one through
``_json_line``, with and without the C encoder, and each exact shape that
missed its template. An int longer than ``sys.get_int_max_str_digits()``
must raise the same ValueError on both paths.

The module imports only the standard library and agentry, so any
interpreter can run it:

    PYTHONPATH=src python -S tests/render_templates.py

checks every seed and exits 1 if one fails. ``tests/test_trace.py`` runs the
tier-1 seeds, and ``tests/test_differential.py`` registers both ranges.
"""

import random
import sys
from json import encoder as json_encoder

from agentry.model import AgentId
from agentry.trace import _TEMPLATES, EventKind, TraceLog, _json_line

# The templated details, written out from the platforms' and the itinerary's
# emits rather than read from the table under test.
RUNTIME_SHAPES = {
    EventKind.SPAWN: {"at": str},
    EventKind.TERMINATE: {},
    EventKind.SEND: {"type": str, "to": int, "conversation": str},
    EventKind.DELIVER: {"type": str, "from": int, "conversation": str},
    EventKind.MIGRATE_START: {"from": str, "to": str},
    EventKind.MIGRATE_END: {"from": str, "to": str, "latency": int},
    EventKind.BEHAVIOR_DONE: {"kind": str, "slot": int},
    # An itinerary's, through ctx.trace.
    EventKind.OBJECTIVE_REACHED: {"objective": int, "location": str, "arrival": int, "class": str},
    EventKind.OBJECTIVE_MISSED: {"objective": int, "location": str, "arrival": int, "by": int},
}


class Text(str):
    pass


class Count(int):
    pass


class Detail(dict):
    pass


STRINGS = ['"', "\\", "".join(map(chr, range(0x20))), "\x7f", "é☃", "\U0001f600", "\ud800", "a\udfffb", "</script>", ""]
NEAR_MISSES = [True, False, 0.0, 1.5, float("inf"), None, Text("t"), Count(3), [1], {"k": 1}]
TIER1_SEEDS = range(200)
CI_SEEDS = range(200, 2200)


def _string(rng):
    if rng.random() < 0.4:
        return rng.choice(STRINGS)
    ranges = [(0x20, 0x7F), (0, 0x20), (0x80, 0xD800), (0xD800, 0xE000), (0xE000, 0x10000), (0x10000, 0x110000)]
    return "".join(chr(rng.randrange(*rng.choice(ranges))) for _ in range(rng.randint(0, 6)))


def _int(rng):
    return rng.choice([0, 1, -1, rng.randint(-(10**6), 10**6), rng.randint(-(2**100), 2**100), 2**63, -(2**63)])


def _detail(rng, kind):
    """A detail of ``kind``'s shape, or, for one row in two, a near miss."""
    shape = RUNTIME_SHAPES.get(kind, {})
    detail = {key: _string(rng) if cls is str else _int(rng) for key, cls in shape.items()}
    miss = rng.randrange(10)
    if miss == 0:
        detail[rng.choice([*shape, "failed", "reason", _string(rng)])] = rng.choice([_string(rng), _int(rng), True])
    elif miss == 1 and detail:
        del detail[rng.choice(list(detail))]
    elif miss == 2 and detail:
        detail[rng.choice(list(detail))] = rng.choice(NEAR_MISSES)
    elif miss == 3:
        return rng.choice([list(detail.values()), Detail(detail)])
    elif miss == 4 and detail:
        key = rng.choice(list(detail))
        detail[key] = Text(detail[key]) if shape[key] is str else Count(detail[key])
    elif miss == 5 and "arrival" in detail:  # an itinerary arriving at no tick
        detail["arrival"] = None
    return detail


def _rows(rng):
    kinds = list(EventKind)
    return [
        (rng.choice([0, rng.randint(0, 10**6), 2**70]), rng.choice(kinds), AgentId(rng.randint(1, 2**40)), _detail(rng, kind))
        for kind in [*RUNTIME_SHAPES, *(rng.choice(kinds) for _ in range(rng.randint(0, 30)))]
    ]


def _is_exact(kind, detail):
    shape = RUNTIME_SHAPES.get(kind)
    return shape is not None and type(detail) is dict and detail.keys() == shape.keys() and all(
        type(value) is shape[key] for key, value in detail.items()
    )


def _raised(render):
    try:
        render()
    except ValueError as exc:
        return str(exc)
    return None


def _renders(log, expected, label):
    """Problems of ``log.to_jsonl()`` against ``expected``, with the C
    encoder as ``json`` has it and then without one."""
    problems = []
    for encoder in ("with", "without"):
        saved = json_encoder.c_make_encoder
        if encoder == "without":
            json_encoder.c_make_encoder = None
        try:
            got = log.to_jsonl()
        finally:
            json_encoder.c_make_encoder = saved
        if got != expected:
            lines, wanted = got.split("\n"), expected.split("\n")
            i = next((i for i, (a, b) in enumerate(zip(lines, wanted)) if a != b), min(len(lines), len(wanted)) - 1)
            problems.append(f"{label}, {encoder} the C encoder: line {i} is {lines[i]!r}, not {wanted[i]!r}")
    return problems


def templates_render_as_json_line(seed):
    """The differential check ``(seed) -> problems`` for the templates."""
    rng = random.Random(seed)
    rows = _rows(rng)
    log = TraceLog()
    for row in rows:
        log.emit(*row)
    expected = "".join(_json_line(tick, seq, kind, agent, detail) + "\n" for seq, (tick, kind, agent, detail) in enumerate(rows))
    problems = _renders(log, expected, "the log")
    for seq, (tick, kind, agent, detail) in enumerate(rows):
        if _is_exact(kind, detail) and _TEMPLATES[kind.value](tick, seq, agent, detail) is None:
            problems.append(f"row {seq}: a {kind.value} detail of exactly its shape falls back: {detail!r}")
    # An int too long to write raises the same error on both paths.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        kind = rng.choice([EventKind.SEND, EventKind.DELIVER, EventKind.MIGRATE_END, EventKind.BEHAVIOR_DONE])
        detail = {key: _string(rng) if cls is str else _int(rng) for key, cls in RUNTIME_SHAPES[kind].items()}
        huge = 10**limit * rng.choice([1, -1])
        tick = rng.choice([0, abs(huge)])
        detail[rng.choice([key for key, cls in RUNTIME_SHAPES[kind].items() if cls is int])] = huge if tick == 0 else 1
        big = TraceLog()
        big.emit(tick, kind, AgentId(1), detail)
        want = _raised(lambda: _json_line(tick, 0, kind, AgentId(1), detail))
        if want is None or _raised(big.to_jsonl) != want:
            problems.append(f"an int of {limit + 1} digits: to_jsonl raises {_raised(big.to_jsonl)!r}, _json_line {want!r}")
    return problems


def main(seeds=range(TIER1_SEEDS.start, CI_SEEDS.stop)):
    """Check ``seeds``; print the failing ones, with the first one's
    problems, and return 1 if any failed."""
    failures = {}
    for seed in seeds:
        try:
            problems = templates_render_as_json_line(seed)
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures[seed] = problems
    span = f"seeds {seeds.start}-{seeds.stop - 1}"
    if not failures:
        print(f"render_templates: {span} hold")
        return 0
    first = next(iter(failures))
    print(f"render_templates: {len(failures)} of {len(seeds)} {span} fail: {list(failures)}")
    print(f"  seed {first}: {'; '.join(failures[first])}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
