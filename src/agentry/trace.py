"""Structured event trace.

Every observable runtime event is recorded as one row of a TraceLog: the
plain tuple ``(tick, seq, kind, agent, detail)``. A TraceEvent is a view of a
row, built only when the trace is read. A trace is the runtime's testable
output: two runs are equivalent exactly when their JSONL renderings are
byte-identical, so the encoding here is deliberately rigid (fixed field
order, sorted detail keys, compact separators) and defined once, in
``_json_line``. The runtime's own events, and an itinerary's objective
events, come in a few fixed detail shapes; ``to_jsonl`` renders those
through per-kind templates (``_TEMPLATES``), which reproduce
``_json_line``'s bytes without the generic encoder, and every other row
through ``_json_line`` itself.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from itertools import starmap
from json import encoder as json_encoder
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

if TYPE_CHECKING:  # model imports EventKind from here at run time
    from .model import AgentId, Ticks


class EventKind(str, enum.Enum):
    SPAWN = "spawn"
    TERMINATE = "terminate"
    SEND = "send"
    DELIVER = "deliver"
    MIGRATE_START = "migrate_start"
    MIGRATE_END = "migrate_end"
    BEHAVIOR_DONE = "behavior_done"
    OBJECTIVE_REACHED = "objective_reached"
    OBJECTIVE_MISSED = "objective_missed"
    CUSTOM = "custom"


# The package's one canonical JSON encoding (sorted keys, no whitespace, ASCII
# only), for event details here and, through ``model.canonical_json``,
# migration blobs and message payloads. Both encode through ``_c_encoder``, a C
# encoder built from these options: ``model`` builds one at import and reuses
# it for every blob and payload; ``TraceLog.to_jsonl`` builds one per render.
CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _json_line(
    tick: Ticks,
    seq: int,
    kind: EventKind,
    agent: AgentId,
    detail: dict[str, Any],
    encode: Callable[[Any], str] = CANONICAL_ENCODER.encode,
) -> str:
    """The one JSONL rendering of an event, without its newline. It defines
    the trace's bytes; ``_TEMPLATES`` reproduce them for the runtime's shapes."""
    # Field order is part of the format; do not reorder. Kind values are
    # plain ASCII words, so they need no escaping; ``_value_`` reads one
    # without the Enum ``value`` descriptor.
    return f'{{"tick":{tick},"seq":{seq},"kind":"{kind._value_}","agent":{agent.value},"detail":{encode(detail)}}}'


# The templated detail shapes: kind -> {key: the exact class of its value}, keys sorted.
_SHAPES: dict[str, dict[str, type]] = {
    "spawn": {"at": str},
    "terminate": {},
    "send": {"conversation": str, "to": int, "type": str},
    "deliver": {"conversation": str, "from": int, "type": str},
    "migrate_start": {"from": str, "to": str},
    "migrate_end": {"from": str, "latency": int, "to": str},
    "behavior_done": {"kind": str, "slot": int},
    # An itinerary's, through ctx.trace.
    "objective_reached": {"arrival": int, "class": str, "location": str, "objective": int},
    "objective_missed": {"arrival": int, "by": int, "location": str, "objective": int},
}


def _template(kind: str, shape: dict[str, type]) -> Callable[..., Optional[str]]:
    """``_json_line`` and its newline for a row of ``kind``, as straight-line
    code: ``(tick, seq, agent, detail)`` -> the line, or None unless the detail
    is a dict of exactly ``shape``'s keys, each value of exactly its class (a
    bool, a float, a subclass or None falls back, as does a failed deliver)."""
    items = [(key, cls, f"v{i}") for i, (key, cls) in enumerate(shape.items())]
    # The generated f-string: its literal braces are doubled.
    fields = ",".join(f'"{key}":{{esc({v})}}' if cls is str else f'"{key}":{{{v}}}' for key, cls, v in items)
    line = '{{"tick":{tick},"seq":{seq},"kind":"' + kind + '","agent":{agent.value},"detail":{{' + fields + '}}}}\\n'
    exact = " and ".join(f"{v}.__class__ is {cls.__name__}" for _, cls, v in items) or "True"
    source = ["def template(tick, seq, agent, d):", f" if d.__class__ is not dict or len(d) != {len(shape)}: return None"]
    source += [f" {v} = d.get({key!r})" for key, _, v in items]
    source.append(f" return f'{line}' if {exact} else None")
    ns: dict[str, Any] = {"esc": json_encoder.encode_basestring_ascii}  # the canonical encoder's str escaping
    exec("\n".join(source), ns)
    return ns["template"]


_TEMPLATES = {kind: _template(kind, shape) for kind, shape in _SHAPES.items()}


def _c_encoder(markers: Optional[dict[int, Any]]) -> Optional[Callable[[Any], str]]:
    """``CANONICAL_ENCODER.encode`` as one C encoder, or None when ``json``
    has no C accelerator. With a ``markers`` dict it raises ValueError for a
    circular value, as ``encode`` does, and keeps its own state in it; with
    None it checks for no cycle and keeps no state, so one encoder serves
    every call, and a circular value raises RecursionError."""
    make = json_encoder.c_make_encoder
    if make is None:
        return None
    enc = CANONICAL_ENCODER
    # The arguments JSONEncoder.iterencode passes for a one-shot encode.
    options = (enc.key_separator, enc.item_separator, enc.sort_keys, enc.skipkeys, enc.allow_nan)
    chunks = make(markers, enc.default, json_encoder.encode_basestring_ascii, None, *options)
    return lambda value: "".join(chunks(value, 0))


def _detail_encoder() -> Callable[[Any], str]:
    """The encoder for one render. Its own markers dict makes a circular
    detail raise ValueError, and dies with it."""
    return _c_encoder({}) or CANONICAL_ENCODER.encode


def _read_event(tick: Any, kind: Any, agent: Any) -> None:
    """``emit``'s reads of its tick, kind and agent, off its fast path."""
    from .model import AgentId, read_instance, read_int, read_type

    read_int(tick, "trace tick", 0)
    read_type(kind, "trace kind", EventKind, "an EventKind")
    read_instance(agent, "trace agent", AgentId)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    tick: Ticks
    seq: int
    kind: EventKind
    agent: AgentId
    detail: dict[str, Any] = field(default_factory=dict)

    def to_json_line(self) -> str:
        return _json_line(self.tick, self.seq, self.kind, self.agent, self.detail)


class TraceLog:
    """Append-only event log with JSONL rendering.

    The log holds rows, tuples in TraceEvent field order; iterating it builds
    a TraceEvent per row, so a run pays for no event object until someone
    reads the trace. ``emit`` is the only writer. It assigns sequence
    numbers, so events are totally ordered even when many share a tick.
    """

    def __init__(self) -> None:
        from .model import AgentId  # not at the top: model imports EventKind from here

        self._agent_id = AgentId
        self._rows: list[tuple[Ticks, int, EventKind, AgentId, dict[str, Any]]] = []

    def emit(self, tick: Ticks, kind: EventKind, agent: AgentId, detail: dict[str, Any]) -> None:
        """Append one event. ``tick`` (an int of at least 0), ``kind`` (an
        EventKind) and ``agent`` (an AgentId) are read here, a plain int and
        an exact AgentId by class identity; any other value raises
        ValueError and appends nothing. ``detail`` is kept as given and not
        checked: the runtime's own events and ``ctx.trace`` (through
        TraceEffect) pass details already checked and copied, and this path
        is hot. A caller of ``platform.trace().emit`` must pass a detail
        JSON can encode, with no cycle, or ``to_jsonl`` raises later."""
        if tick.__class__ is not int or tick < 0 or kind.__class__ is not EventKind or agent.__class__ is not self._agent_id:
            _read_event(tick, kind, agent)
        rows = self._rows
        rows.append((tick, len(rows), kind, agent, detail))

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceEvent]:
        return starmap(TraceEvent, self._rows)

    def to_jsonl(self) -> str:
        """One event per line, trailing newline after the last event."""
        encode, templates = _detail_encoder(), _TEMPLATES
        return "".join([
            (t := templates.get(kind._value_)) and t(tick, seq, agent, detail) or _json_line(tick, seq, kind, agent, detail, encode) + "\n"
            for tick, seq, kind, agent, detail in self._rows
        ])


def check_trace(events: Iterable[TraceEvent]) -> list[str]:
    """The problems of a runtime's trace, one line each, against the rules
    every run keeps on either platform, whatever its behaviors do: (1)
    ``seq`` counts up from 0 by one, and ticks never go back; (2) each agent
    has one ``spawn``, and it comes first, and after its ``terminate`` only a
    failed ``deliver`` names it (as one may name an agent never spawned);
    (3) ``migrate_start`` and ``migrate_end`` pair up with the same ``to``,
    with no second start between them; (4) no event names an agent at a tick
    strictly inside its transit; (5) ``behavior_done`` comes at most once
    per (agent, slot); (6) no agent is in transit at the end, as a run to
    quiescence leaves none."""
    problems: list[str] = []
    spawned: set[int] = set()
    ended: set[int] = set()
    done: set[tuple[int, Any]] = set()
    transit: dict[int, list[Any]] = {}  # agent -> [its migrate_start, the first later-tick event naming it]
    last = 0
    for i, e in enumerate(events):
        a, kind, detail = e.agent.value, e.kind, e.detail
        found = [f"expected seq {i}"] if e.seq != i else []
        if e.tick < last:
            found.append(f"tick goes back from {last}")
        last = max(last, e.tick)
        failed = kind is EventKind.DELIVER and detail.get("failed") is True
        if kind is EventKind.SPAWN and a in spawned:
            found.append("a second spawn")
        elif kind is not EventKind.SPAWN and a not in spawned and not failed:
            found.append("names an agent before its spawn")
        if a in ended and not failed:
            found.append("names an agent after its terminate")
        trip = transit.get(a)
        if kind is EventKind.MIGRATE_START and trip:
            found.append("a second migrate_start before its migrate_end")
        elif kind is EventKind.MIGRATE_END:
            start, inside = transit.pop(a, None) or (None, None)
            if start is None:
                found.append("a migrate_end with no migrate_start")
            elif detail.get("to") != start.detail.get("to"):
                found.append(f"ends at {detail.get('to')!r}, but its migrate_start (seq {start.seq}) went to {start.detail.get('to')!r}")
            if inside is not None and inside.tick < e.tick:
                found.append(f"seq {inside.seq} names the agent at tick {inside.tick}, inside its transit")
        elif trip and trip[1] is None and e.tick > trip[0].tick:
            trip[1] = e
        slot = (a, detail.get("slot")) if kind is EventKind.BEHAVIOR_DONE else None
        if slot in done:
            found.append(f"a second behavior_done for slot {slot[1]!r}")
        if kind is EventKind.SPAWN:
            spawned.add(a)
        elif kind is EventKind.TERMINATE:
            ended.add(a)
        elif kind is EventKind.MIGRATE_START:
            transit[a] = [e, None]
        elif kind is EventKind.BEHAVIOR_DONE:
            done.add(slot)
        problems += [f"seq {e.seq} ({kind._value_}, agent {a}, tick {e.tick}): {what}" for what in found]
    return problems + [f"agent {a} is in transit at the end (migrate_start seq {trip[0].seq})" for a, trip in transit.items()]
