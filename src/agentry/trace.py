"""Structured event trace.

Every observable runtime event is recorded as one row of a TraceLog: the
plain tuple ``(tick, seq, kind, agent, detail)``. A TraceEvent is a view of a
row, built only when the trace is read. A trace is the runtime's testable
output: two runs are equivalent exactly when their JSONL renderings are
byte-identical, so the encoding here is deliberately rigid (fixed field
order, sorted detail keys, compact separators) and defined once, in
``_json_line``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from itertools import starmap
from json import encoder as json_encoder
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

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
    """The one JSONL rendering of an event, without its newline."""
    # Field order is part of the format; do not reorder. Kind values are
    # plain ASCII words, so they need no escaping; ``_value_`` reads one
    # without the Enum ``value`` descriptor.
    return f'{{"tick":{tick},"seq":{seq},"kind":"{kind._value_}","agent":{agent.value},"detail":{encode(detail)}}}'


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
        self._rows: list[tuple[Ticks, int, EventKind, AgentId, dict[str, Any]]] = []

    def emit(self, tick: Ticks, kind: EventKind, agent: AgentId, detail: dict[str, Any]) -> None:
        """Append one event. ``detail`` is kept as given and not checked:
        the runtime's own events and ``ctx.trace`` (through TraceEffect)
        pass details already checked and copied, and this path is hot. A
        caller of ``platform.trace().emit`` must pass a detail JSON can
        encode, with no cycle, or ``to_jsonl`` raises later."""
        rows = self._rows
        rows.append((tick, len(rows), kind, agent, detail))

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceEvent]:
        return starmap(TraceEvent, self._rows)

    def to_jsonl(self) -> str:
        """One event per line, trailing newline after the last event."""
        encode = _detail_encoder()
        return "".join([_json_line(*row, encode) + "\n" for row in self._rows])
