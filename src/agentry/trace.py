"""Structured event trace.

Every observable runtime event is recorded as a TraceEvent. A trace is the
runtime's testable output: two runs are equivalent exactly when their JSONL
renderings are byte-identical, so the encoding here is deliberately rigid
(fixed field order, sorted detail keys, compact separators).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

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


# The package's one canonical JSON encoder (sorted keys, no whitespace, ASCII
# only), reused by every call: ``json.dumps`` with these options builds a
# fresh JSONEncoder each time. It encodes event details here and, through
# ``model.canonical_json``, migration blobs and message payloads.
CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    tick: Ticks
    seq: int
    kind: EventKind
    agent: AgentId
    detail: dict[str, Any] = field(default_factory=dict)

    def to_json_line(self) -> str:
        # Field order is part of the format; do not reorder. Kind values are
        # plain ASCII words, so they need no escaping.
        return (
            f'{{"tick":{self.tick},"seq":{self.seq},"kind":"{self.kind.value}",'
            f'"agent":{self.agent.value},"detail":{CANONICAL_ENCODER.encode(self.detail)}}}'
        )


class TraceLog:
    """Append-only event list with JSONL rendering.

    ``emit`` assigns sequence numbers, so events are totally ordered even
    when many share a tick.
    """

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def emit(self, tick: Ticks, kind: EventKind, agent: AgentId, detail: dict[str, Any]) -> TraceEvent:
        event = TraceEvent(tick=tick, seq=len(self._events), kind=kind, agent=agent, detail=detail)
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def to_jsonl(self) -> str:
        """One event per line, trailing newline after the last event."""
        return "".join(e.to_json_line() + "\n" for e in self._events)
