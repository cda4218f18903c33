"""Trace rendering: ``TraceLog.to_jsonl`` encodes every detail with one C
encoder per call, or through a template for the runtime's own shapes, and
its bytes must equal the per-line rendering that encodes each detail with a
fresh ``json.dumps`` call. Also: what ``emit`` reads, and ``check_trace``'s
rules, each broken once."""

import json
from json import encoder as json_encoder

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentry.model import AgentId
from agentry.trace import CANONICAL_ENCODER, EventKind, TraceEvent, TraceLog, _detail_encoder, check_trace
from render_templates import TIER1_SEEDS, templates_render_as_json_line


def reference_jsonl(rows):
    """One line per row, each detail encoded on its own by ``json.dumps``."""
    return "".join(
        f'{{"tick":{tick},"seq":{seq},"kind":"{kind.value}","agent":{agent.value},"detail":'
        f'{json.dumps(detail, sort_keys=True, separators=(",", ":"), ensure_ascii=True)}}}\n'
        for seq, (tick, kind, agent, detail) in enumerate(rows)
    )


leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(alphabet=st.characters(), max_size=8)
    | st.sampled_from(["\"", "\\", "\n\t\r", "\x00\x1f", "é☃", "\U0001f600", "</script>"])
)
values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(list(EventKind)),
        st.builds(AgentId, st.integers(min_value=1, max_value=10**6)),
        st.dictionaries(st.text(max_size=6), values, max_size=4),
    ),
    max_size=6,
)


def log_of(rows):
    log = TraceLog()
    for tick, kind, agent, detail in rows:
        log.emit(tick, kind, agent, detail)
    return log


@settings(max_examples=80, deadline=None)
@given(rows)
def test_render_bytes_equal_the_per_line_encoding(rows):
    log = log_of(rows)
    expected = reference_jsonl(rows)
    assert log.to_jsonl() == expected
    assert "".join(event.to_json_line() + "\n" for event in log) == expected


@settings(max_examples=40, deadline=None)
@given(rows)
def test_render_bytes_are_the_same_without_the_c_encoder(rows):
    log = log_of(rows)
    expected = reference_jsonl(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(json_encoder, "c_make_encoder", None)
        assert _detail_encoder() == CANONICAL_ENCODER.encode
        assert log.to_jsonl() == expected


def test_a_circular_detail_raises_and_the_next_render_is_clean():
    loop: dict = {"n": 1}
    loop["self"] = [loop]
    bad = TraceLog()
    bad.emit(0, EventKind.CUSTOM, AgentId(1), {"ok": 1})
    bad.emit(0, EventKind.CUSTOM, AgentId(1), loop)
    with pytest.raises(ValueError, match="Circular reference"):
        bad.to_jsonl()
    shared = [1, {"x": None}]
    clean = [
        (1, EventKind.CUSTOM, AgentId(2), {"a": shared, "b": shared}),
        (2, EventKind.SEND, AgentId(3), {"a": shared}),
    ]
    assert log_of(clean).to_jsonl() == reference_jsonl(clean)


def test_an_empty_log_renders_as_nothing():
    assert TraceLog().to_jsonl() == ""


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_templates_render_what_json_line_renders(seed):
    assert templates_render_as_json_line(seed) == []


def _refused(log, *event):
    with pytest.raises(ValueError) as raised:
        log.emit(*event)
    assert len(log) == 0
    return str(raised.value)


def test_emit_reads_its_tick():
    log = TraceLog()
    for tick in ("x", None, True, 1.5, -1):
        assert _refused(log, tick, EventKind.SEND, AgentId(1), {}) == f"trace tick must be an integer of at least 0, got {tick!r}"


def test_emit_reads_its_kind():
    log = TraceLog()
    for kind in ("send", None, 3):
        assert _refused(log, 0, kind, AgentId(1), {}) == f"trace kind must be an EventKind, got {kind!r}"


def test_emit_reads_its_agent():
    log = TraceLog()
    for agent in (1, None, "AgentId(1)"):
        assert _refused(log, 0, EventKind.SEND, agent, {}) == f"trace agent must be an agent id, got {agent!r}"


def _events(*rows):
    """Events with dense seqs from ``(tick, kind, agent, detail)`` rows."""
    return [TraceEvent(tick, seq, EventKind(kind), AgentId(agent), detail) for seq, (tick, kind, agent, detail) in enumerate(rows)]


TRIP = [(0, "spawn", 1, {"at": "a"}), (1, "migrate_start", 1, {"from": "a", "to": "b"})]
LANDED = (3, "migrate_end", 1, {"from": "a", "to": "b", "latency": 2})


def test_a_clean_trace_breaks_no_rule():
    events = _events(
        *TRIP,
        (1, "send", 1, {"type": "A", "to": 2, "conversation": ""}),  # the tick its move began
        (2, "deliver", 2, {"type": "A", "from": 1, "conversation": "", "failed": True, "reason": "unknown agent"}),
        LANDED,
        (3, "behavior_done", 1, {"kind": "task", "slot": 0}),
        (3, "terminate", 1, {}),
        (4, "deliver", 1, {"type": "B", "from": 3, "conversation": "", "failed": True, "reason": "terminated"}),
    )
    assert check_trace(events) == []


def test_check_trace_rule_1_seq_is_dense_and_ticks_never_go_back():
    events = _events((2, "spawn", 1, {"at": "a"}), (1, "custom", 1, {}))
    assert check_trace(events) == ["seq 1 (custom, agent 1, tick 1): tick goes back from 2"]
    skipped = [events[0], TraceEvent(2, 2, EventKind.TERMINATE, AgentId(1), {})]
    assert check_trace(skipped) == ["seq 2 (terminate, agent 1, tick 2): expected seq 1"]


def test_check_trace_rule_2_one_spawn_first_and_nothing_after_terminate():
    assert check_trace(_events((0, "custom", 1, {}))) == ["seq 0 (custom, agent 1, tick 0): names an agent before its spawn"]
    twice = _events((0, "spawn", 1, {"at": "a"}), (0, "spawn", 1, {"at": "a"}))
    assert check_trace(twice) == ["seq 1 (spawn, agent 1, tick 0): a second spawn"]
    after = _events((0, "spawn", 1, {"at": "a"}), (1, "terminate", 1, {}), (2, "send", 1, {"type": "A", "to": 1, "conversation": ""}))
    assert check_trace(after) == ["seq 2 (send, agent 1, tick 2): names an agent after its terminate"]


def test_check_trace_rule_3_moves_pair_up():
    elsewhere = _events(*TRIP, (3, "migrate_end", 1, {"from": "a", "to": "c", "latency": 2}))
    assert check_trace(elsewhere) == ["seq 2 (migrate_end, agent 1, tick 3): ends at 'c', but its migrate_start (seq 1) went to 'b'"]
    again = _events(*TRIP, (1, "migrate_start", 1, {"from": "a", "to": "b"}), LANDED)
    assert check_trace(again) == ["seq 2 (migrate_start, agent 1, tick 1): a second migrate_start before its migrate_end"]
    unstarted = _events(TRIP[0], LANDED)
    assert check_trace(unstarted) == ["seq 1 (migrate_end, agent 1, tick 3): a migrate_end with no migrate_start"]


def test_check_trace_rule_4_nothing_names_an_agent_inside_its_transit():
    events = _events(*TRIP, (2, "send", 1, {"type": "A", "to": 1, "conversation": ""}), LANDED)
    assert check_trace(events) == ["seq 3 (migrate_end, agent 1, tick 3): seq 2 names the agent at tick 2, inside its transit"]


def test_check_trace_rule_5_one_behavior_done_per_slot():
    done = (1, "behavior_done", 1, {"kind": "task", "slot": 0})
    events = _events(TRIP[0], done, done, (1, "behavior_done", 1, {"kind": "task", "slot": 1}))
    assert check_trace(events) == ["seq 2 (behavior_done, agent 1, tick 1): a second behavior_done for slot 0"]


def test_check_trace_rule_6_no_agent_in_transit_at_quiescence():
    assert check_trace(_events(*TRIP)) == ["agent 1 is in transit at the end (migrate_start seq 1)"]
