"""Trace rendering: ``TraceLog.to_jsonl`` encodes every detail with one C
encoder per call, and its bytes must equal the per-line rendering that
encodes each detail with a fresh ``json.dumps`` call."""

import json
from json import encoder as json_encoder

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentry.model import AgentId
from agentry.trace import CANONICAL_ENCODER, EventKind, TraceLog, _detail_encoder


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
