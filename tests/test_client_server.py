"""Client/Server: delegation, acknowledgement, exact timeouts, isolation."""

import json

import pytest

import agentry as ag
from agentry.actions import builtin_action


@builtin_action("t.cs.keep")
def _keep(ctx, params, message):
    entry = {"tick": ctx.now}
    if message is not None:
        entry["payload"] = message.payload.decode()
        entry["conversation"] = message.conversation_id
    ctx.state.setdefault("kept", []).append(entry)


@builtin_action("t.cs.ack_only")
def _ack_only(ctx, params, message):
    """A rogue endpoint: acknowledges but never answers."""
    envelope = json.loads(message.payload.decode())
    ctx.send(ag.make_message(ctx.agent_id, message.sender, ag.ACK, envelope["conversation"], b"", sent_at=ctx.now))


@builtin_action("t.cs.echo")
def _echo(ctx, params, message):
    return ag.canonical_json({"echo": params})


@builtin_action("t.cs.from_handler")
def _from_handler(ctx, params, message):
    envelope = json.loads(message.payload.decode())
    return ag.canonical_json({"handled": envelope["task"]["name"]})


def kept(platform, agent):
    return platform.agent_state(agent).get("kept", [])


def make_client(server_ref, task_params=None, **kw):
    return ag.Client(
        server_ref,
        ag.RequestEnvelope(ag.ActionDescriptor("t.cs.echo", task_params)),
        on_result=ag.ActionDescriptor("t.cs.keep"),
        on_failure=ag.ActionDescriptor("t.beh.mark", {"tag": "fail"}),
        **kw,
    )


def test_round_trip_timeline(platform_factory):
    """REQUEST at 0, worker spawned at 1, ACK and RESULT observed at 2,
    delivered at 3, result callback at 4 (all latencies 1)."""
    p = platform_factory()
    srv_loc = p.create_location("srv")
    cli_loc = p.create_location("cli")
    server = p.spawn_agent(srv_loc, [ag.Server()])
    client = p.spawn_agent(cli_loc, [make_client(server.value, {"n": 1})])
    p.run(None)

    sends = {e.detail["type"]: e.tick for e in p.trace() if e.kind == ag.EventKind.SEND}
    assert sends == {"REQUEST": 0, "ACK": 2, "RESULT": 2}
    delivers = [(e.detail["type"], e.tick) for e in p.trace() if e.kind == ag.EventKind.DELIVER]
    assert ("ACK", 3) in delivers and ("RESULT", 3) in delivers
    result = kept(p, client)
    assert len(result) == 1
    assert result[0]["tick"] == 4
    assert json.loads(result[0]["payload"]) == {"echo": {"n": 1}}
    assert p.is_alive(server)
    assert not p.is_alive(client)


def test_ack_always_precedes_result(platform_factory):
    p = platform_factory(message=3)
    srv_loc = p.create_location("srv")
    server = p.spawn_agent(srv_loc, [ag.Server()])
    p.spawn_agent(srv_loc, [make_client(server.value)])
    p.run(None)
    delivers = [e for e in p.trace() if e.kind == ag.EventKind.DELIVER]
    ack = [e for e in delivers if e.detail["type"] == ag.ACK]
    result = [e for e in delivers if e.detail["type"] == ag.RESULT]
    assert ack and result
    assert (ack[0].tick, ack[0].seq) < (result[0].tick, result[0].seq)


def test_ack_timeout_fires_exactly(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    ghost = p.reserve_agent_id()  # nobody will ever answer
    client = p.spawn_agent(loc, [make_client(ghost.value, ack_timeout=7)])
    p.run(None)
    assert p.agent_state(client)["marks"] == [["fail", 7]]
    assert kept(p, client) == []


def test_result_timeout_fires_exactly(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    rogue = p.spawn_agent(loc, [ag.Listener(ag.REQUEST, [ag.ActionDescriptor("t.cs.ack_only")], mode=ag.CYCLIC)])
    client = p.spawn_agent(loc, [make_client(rogue.value, ack_timeout=10, result_timeout=9)])
    p.run(None)
    # REQUEST delivered at 1, ACK sent at 1, consumed by the client at 2
    assert p.agent_state(client)["marks"] == [["fail", 2 + 9]]


def test_exactly_one_outcome_per_exchange(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    server = p.spawn_agent(loc, [ag.Server()])
    client = p.spawn_agent(loc, [make_client(server.value, ack_timeout=4, result_timeout=4)])
    p.run(None)
    outcomes = len(kept(p, client)) + len(p.agent_state(client).get("marks", []))
    assert outcomes == 1


def test_concurrent_requests_get_isolated_workers(platform_factory):
    p = platform_factory()
    srv_loc = p.create_location("srv")
    cli_loc = p.create_location("cli")
    server = p.spawn_agent(srv_loc, [ag.Server()])
    clients = [p.spawn_agent(cli_loc, [make_client(server.value, {"who": i})]) for i in range(3)]
    p.run(None)
    workers = [e for e in p.trace() if e.kind == ag.EventKind.SPAWN and e.detail["at"] == "srv" and e.agent != server]
    assert len(workers) == 3
    for i, client in enumerate(clients):
        replies = kept(p, client)
        assert len(replies) == 1
        assert json.loads(replies[0]["payload"]) == {"echo": {"who": i}}


def test_malformed_request_is_traced_and_skipped(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    server = p.spawn_agent(loc, [ag.Server()])
    sender = p.reserve_agent_id()
    p.spawn_agent(loc, [ag.Task(ag.ActionDescriptor("noop"))], agent_id=sender)
    # Not JSON, and a task whose action name is not a string.
    for payload in (b"this is not json", b'{"task": {"name": null}}'):
        p.send(ag.make_message(sender, server, ag.REQUEST, "cX", payload, sent_at=0))
    client = p.spawn_agent(loc, [make_client(server.value, {"ok": True}, ack_timeout=30)])
    p.run(None)
    errors = [e for e in p.trace() if e.kind == ag.EventKind.CUSTOM and "malformed request" in str(e.detail.get("error", ""))]
    assert len(errors) == 2
    # the bad requests got no ACK, and the well-formed one still succeeded
    acks = [e for e in p.trace() if e.kind == ag.EventKind.SEND and e.detail["type"] == ag.ACK]
    assert len(acks) == 1
    assert len(kept(p, client)) == 1


def test_handler_override_sees_request_message(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    server = p.spawn_agent(loc, [ag.Server(handler=ag.ActionDescriptor("t.cs.from_handler"))])
    client = p.spawn_agent(loc, [make_client(server.value, {"ignored": 1})])
    p.run(None)
    replies = kept(p, client)
    assert json.loads(replies[0]["payload"]) == {"handled": "t.cs.echo"}


def test_worker_error_rides_the_result(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    server = p.spawn_agent(loc, [ag.Server()])
    client = p.spawn_agent(loc, [
        ag.Client(
            server.value,
            ag.RequestEnvelope(ag.ActionDescriptor("t.beh.boom")),
            on_result=ag.ActionDescriptor("t.cs.keep"),
            on_failure=ag.ActionDescriptor("t.beh.mark", {"tag": "fail"}),
        ),
    ])
    p.run(None)
    replies = kept(p, client)
    assert len(replies) == 1
    assert json.loads(replies[0]["payload"]) == {"error": "boom"}
    assert "marks" not in p.agent_state(client)


def test_result_slot_pins_the_conversation(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    server = p.spawn_agent(loc, [ag.Server()])
    client = p.spawn_agent(loc, [
        ag.Client(
            server.value,
            ag.RequestEnvelope(ag.ActionDescriptor("t.cs.echo"), result_slot="my-slot"),
            on_result=ag.ActionDescriptor("t.cs.keep"),
        ),
    ])
    p.run(None)
    assert kept(p, client)[0]["conversation"] == "my-slot"


def test_client_rejects_non_positive_timeouts():
    with pytest.raises(ValueError, match="^timeouts must be >= 1 tick$"):
        make_client(1, ack_timeout=0)
    with pytest.raises(ValueError, match="^timeouts must be >= 1 tick$"):
        make_client(1, result_timeout=0)


def test_late_binding_server_reference(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    server = p.spawn_agent(loc, [ag.Server()])
    client = p.spawn_agent(loc, [ag.Sequential([
        ag.Task(ag.ActionDescriptor("set_state", {"key": "target", "value": server.value})),
        make_client({"$state": "target"}),
    ])])
    p.run(None)
    assert len(kept(p, client)) == 1
