import json

import pytest

import agentry as ag
from agentry.actions import builtin_action, builtin_predicate
from agentry.model import location_from_jsonable

# ---------------------------------------------------------------------------
# Probe actions shared by the test modules. Registered here so they exist no
# matter which subset of files a pytest invocation collects.
# ---------------------------------------------------------------------------


@builtin_action("t.sim.tick_log")
def _tick_log(ctx, params, message):
    ctx.state.setdefault("ticks", []).append(ctx.now)


@builtin_action("t.sim.go")
def _go(ctx, params, message):
    ctx.request_migration(location_from_jsonable(params["dest"]))


@builtin_action("t.sim.spawn_child")
def _spawn_child(ctx, params, message):
    child = ctx.spawn(ctx.location, [ag.Task(ag.ActionDescriptor("t.sim.tick_log"))])
    ctx.state["child"] = child.value


@builtin_action("t.sim.attach_to")
def _attach_to(ctx, params, message):
    task = ag.Task(ag.ActionDescriptor("trace", {"attached_by": ctx.agent_id.value}))
    ctx.attach_behavior(ag.AgentId(params["to"]), task)


@builtin_action("t.sim.hoard_then_go")
def _hoard_then_go(ctx, params, message):
    ctx.state["hoard"] = {1, 2}  # a set does not serialize
    ctx.request_migration(location_from_jsonable(params["dest"]))


@builtin_action("t.sim.send_then_bad_trace")
def _send_then_bad_trace(ctx, params, message):
    ctx.send(ag.make_message(ctx.agent_id, ctx.agent_id, "PING", "c", sent_at=ctx.now))
    ctx.trace({}, kind="nonsense")


@builtin_action("t.sim.trace_seen")
def _trace_seen(ctx, params, message):
    seen = ctx.state.setdefault("seen", [])
    seen.append(ctx.now)
    ctx.trace({"seen": seen, "nested": {"all": [seen]}})


@builtin_action("t.beh.mark")
def _mark(ctx, params, message):
    ctx.state.setdefault("marks", []).append([params["tag"], ctx.now])


@builtin_action("t.beh.cancel")
def _cancel(ctx, params, message):
    raise ag.CancelBehavior


@builtin_action("t.beh.boom")
def _boom(ctx, params, message):
    raise RuntimeError("boom")


# Predicates that do what the actions of the same name do.


@builtin_predicate("t.sim.send_then_bad_trace")
def _send_then_bad_trace_predicate(ctx, params):
    return _send_then_bad_trace(ctx, params, None)


@builtin_predicate("t.beh.cancel")
def _cancel_predicate(ctx, params):
    return _cancel(ctx, params, None)


@builtin_action("t.beh.keep_payload")
def _keep_payload(ctx, params, message):
    ctx.state["payload"] = json.loads(message.payload)


@builtin_action("t.beh.bad_label")
def _bad_label(ctx, params, message):
    return b"\xff"  # not UTF-8


def make_sim(message=1, migration=1, seed=0, max_ticks=10_000):
    return ag.SimPlatform(
        ag.SimConfig(
            seed=seed,
            message_latency=ag.Fixed(message),
            migration_latency=ag.Fixed(migration),
            max_ticks=max_ticks,
        )
    )


def make_mock(message=1, migration=1, seed=0, max_ticks=10_000):
    # The mock has no RNG; its delays are plain fixed integers.
    return ag.MockPlatform(message_delay=message, migration_delay=migration, max_ticks=max_ticks)


@pytest.fixture(params=["sim", "mock"])
def platform_factory(request):
    """Factory for a fresh platform. Parameterized over both runtime
    implementations so every test using it proves adapter-only coupling."""
    return make_sim if request.param == "sim" else make_mock


@pytest.fixture()
def sim():
    return make_sim()


def trace_lines(platform):
    return [e.to_json_line() for e in platform.trace()]


def events_of(platform, kind):
    return [e for e in platform.trace() if e.kind == kind]
