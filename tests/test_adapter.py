"""The adapter contract both platforms implement: its members, agent ids,
and action names that resolve on every platform."""

import inspect
import itertools

import pytest

import agentry as ag
from agentry.actions import builtin_action, builtin_predicate
from agentry.model import AgentId
from agentry.trace import EventKind

_late_names = itertools.count()


@pytest.mark.parametrize("platform_class", [ag.SimPlatform, ag.MockPlatform])
def test_each_platform_has_every_adapter_member_with_its_parameter_names(platform_class):
    members = [name for name in vars(ag.PlatformAdapter) if not name.startswith("_")]
    assert "spawn_agent" in members and "run" in members
    for name in members:
        wanted = getattr(ag.PlatformAdapter, name)
        assert hasattr(platform_class, name), name
        if inspect.isfunction(wanted):
            got = inspect.signature(getattr(platform_class, name)).parameters
            assert list(got) == list(inspect.signature(wanted).parameters), name
    assert isinstance(platform_class(), ag.PlatformAdapter)


def test_an_action_and_a_predicate_registered_after_the_platform_is_built_resolve_on_it(platform_factory):
    p = platform_factory()
    n = next(_late_names)
    action, predicate = f"t.adapter.late_action.{n}", f"t.adapter.late_predicate.{n}"

    @builtin_action(action)
    def _hello(ctx, params, message):
        ctx.trace({"hello": params})

    @builtin_predicate(predicate)
    def _always(ctx, params):
        return True

    loc = p.create_location("l")
    agent = p.spawn_agent(
        loc,
        [
            ag.Task(ag.ActionDescriptor(action, "task")),
            ag.Observer(2, ag.ActionDescriptor(predicate), ag.ActionDescriptor(action, "observer")),
        ],
    )
    p.run(None)
    custom = [(e.tick, e.agent, e.detail) for e in p.trace() if e.kind == EventKind.CUSTOM]
    assert custom == [(0, agent, {"hello": "task"}), (2, agent, {"hello": "observer"})]


def _noop_task():
    return [ag.Task(ag.ActionDescriptor("noop"))]


def test_an_explicit_agent_id_must_be_reserved_and_unused(platform_factory):
    p = platform_factory()
    loc = p.create_location("l")
    for never_reserved in (AgentId(0), AgentId(1), AgentId(2), AgentId(-1)):
        with pytest.raises(ValueError):
            p.spawn_agent(loc, _noop_task(), agent_id=never_reserved)
    assert list(p.trace()) == []

    first = p.spawn_agent(loc, _noop_task())
    with pytest.raises(ValueError):
        p.spawn_agent(loc, _noop_task(), agent_id=first)
    reserved = p.reserve_agent_id()
    assert p.spawn_agent(loc, _noop_task(), agent_id=reserved) == reserved
    third = p.spawn_agent(loc, _noop_task())
    assert [first, reserved, third] == [AgentId(1), AgentId(2), AgentId(3)]
    spawned = [e.agent for e in p.trace() if e.kind == EventKind.SPAWN]
    assert spawned == [first, reserved, third]

    p.run(None)
    terminated = [e.agent for e in p.trace() if e.kind == EventKind.TERMINATE]
    assert sorted(terminated) == [first, reserved, third]
