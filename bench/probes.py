"""Layer-boundary tracing for one benchmark run, from outside the package.

``Probe.install`` wraps the functions where agentry's layers meet and records
a span (name, start, end, parent) for every call, in memory; ``metrics``
derives the per-layer numbers from the spans once the run is over. A span's
self time is its duration minus the durations of its child spans.

Hooks, by layer:

* ``simulator`` - its module-level ``wake_satisfied``, counted in a run of
  its own: it is called millions of times, and even a bare counter around
  it would swell the simulator's self time in the timed run. The ``run``
  span is opened by the benchmark.
* ``model`` - the simulator's ``serialize_shell`` / ``deserialize_shell``.
* ``behavior`` - ``Behavior.step`` at every depth, so a composite's self
  time excludes its children, and ``AgentContext.take_message`` (to tell an
  idle step from one that consumed mail).
* ``trace`` - ``TraceLog.emit``; the render span is opened by the benchmark.

A hook that no longer exists is left unwrapped and the metrics that depend
on it are reported absent, never as 0.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, Optional

import agentry.model as model
import agentry.simulator as simulator
import agentry.trace as trace

STEP = "step:"

# Behavior kinds reported one by one; together they cover every kind the
# benchmark worlds use.
KINDS = ("client", "server", "task", "sequential", "parallel", "observer", "fsm", "itinerary")

# (owner, attribute) for every hook, by the metric group that needs it.
HOOKS = {
    "wake": (simulator, "wake_satisfied"),
    "serialize": (simulator, "serialize_shell"),
    "deserialize": (simulator, "deserialize_shell"),
    "step": (model.Behavior, "step"),
    "take": (model.AgentContext, "take_message"),
    "emit": (trace.TraceLog, "emit"),
}
COUNT_WAKES = ("wake",)
TIMED = tuple(group for group in HOOKS if group != "wake")


class Probe:
    """Spans and counters of one run. ``groups`` picks the hooks to install;
    the wake counter and the timed hooks belong in separate runs."""

    def __init__(self, groups: tuple[str, ...]) -> None:
        self.groups = groups
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.wake_checks = 0
        self.blob_bytes = 0
        self.step_ticks: set[int] = set()
        self.idle_steps = 0
        self._took = False
        self._last_wake: dict[int, tuple[Any, Any]] = {}
        self.missing = {group for group, (owner, attr) in HOOKS.items() if not hasattr(owner, attr)}
        self._restore: list[Callable[[], None]] = []

    # Spans -------------------------------------------------------------

    def span(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    # Installation ------------------------------------------------------

    def _patch(self, group: str, make: Callable[[Any], Any]) -> None:
        if group not in self.groups or group in self.missing:
            return
        owner, attr = HOOKS[group]
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._restore.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        probe = self

        def wake(original):
            def counted(*args, **kwargs):
                probe.wake_checks += 1
                return original(*args, **kwargs)

            return counted

        def serialize(original):
            def traced(shell):
                blob = probe.span("model.serialize", original, shell)
                probe.blob_bytes += len(blob)
                return blob

            return traced

        def spanned(name):
            return lambda original: lambda *args, **kwargs: probe.span(name, original, *args, **kwargs)

        def take(original):
            def traced(ctx, *args, **kwargs):
                msg = original(ctx, *args, **kwargs)
                probe._took = probe._took or msg is not None
                return msg

            return traced

        def step(original):
            def traced(behavior, ctx):
                if probe._open and probe.spans[probe._open[-1]][0].startswith(STEP):
                    return probe.span(STEP + behavior.kind, original, behavior, ctx)
                return probe._top_level_step(original, behavior, ctx)

            return traced

        self._patch("wake", wake)
        self._patch("serialize", serialize)
        self._patch("deserialize", spanned("model.deserialize"))
        self._patch("take", take)
        self._patch("step", step)
        self._patch("emit", spanned("trace.emit"))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
        self._last_wake.clear()  # it holds the world's behaviors

    def _top_level_step(self, original: Callable[..., Any], behavior: Any, ctx: Any) -> Any:
        self._took = False
        outcome = self.span(STEP + behavior.kind, original, behavior, ctx)
        self.step_ticks.add(ctx.now)
        key = id(behavior)
        if isinstance(outcome, model.Blocked):
            previous = self._last_wake.get(key)
            if previous is not None and previous[1] == outcome.wake and not ctx.effects and not self._took:
                self.idle_steps += 1
            self._last_wake[key] = (behavior, outcome.wake)  # holding the behavior keeps its id unique
        else:
            self._last_wake.pop(key, None)
        return outcome

    # Metrics -----------------------------------------------------------

    def metrics(
        self, wake_checks: Optional[int], event_ticks: set[int], trace_bytes: int, events: int
    ) -> dict[str, Optional[float]]:
        """Per-layer numbers of the finished run, given the wake-check count
        of a separate counting run. ``None`` marks a metric whose hook is
        missing."""
        duration = [end - start for _, start, end, _ in self.spans]
        children = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += duration[i]
        total: Counter = Counter()
        count: Counter = Counter()
        self_time: Counter = Counter()
        top_steps = 0
        top_step_s = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            total[name] += duration[i]
            count[name] += 1
            self_time[name] += duration[i] - children[i]
            if name.startswith(STEP) and (parent < 0 or not self.spans[parent][0].startswith(STEP)):
                top_steps += 1
                top_step_s += duration[i]
        run_s = total["run"]
        missing = self.missing
        out: dict[str, Optional[float]] = {
            "simulator.self_s": self_time["run"],
            "simulator.self_share": self_time["run"] / run_s,
            "simulator.wake_checks": wake_checks,
            "simulator.wake_checks_per_step": wake_checks / top_steps if top_steps and wake_checks is not None else None,
            "simulator.active_ticks": len(self.step_ticks | event_ticks),
            "model.serialize_calls": count["model.serialize"],
            "model.serialize_s": total["model.serialize"],
            "model.deserialize_calls": count["model.deserialize"],
            "model.deserialize_s": total["model.deserialize"],
            "model.blob_bytes": self.blob_bytes,
            "model.deserialize_share": total["model.deserialize"] / run_s,
            "behavior.steps": top_steps,
            "behavior.step_s": top_step_s,
            "behavior.idle_steps": self.idle_steps,
            "behavior.idle_step_ratio": self.idle_steps / top_steps if top_steps else 0.0,
            "trace.events": events,
            "trace.emit_s": total["trace.emit"],
            "trace.render_s": total["render"],
            "trace.bytes": trace_bytes,
            "scenario.validate_s": total["validate"],
            "scenario.build_s": total["build"],
        }
        for kind in KINDS:
            out[f"behavior.{kind}.steps"] = count[STEP + kind]
            out[f"behavior.{kind}.self_s"] = self_time[STEP + kind]
        absent = {
            "serialize": ("model.serialize_calls", "model.serialize_s", "model.blob_bytes"),
            "deserialize": ("model.deserialize_calls", "model.deserialize_s", "model.deserialize_share"),
            "take": ("behavior.idle_steps", "behavior.idle_step_ratio"),
            "emit": ("trace.emit_s",),
        }
        for group in missing:
            for name in absent.get(group, ()):
                out[name] = None
        if missing & {"serialize", "deserialize", "step", "emit"}:
            out["simulator.self_s"] = out["simulator.self_share"] = None
        if "step" in missing:
            for name in list(out):
                if name.startswith("behavior.") or name == "simulator.wake_checks_per_step":
                    out[name] = None
        return out
