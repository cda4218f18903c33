"""Traveling under deadlines: routes, arrival windows, and delay estimates.

An itinerary drives its agent through an ordered route of objectives, each a
location with an inclusive [earliest, latest] arrival window expressed as
offsets from the route's base time. Arriving early means waiting for the
window to open; arriving late means enacting the configured missed-objective
policy, or halting for good when there is none.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as esc
from typing import Any, Optional

from .actions import ActionDescriptor
from .errors import EmptyRoute
from .model import (
    _TEXTS,
    DONE,
    RUNNING,
    AgentContext,
    AtTime,
    Behavior,
    Blocked,
    Done,
    LocationId,
    Never,
    OnArrival,
    StepOutcome,
    Ticks,
    _encode,
    bound_marker,
    clone_behavior,
    column,
    nested,
    nested_list,
    read_bool,
    read_fraction,
    read_instance,
    read_int,
    read_items,
    read_list,
    read_object,
    read_one_of,
    record,
)

Window = tuple[Ticks, Optional[Ticks]]


def _location(value: Any) -> LocationId:
    try:
        return LocationId.from_jsonable(value)
    except KeyError as miss:  # a scenario's {"$location": name}, or the error
        return bound_marker(value, "$location", miss)


@record(frozen=True, noun="objective")
class Objective:
    """One stop: where to be, when to be there, what to do on arrival.

    Offsets are relative to the route's base time; a ``latest_offset`` of
    None leaves the window open-ended.
    """

    location: LocationId = column(read_instance, "objective location", LocationId, encode="to_jsonable", decode=_location)
    earliest_offset: Ticks = column(read_int, "objective earliest", 0, key="earliest", default=0)
    latest_offset: Optional[Ticks] = column(key="latest", default=None)  # read by _check, as its bound is earliest
    stop_tasks: tuple[ActionDescriptor, ...] = nested_list(ActionDescriptor, "objective tasks", tuple, key="tasks", default=())

    def _check(self) -> None:
        read_int(self.latest_offset, "objective latest", self.earliest_offset, null=True)


# An objective without stop tasks holds only a frozen LocationId, ints and an
# empty tuple, so every decode of the same values may share one instance, and
# so may every decode of a route made only of such objectives. The keys carry
# the location name because LocationId equality ignores it. A miss goes
# through the constructors, so a tampered window is still rejected. Stop tasks
# carry mutable params, so neither they nor a route holding one are shared.
@functools.lru_cache(maxsize=4096)
def _task_free_objective(value: int, name: str, earliest: Ticks, latest: Optional[Ticks]) -> Objective:
    return Objective(LocationId(value, name), earliest, latest)


ObjectiveRow = tuple[int, str, Ticks, Optional[Ticks]]


@functools.lru_cache(maxsize=4096)
def _task_free_route(rows: tuple[ObjectiveRow, ...], base_time: Optional[Ticks]) -> "Route":
    return Route(tuple(_task_free_objective(*row) for row in rows), base_time)


def _task_free_rows(objectives: Any) -> Optional[tuple[ObjectiveRow, ...]]:
    """The (location value, name, earliest, latest) of each objective; None
    unless each has no stop tasks and fields the Objective constructor's
    readers accept. The checks are inline, as this loop runs on every hop."""
    if type(objectives) is not list:
        return None
    rows = []
    for o in objectives:
        location, earliest, latest = o["location"], o.get("earliest", 0), o.get("latest")
        try:
            value, name = location["value"], location["name"]
        except KeyError as miss:  # a scenario's {"$location": name}, or the error
            where = bound_marker(location, "$location", miss)
            value, name = where.value, where.name
        if o.get("tasks", []) != [] or not (
            type(value) is int and type(name) is str and type(earliest) is int and (latest is None or type(latest) is int)
        ):
            return None
        rows.append((value, name, earliest, latest))
    return tuple(rows)


@dataclass(frozen=True)
class Route:
    """A non-empty ordered list of objectives anchored at ``base_time``.

    ``base_time=None`` anchors the route at the tick the itinerary behavior
    first steps; the resolved value never changes afterwards.
    """

    objectives: tuple[Objective, ...]
    base_time: Optional[Ticks] = 0

    _noun = "route"

    def __post_init__(self) -> None:
        read_int(self.base_time, "route base_time", null=True)
        object.__setattr__(self, "objectives", read_items(self.objectives, "route objectives", Objective, tuple))
        if not self.objectives:
            raise EmptyRoute("a route needs at least one objective")

    def window(self, index: int, base: Ticks) -> Window:
        obj = self.objectives[index]
        end = None if obj.latest_offset is None else base + obj.latest_offset
        return (base + obj.earliest_offset, end)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "objectives": [o.to_jsonable() for o in self.objectives],
            "base_time": self.base_time,
        }

    def _text(self) -> str:
        """The canonical JSON text of ``to_jsonable()``, kept once written if no
        objective has stop tasks: such a route holds only frozen values."""
        text = self.__dict__.get("_written")
        if text is None:
            stops = ",".join([o._text() if o.__class__ in _TEXTS["to_jsonable"] else _encode(o.to_jsonable()) for o in self.objectives])
            text = f'{{"base_time":{_encode(self.base_time)},"objectives":[{stops}]}}'
            if all(o.__class__ is Objective and o.location.__class__ is LocationId and not o.stop_tasks for o in self.objectives):
                self.__dict__["_written"] = text
        return text

    @classmethod
    def from_jsonable(cls, d: dict[str, Any]) -> "Route":
        try:
            rows, base_time = _task_free_rows(d["objectives"]), d.get("base_time")
        except (AttributeError, KeyError, TypeError):
            # What indexing a JSON value of the wrong shape raises. Only the
            # per-objective path below raises in the order a document's
            # diagnostics report: each objective's fields, then its window,
            # then the next objective, then base_time.
            rows = None
        if rows is not None and (base_time is None or type(base_time) is int):
            return _task_free_route(rows, base_time)
        objectives = []
        for o in read_list(read_object(d, "route")["objectives"], "route objectives"):
            o = Objective.from_jsonable(o)
            where = o.location  # a task-free objective is shared, as on the fast path
            objectives.append(o if o.stop_tasks else _task_free_objective(where.value, where.name, o.earliest_offset, o.latest_offset))
        return cls(tuple(objectives), d.get("base_time"))


# ---------------------------------------------------------------------------
# Arrival classification
# ---------------------------------------------------------------------------


class ArrivalClass:
    """Marker base: Early, OnTime, or Late."""


@dataclass(frozen=True)
class Early(ArrivalClass):
    wait_until: Ticks


@dataclass(frozen=True)
class OnTime(ArrivalClass):
    pass


@dataclass(frozen=True)
class Late(ArrivalClass):
    by: Ticks


def classify_arrival(window: Window, arrival: Ticks) -> ArrivalClass:
    """Inclusive at both bounds: early strictly before the window, late
    strictly after it, on time otherwise."""
    start, end = window
    if arrival < start:
        return Early(wait_until=start)
    if end is not None and arrival > end:
        return Late(by=arrival - end)
    return OnTime()


# ---------------------------------------------------------------------------
# Delay estimation
# ---------------------------------------------------------------------------

Link = tuple[str, str]


def _fraction_to_jsonable(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


@functools.lru_cache(maxsize=4096)
def _fraction(numerator: int, denominator: int) -> Fraction:
    return Fraction(numerator, denominator)


def _fraction_from_jsonable(pair: Any, label: str) -> Fraction:
    # Only the lowest-terms pair _fraction_to_jsonable writes. Fraction is
    # immutable, so every decode of a pair may share one.
    numerator, denominator = pair if type(pair) is list and len(pair) == 2 else (None, None)
    value = _fraction(numerator, denominator) if type(numerator) is int and type(denominator) is int and denominator > 0 else None
    if value is None or value.numerator != numerator or value.denominator != denominator:
        raise ValueError(f"{label} must be [numerator, denominator] in lowest terms, got {pair!r}")
    return value


def _read_link(link: Any) -> Link:
    if type(link) is not tuple or len(link) != 2 or type(link[0]) is not str or type(link[1]) is not str:
        raise ValueError(f"estimator link must be a (source, destination) pair of strings, got {link!r}")
    return link


def _check_bounds(alpha: Fraction, default: Fraction, links: dict[Link, Fraction]) -> None:
    # A Fraction's denominator is always positive, so integer comparisons of
    # its parts decide these bounds without Fraction arithmetic.
    if not 0 <= alpha.numerator <= alpha.denominator:
        raise ValueError("alpha must lie in [0, 1]")
    if default.numerator < 0:
        raise ValueError("default_estimate must be non-negative")
    if any(value.numerator < 0 for value in links.values()):
        raise ValueError("link estimates must be non-negative")


@dataclass(frozen=True)
class DelayEstimator:
    """Per-link travel time estimates smoothed exponentially.

    After observing latency d on a link with prior estimate e the new
    estimate is alpha*d + (1-alpha)*e, computed exactly on rationals.
    Unobserved links report ``default_estimate``. Updates return a new
    estimator; instances never mutate.
    """

    alpha: Fraction = Fraction(1, 2)
    default_estimate: Fraction = Fraction(0)
    links: dict[Link, Fraction] = field(default_factory=dict)

    _noun = "estimator"

    def __post_init__(self) -> None:
        alpha = read_fraction(self.alpha, "estimator alpha")
        default = read_fraction(self.default_estimate, "estimator default")
        # A copy, so the caller's table neither changes nor changes this one.
        links = dict(read_object(self.links, "estimator links"))
        for link, value in links.items():
            links[_read_link(link)] = read_fraction(value, "link estimate")
        _check_bounds(alpha, default, links)
        self.__dict__.update(alpha=alpha, default_estimate=default, links=links)

    @classmethod
    def _of(cls, alpha: Fraction, default: Fraction, links: dict[Link, Fraction]) -> "DelayEstimator":
        """An estimator of values already read and checked, built without the
        constructor's reads: the decoder and ``updated`` build one per hop."""
        est = object.__new__(cls)
        est.__dict__.update(alpha=alpha, default_estimate=default, links=links)
        return est

    def estimate(self, link: Link) -> Fraction:
        return self.links.get(link, self.default_estimate)

    def updated(self, link: Link, observed: Ticks) -> "DelayEstimator":
        """This estimator with ``observed`` folded into ``link``'s estimate.
        The new estimate mixes a non-negative observation with a checked
        one, so it is non-negative too and needs no re-check."""
        if observed < 0:
            raise ValueError("observed latency must be non-negative")
        prior = self.estimate(_read_link(link))
        an, ad = self.alpha.numerator, self.alpha.denominator
        en, ed = prior.numerator, prior.denominator
        # alpha*observed + (1-alpha)*prior over the common denominator ad*ed:
        # one exact Fraction instead of four Fraction operations.
        links = dict(self.links)
        links[link] = _fraction(an * observed * ed + (ad - an) * en, ad * ed)
        return DelayEstimator._of(self.alpha, self.default_estimate, links)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "alpha": _fraction_to_jsonable(self.alpha),
            "default": _fraction_to_jsonable(self.default_estimate),
            "links": [
                [src, dst, _fraction_to_jsonable(value)]
                for (src, dst), value in sorted(self.links.items())
            ],
        }

    def _text(self) -> str:
        """``to_jsonable()``'s canonical JSON text: a link holds the str names and Fraction read."""
        alpha, default = self.alpha, self.default_estimate
        links = ",".join([f"[{esc(s)},{esc(d)},[{v.numerator},{v.denominator}]]" for (s, d), v in sorted(self.links.items())])
        return f'{{"alpha":[{alpha.numerator},{alpha.denominator}],"default":[{default.numerator},{default.denominator}],"links":[{links}]}}'

    @classmethod
    def from_jsonable(cls, d: dict[str, Any]) -> "DelayEstimator":
        """Reads what the constructor reads, then builds without it."""
        alpha = _fraction_from_jsonable(read_object(d, "estimator")["alpha"], "estimator alpha")
        default = _fraction_from_jsonable(d["default"], "estimator default")
        written = read_list(d.get("links", []), "estimator links")
        links = {}
        for link in written:
            # Names are read before they become a dict key, which must be hashable.
            if type(link) is not list or len(link) != 3 or type(link[0]) is not str or type(link[1]) is not str:
                raise ValueError(f"estimator link must be [source name, destination name, [n, d]], got {link!r}")
            links[link[0], link[1]] = _fraction_from_jsonable(link[2], "link estimate")
        if len(links) != len(written) or list(links) != sorted(links):  # as to_jsonable writes them
            raise ValueError(f"estimator links must be sorted by link, each once, got {written!r}")
        _check_bounds(alpha, default, links)
        return cls._of(alpha, default, links)


_TEXTS["to_jsonable"].update({Route: None, DelayEstimator: None})


def next_departure_plan(
    est: DelayEstimator,
    current: LocationId,
    nxt: Objective,
    now: Ticks,
    base_time: Ticks = 0,
) -> Ticks:
    """Latest safe departure tick: leave so the predicted arrival does not
    precede the window, but never earlier than now. When even an immediate
    departure predicts a late arrival this still returns ``now`` (best
    effort; the late path handles the rest)."""
    window_start = base_time + nxt.earliest_offset
    estimate = est.estimate((current.name, nxt.location.name))
    # ceil(window_start - n/d) == window_start - floor(n/d), as d > 0.
    return max(now, window_start - estimate.numerator // estimate.denominator)


# ---------------------------------------------------------------------------
# The itinerary behavior
# ---------------------------------------------------------------------------


@record(frozen=True, noun="itinerary config")
class ItineraryConfig:
    """Route, arrival listeners, and the missed-objective policy. Frozen:
    none of it can change once the behavior is enacted."""

    route: Route = nested(Route, "itinerary route")
    reached_listeners: tuple[ActionDescriptor, ...] = nested_list(
        ActionDescriptor, "itinerary listeners", tuple, key="listeners", default=()
    )
    missed_behavior: Optional[Behavior] = nested(Behavior, "itinerary missed_behavior", null=True, default=None)


_START = "start"
_DEPART = "depart"
_TRAVELING = "traveling"
_WINDOW_WAIT = "window_wait"
_MISSED = "missed"
_HALTED = "halted"
_PHASES = (_START, _DEPART, _TRAVELING, _WINDOW_WAIT, _MISSED, _HALTED)


def _read_estimator(value: Any, label: str) -> DelayEstimator:
    """An estimator, or a fresh default one for None."""
    return DelayEstimator() if read_instance(value, label, DelayEstimator, null=True) is None else value


@record(eq=False, repr=False)
class Itinerary(Behavior):
    """Visit the route's objectives in order, respecting arrival windows.

    Per objective: travel there (immediately by default; with
    ``planned_departures`` the departure is delayed to the latest tick the
    delay estimator still predicts an on-time arrival). On arrival the stop
    is classified against its absolute window. Early waits for the window to
    open, then proceeds as on time: the reached listeners fire, then the
    stop tasks run, then the journey continues. Late traces the miss and
    enacts a fresh copy of the missed-objective behavior before skipping to
    the next stop; without one the itinerary halts permanently and the halt
    is traced (the agent's other behaviors keep running).

    Observed migration latencies feed the estimator as the journey unfolds.
    """

    kind = "itinerary"
    config: ItineraryConfig = nested(ItineraryConfig, "itinerary config")
    planned_departures: bool = column(read_bool, "itinerary planned", key="planned", default=False)
    # The blob always holds it; None builds the default estimator.
    estimator: Optional[DelayEstimator] = column(
        _read_estimator, "itinerary estimator", encode="to_jsonable", decode=DelayEstimator.from_jsonable,
        default=None, absent=MISSING,
    )
    # Read by _check, as what it may hold depends on the phase.
    _base: Optional[Ticks] = column(default=None, kw_only=True)
    _index: int = column(read_int, "itinerary index", default=0, kw_only=True)
    _phase: str = column(read_one_of, "itinerary phase", _PHASES, default=_START, kw_only=True)
    _arrival: Optional[Ticks] = column(read_int, "itinerary arrival", null=True, default=None, kw_only=True)
    _arrival_class: str = column(read_one_of, "itinerary arrival_class", ("", "early", "on_time"), default="", kw_only=True)
    _missed_clone: Optional[Behavior] = nested(Behavior, "itinerary missed_clone", null=True, default=None, kw_only=True)

    def _check(self) -> None:
        if self._phase != _START and not isinstance(self._base, int):
            raise ValueError(f"itinerary base must be an integer past {_START!r}, got {self._base!r}")
        read_int(self._base, "itinerary base", null=True)
        # Reject any progress _step could not resume from. A finished
        # itinerary never steps again; it may rest one past the last objective.
        index, stops = self._index, len(self.config.route.objectives)
        if not (0 <= index < stops or (self._finished and index == stops)):
            raise ValueError(f"itinerary index {index} out of range for {stops} objectives")
        if self._phase == _MISSED and not self._finished and self._missed_clone is None:
            raise ValueError(f"itinerary phase {_MISSED!r} needs a missed_clone")

    # Stepping --------------------------------------------------------------

    def _objective(self) -> Objective:
        return self.config.route.objectives[self._index]

    def _window(self) -> Window:
        return self.config.route.window(self._index, self._base)

    def _step(self, ctx: AgentContext) -> StepOutcome:
        if self._phase == _START:
            route_base = self.config.route.base_time
            self._base = route_base if route_base is not None else ctx.now
            self._phase = _DEPART
        if self._phase == _DEPART:
            return self._depart(ctx)
        if self._phase == _TRAVELING:
            return self._traveling(ctx)
        if self._phase == _WINDOW_WAIT:
            if ctx.now < self._window()[0]:
                return Blocked(AtTime(self._window()[0]))
            return self._process_objective(ctx)
        if self._phase == _MISSED:
            return self._run_missed(ctx)
        return Blocked(Never())  # halted

    def _depart(self, ctx: AgentContext) -> StepOutcome:
        obj = self._objective()
        if ctx.location == obj.location:
            return self._handle_arrival(ctx, arrival=ctx.now)
        if self.planned_departures:
            depart_at = next_departure_plan(self.estimator, ctx.location, obj, ctx.now, self._base)
            if ctx.now < depart_at:
                return Blocked(AtTime(depart_at))
        ctx.request_migration(obj.location)
        self._phase = _TRAVELING
        return Blocked(OnArrival(obj.location))

    def _traveling(self, ctx: AgentContext) -> StepOutcome:
        obj = self._objective()
        if ctx.location != obj.location:
            return Blocked(OnArrival(obj.location))
        report = ctx.last_migration
        arrival = ctx.now
        if report is not None and report.dest == obj.location:
            self.estimator = self.estimator.updated((report.src.name, report.dest.name), report.latency)
            arrival = report.arrived_at
        return self._handle_arrival(ctx, arrival=arrival)

    def _handle_arrival(self, ctx: AgentContext, arrival: Ticks) -> StepOutcome:
        obj = self._objective()
        verdict = classify_arrival(self._window(), arrival)
        self._arrival = arrival
        if isinstance(verdict, Late):
            ctx.trace(
                {
                    "objective": self._index,
                    "location": obj.location.name,
                    "arrival": arrival,
                    "by": verdict.by,
                },
                kind="objective_missed",
            )
            if self.config.missed_behavior is None:
                self._phase = _HALTED
                ctx.trace(
                    {"halted": True, "objective": self._index, "location": obj.location.name}
                )
                return Blocked(Never())
            self._missed_clone = clone_behavior(self.config.missed_behavior)
            self._phase = _MISSED
            return self._run_missed(ctx)
        if isinstance(verdict, Early):
            self._arrival_class = "early"
            self._phase = _WINDOW_WAIT
            return Blocked(AtTime(verdict.wait_until))
        self._arrival_class = "on_time"
        return self._process_objective(ctx)

    def _process_objective(self, ctx: AgentContext) -> StepOutcome:
        obj = self._objective()
        ctx.trace(
            {
                "objective": self._index,
                "location": obj.location.name,
                "arrival": self._arrival,
                "class": self._arrival_class,
            },
            kind="objective_reached",
        )
        for descriptor in (*self.config.reached_listeners, *obj.stop_tasks):
            ctx.attempt(ctx.run_action, descriptor, None, action=descriptor.name)
        return self._advance(ctx)

    def _run_missed(self, ctx: AgentContext) -> StepOutcome:
        outcome = self._missed_clone.step(ctx)
        if isinstance(outcome, Done):
            self._missed_clone = None
            return self._advance(ctx)
        return outcome

    def _advance(self, ctx: AgentContext) -> StepOutcome:
        self._index += 1
        self._arrival = None
        self._arrival_class = ""
        if self._index >= len(self.config.route.objectives):
            return DONE
        self._phase = _DEPART
        return RUNNING
