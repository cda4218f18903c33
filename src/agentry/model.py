"""Core runtime model: identities, virtual time, messages, and the behavior contract.

Everything an agent can be or do is expressed through the types here; the
platform modules only schedule them. All mutable agent state (the shell, the
key/value store, behavior internals) must stay JSON-serializable so an agent
can be detached, serialized, moved, and resumed at another location.
"""

from __future__ import annotations

import json
from binascii import a2b_base64, b2a_base64
from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterable, Optional, Union

from . import actions  # the module: actions imports this one's readers
from .errors import EmptyTypeTag, SteppingDone
from .trace import CANONICAL_ENCODER, EventKind, _c_encoder

if TYPE_CHECKING:
    from .adapter import PlatformAdapter

# Simulation time is a dimensionless non-negative integer tick count.
Ticks = int

WILDCARD = "*"


# ---------------------------------------------------------------------------
# Wake conditions and step outcomes
# ---------------------------------------------------------------------------


class WakeCondition:
    """Base for the conditions a blocked behavior waits on.

    Each condition evaluates itself: ``satisfied`` says whether it holds for
    an agent's current situation and ``next_tick`` names the earliest tick
    at which time alone could make it hold (None when no tick can). A
    subclass that does not define ``satisfied`` is rejected when it is first
    checked. The runtimes check wakes only for agents that are present at a
    location: an agent in transit is never stepped, and its behaviors start
    afresh when it lands.

    Wake conditions are immutable values. A behavior may return the same
    instance from many steps, and many behaviors may share one; the runtimes
    never mutate a wake or compare wakes by identity.
    """

    def satisfied(self, now: Ticks, shell: AgentShell) -> bool:
        raise TypeError(f"unknown wake condition {self!r}")

    def next_tick(self) -> Ticks | None:
        return None


@dataclass(frozen=True)
class AtTime(WakeCondition):
    """Wake once the clock reaches ``tick`` (clock >= tick)."""

    tick: Ticks

    def satisfied(self, now: Ticks, shell: AgentShell) -> bool:
        return now >= self.tick

    def next_tick(self) -> Ticks | None:
        return self.tick


@dataclass(frozen=True)
class OnMessage(WakeCondition):
    """Wake when the inbox holds a message matching ``type_filter``."""

    type_filter: str = WILDCARD

    def satisfied(self, now: Ticks, shell: AgentShell) -> bool:
        type_filter = self.type_filter
        if type_filter == WILDCARD:
            return bool(shell.inbox)
        for msg in shell.inbox:
            if msg.type_tag == type_filter:
                return True
        return False


@dataclass(frozen=True)
class OnArrival(WakeCondition):
    """Wake once the agent is at ``location``. Wakes are checked only for
    agents that are present, so this never holds in transit."""

    location: LocationId

    def satisfied(self, now: Ticks, shell: AgentShell) -> bool:
        return shell.current == self.location


@dataclass(frozen=True)
class AnyOf(WakeCondition):
    """Wake when any member condition is satisfied.

    Needed by composites whose children block on different conditions, and by
    behaviors that race a message against a deadline.
    """

    members: tuple[WakeCondition, ...]

    def __init__(self, members: Iterable[WakeCondition]):
        object.__setattr__(self, "members", tuple(members))

    def satisfied(self, now: Ticks, shell: AgentShell) -> bool:
        for member in self.members:
            if member.satisfied(now, shell):
                return True
        return False

    def next_tick(self) -> Ticks | None:
        earliest = None
        for member in self.members:
            tick = member.next_tick()
            if tick is not None and (earliest is None or tick < earliest):
                earliest = tick
        return earliest


@dataclass(frozen=True)
class Never(WakeCondition):
    """A condition that is never satisfied; blocks the behavior permanently
    without keeping the runtime busy."""

    def satisfied(self, now: Ticks, shell: AgentShell) -> bool:
        return False


class StepOutcome:
    """Base for what a behavior reports after one step.

    Outcomes are immutable values, like the wakes they carry: a behavior may
    return one shared instance (``RUNNING``, ``DONE`` or a module constant
    such as ``Blocked(OnMessage(REQUEST))``) from every step. The runtimes
    never mutate an outcome or compare outcomes by identity; they tell them
    apart with ``isinstance``, so subclasses of ``Running``, ``Blocked`` and
    ``Done`` behave as their bases.
    """


@dataclass(frozen=True)
class Running(StepOutcome):
    """The behavior made progress and wants another step next tick."""


@dataclass(frozen=True)
class Done(StepOutcome):
    """The behavior finished; the runtime must never step it again."""


@dataclass(frozen=True)
class Blocked(StepOutcome):
    """The behavior is waiting; step it again once ``wake`` is satisfied.

    Runtimes may also step a blocked behavior early (for example right after
    a migration); behaviors must treat such spurious steps as no-ops. A
    Blocked is an immutable value that may be shared across steps and
    behaviors (see StepOutcome).
    """

    wake: WakeCondition


RUNNING = Running()
DONE = Done()


class CancelBehavior(BaseException):
    """Raised by user code to end the behavior being stepped.

    Whichever action, callback, activity or predicate raises it, the
    behavior whose step is running finishes (``Behavior.step`` turns the
    cancel into ``Done``); effects buffered before the cancel are kept.
    Derives from BaseException so ``AgentContext.attempt``, which traces
    ordinary errors and carries on, does not swallow it.
    """


# ---------------------------------------------------------------------------
# Behavior contract
# ---------------------------------------------------------------------------

_BEHAVIOR_KINDS: dict[str, type["Behavior"]] = {}


def behavior_kinds() -> dict[str, type["Behavior"]]:
    """Snapshot of all registered behavior kinds (kind name -> class)."""
    return dict(_BEHAVIOR_KINDS)


class Behavior:
    """A resumable unit of agent activity, advanced one quantum per step.

    Subclasses set a class-level ``kind`` string (which auto-registers them
    for deserialization) and implement ``_step``, ``_to_dict_body`` and
    ``_from_dict_body``; a ``@record(eq=False, repr=False)`` subclass declares
    its fields as columns and gets the last two generated, with its
    ``__init__``. Two behaviors
    compare equal when their serialized forms match, internal progress
    included.
    """

    kind: ClassVar[str]
    _noun = "behavior"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("kind")
        if kind is None:
            return
        existing = _BEHAVIOR_KINDS.get(kind)
        if existing is not None and existing is not cls:
            raise ValueError(f"behavior kind {kind!r} already registered by {existing.__name__}")
        _BEHAVIOR_KINDS[kind] = cls

    def __init__(self) -> None:
        self._finished = False

    @property
    def finished(self) -> bool:
        return self._finished

    def step(self, ctx: "AgentContext") -> StepOutcome:
        """Advance exactly one quantum. Raises SteppingDone after Done.

        A CancelBehavior raised during the step finishes this behavior."""
        if self._finished:
            raise SteppingDone(f"behavior {self.kind!r} stepped after completion")
        try:
            outcome = self._step(ctx)
        except CancelBehavior:
            outcome = DONE
        if isinstance(outcome, Done):
            self._finished = True
        return outcome

    def _step(self, ctx: "AgentContext") -> StepOutcome:
        raise NotImplementedError

    # Serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"kind": self.kind, "done": self._finished}
        d.update(self._to_dict_body())
        return d

    def _to_dict_body(self) -> dict[str, Any]:
        raise NotImplementedError

    @classmethod
    def _from_dict_body(cls, d: dict[str, Any]) -> "Behavior":
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Behavior):
            return NotImplemented
        return type(other) is type(self) and other.to_dict() == self.to_dict()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} done={self._finished}>"


def behavior_from_dict(d: dict[str, Any]) -> Behavior:
    """Rebuild a behavior from its serialized form, dispatching on ``kind``."""
    if not isinstance(d, dict):
        raise _mistyped("behavior", "an object", d)
    kind = d.get("kind")
    cls = _BEHAVIOR_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown behavior kind {kind!r}")
    if cls in _RECORDS:  # a generated decoder stores done
        return cls._from_dict_body(d)
    if _MARKERS[0] is not None:  # a hand-written decoder reads a tree whose markers are bound
        raise ValueError(f"behavior kind {kind!r} reads a scenario's markers only once they are bound")
    behavior = cls._from_dict_body(d)
    behavior._finished = read_bool(d.get("done", False), "done")
    return behavior


def behavior_text(behavior: Behavior) -> str:
    """The canonical JSON text of ``behavior.to_dict()``, in a frame of its own
    as ``behavior_from_dict`` is, so a tree too deep to decode is too deep to write."""
    return behavior._text() if behavior.__class__ in _TEXTS["to_dict"] else _encode(behavior.to_dict())


def clone_behavior(behavior: Behavior) -> Behavior:
    """Fresh copy of a behavior via a serialization round-trip."""
    return behavior_from_dict(behavior.to_dict())


# ---------------------------------------------------------------------------
# Field readers: each column of a record reads its field through one of
# these (see ``record``), and a hand-written constructor or decoder reads
# through them too, so a constructor and a decoder accept the same values. A
# reader returns the value kept or raises "<label> must be <what>, got
# <value!r>"; nothing converts, so true is not 1 and 5 is not "5".
# ---------------------------------------------------------------------------


def _mistyped(label: str, what: str, value: Any, null: bool = False) -> ValueError:
    """The error a reader raises; ``null`` when the field also takes None."""
    return ValueError(f"{label} must be {'null or ' if null else ''}{what}, got {value!r}")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def read_int(value: Any, label: str, lo: Optional[int] = None, hi: Optional[int] = None, *, null: bool = False) -> Any:
    """An int that is not a bool, at least ``lo`` when it is given and at
    most ``hi`` when that is given too. A plain int skips the call to _is_int."""
    if (value.__class__ is int or _is_int(value)) and (lo is None or lo <= value and (hi is None or value <= hi)) or null and value is None:
        return value
    what = "an integer" if lo is None else f"an integer of at least {lo}" if hi is None else f"an integer from {lo} to {hi}"
    raise _mistyped(label, what, value, null)


def read_bool(value: Any, label: str) -> bool:
    if value is True or value is False:
        return value
    raise _mistyped(label, "true or false", value)


def read_str(value: Any, label: str, *, nonempty: bool = False, null: bool = False) -> Any:
    if isinstance(value, str) and (value or not nonempty) or null and value is None:
        return value
    raise _mistyped(label, "a non-empty string" if nonempty else "a string", value, null)


def read_one_of(value: Any, label: str, choices: tuple[str, ...]) -> str:
    if isinstance(value, str) and value in choices:
        return value
    raise _mistyped(label, f"one of {choices}", value)


def _bounded(literal: str) -> bool:
    """At most 1,000 characters, with an exponent of at most 1,000 in size:
    Fraction builds 10**exponent, so "1e999999999" alone would stall."""
    _, e, exponent = literal.lower().partition("e")
    try:
        return len(literal) <= 1000 and (not e or abs(int(exponent)) <= 1000)
    except ValueError:
        return True  # not a number at all; Fraction rejects it


def read_fraction(value: Any, label: str) -> Fraction:
    """The one rule for an exact number: a Fraction as it is, an int that is
    not a bool, or a decimal or "a/b" literal. A float reads as its shortest
    decimal literal, so 0.3 is 3/10, not the double nearest it. A literal
    must be at most 1,000 characters long, with an exponent of at most 1,000
    in size. Anything else, "1/0", nan and inf included, raises."""
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, (float, str)):
        literal = repr(value) if isinstance(value, float) else value
        try:
            if _bounded(literal):
                return Fraction(literal)
        except (ValueError, ZeroDivisionError):
            pass
    raise _mistyped(label, "an int, a finite float, or a decimal or 'a/b' literal", value)


def read_list(value: Any, label: str) -> list[Any]:
    if isinstance(value, list):
        return value
    raise _mistyped(label, "a list", value)


def read_object(value: Any, label: str) -> dict[str, Any]:
    if isinstance(value, dict):
        return value
    raise _mistyped(label, "an object", value)


def read_keys(value: Any, label: str) -> dict[str, Any]:
    """An object whose keys are strings, as JSON writes them."""
    for key in read_object(value, label):
        if not isinstance(key, str):
            read_str(key, f"{label} key")
    return value


def read_instance(value: Any, label: str, cls: type, *, null: bool = False) -> Any:
    """An instance of ``cls``, or None when ``null``; an error names ``cls``
    by its ``_noun`` ("an action")."""
    if isinstance(value, cls) or null and value is None:
        return value
    noun = cls._noun  # type: ignore[attr-defined]
    raise _mistyped(label, f"{'an' if noun[0] in 'aeiou' else 'a'} {noun}", value, null)


def read_items(values: Any, label: str, cls: type, into: type = list) -> Any:
    """A list or tuple of ``cls`` instances, as an ``into``."""
    if not isinstance(values, (list, tuple)):
        raise _mistyped(label, "a list", values)
    for value in values:
        if not isinstance(value, cls):
            read_instance(value, f"{label} entry", cls)
    return into(values)


_MARKERS: list[Any] = [None]  # the scenario's _Binder while scenario._behavior decodes a tree


def bound_marker(value: Any, key: str, miss: Exception) -> Any:
    """``miss``, raised by a typed field's read of ``value``, unless that is a ``{key: arg}`` marker the scenario binds."""
    binder = _MARKERS[0]
    bound = binder is not None and type(value) is dict and len(value) == 1 and binder.bound(key, value)
    if not bound:
        raise miss
    return bound


# ---------------------------------------------------------------------------
# Columns: a record declares each field once, as a dataclasses.field whose
# metadata is its column, and ``record`` generates the field reads, the
# encoder and the decoder from the columns, once per class.
# ---------------------------------------------------------------------------

_FROM_DEFAULT: Any = object()


def column(
    read: Optional[Callable[..., Any]] = None,
    label: str = "",
    *args: Any,
    key: Optional[str] = None,
    encode: Union[None, str, Callable[[Any], Any]] = None,
    decode: Optional[Callable[[Any], Any]] = None,
    each: bool = False,
    absent: Any = _FROM_DEFAULT,
    omit: bool = False,
    default: Any = MISSING,
    kw_only: bool = False,
    compare: bool = True,
    **kwargs: Any,
) -> Any:
    """A dataclass field (``default``, ``kw_only`` and ``compare`` go to
    ``field``) whose metadata is its column. ``read(value, label, *args,
    **kwargs)`` returns what is kept, or raises; without one the value is
    kept as given, for opaque JSON or for a field ``_check`` reads.
    ``label`` is an f-string with ``self`` bound. ``encode`` (a function, or
    the name of a method of the value) makes the kept value JSON and
    ``decode`` makes JSON an argument, converting what it recognizes and
    passing the rest on for ``read`` to reject; with ``each`` both apply to
    each item of a list.
    ``key`` is the JSON key (the name without leading underscores),
    ``absent`` the argument for a missing key (MISSING: required) and
    ``omit`` writes the key only when the value is not it."""
    absent = default if absent is _FROM_DEFAULT else absent
    rules = dict(read=read, label=label, args=args, kwargs=kwargs, key=key, each=each)
    rules.update(encode=encode, decode=decode, absent=absent, omit=omit)
    return field(default=default, kw_only=kw_only, compare=compare, metadata=rules)


def _codec(cls: type) -> tuple[str, Callable[[Any], Any]]:
    if issubclass(cls, Behavior):
        return "to_dict", behavior_from_dict
    return "to_jsonable", cls.from_jsonable  # type: ignore[attr-defined]


def nested(cls: type, label: str, **options: Any) -> Any:
    """A column holding a ``cls`` (a record or a behavior), or None with
    ``null=True``, through ``cls``'s own codec, whose decoder rejects a
    non-object under ``cls``'s noun. A nullable one writes None as null and
    reads null as None; anything else it decodes as a required one does."""
    to, of = _codec(cls)
    return column(read_instance, label, cls, encode=to, decode=of, **options)


def nested_list(cls: type, label: str, into: type = list, **options: Any) -> Any:
    """A column holding a list of ``cls``, kept as an ``into``."""
    to, of = _codec(cls)
    return column(read_items, label, cls, into, encode=to, decode=of, each=True, **options)


_RECORDS: dict[type, None] = {}  # every record class, in definition order
# By codec, the classes whose ``_text`` writes the canonical JSON text of what it gives:
# every record but a behavior with its own ``to_dict``, ``Route`` and ``DelayEstimator``.
_TEXTS: dict[str, dict[type, None]] = {"to_jsonable": {}, "to_dict": {}}

# One encoder for every blob and payload. It keeps no cycle markers, so a
# circular value recurses until Python's recursion limit stops it.
_encode = _c_encoder(None) or CANONICAL_ENCODER.encode

# The text of a JSON value ``v`` in generated ``_text`` code: an exact str, None, True or False
# as the encoder writes it, an exact int as itself (an f-string formats it as int.__repr__ does).
_SCALAR = "v if v.__class__ is int else esc(v) if v.__class__ is str else 'null' if v is None else 'true' if v is True else 'false' if v is False else enc(v)"


def record(cls: Any = None, /, *, noun: Optional[str] = None, tag: Optional[str] = None, **options: Any) -> Any:
    """Make ``cls`` a dataclass (``options`` go to ``dataclass``) and generate
    from its columns, once, as straight-line code: ``__init__``, with the
    signature dataclass would give it, which reads and stores each field in
    order, then calls ``_check``, if the class has one, for the checks that
    span fields; ``to_jsonable`` (``_to_dict_body`` for a behavior), which
    writes ``"kind": tag`` (kept as ``_tag``) first; and ``from_jsonable``
    (``_from_dict_body``), which decodes every argument, then builds the
    record with the same reads and stores, without a call to ``cls``, unless
    ``cls`` is a subclass, whose own ``__init__`` runs. A behavior's decoder
    reads the blob's ``done`` and stores it, before ``_check``, which may
    read it, or after a subclass's ``__init__``. ``_text`` writes the canonical
    JSON text of what the encoder gives, keys sorted at class build: each value
    in field order, a nested one whose exact class ``_TEXTS`` lists under its
    codec through its own ``_text``, a list's items joined, the rest by ``_SCALAR``.
    A nullable nested column (``encode`` a codec method's name, ``null=True``
    passed to its reader) writes None as null, reads null as None, and
    writes and decodes anything else as a required one does. ``noun``
    names the record in errors ("<noun> must be an object" from its decoder).
    A field without a column raises TypeError."""
    if cls is None:
        return lambda cls: record(cls, noun=noun, tag=tag, **options)
    cls = dataclass(cls, init=False, **options)
    ns: dict[str, Any] = {"__name__": cls.__module__, "read_object": read_object, "read_bool": read_bool, "noun": noun, "this": cls}
    ns.update(new=object.__new__, setattr=object.__setattr__, enc=_encode, esc=encode_basestring_ascii, behavior_text=behavior_text)
    # Assigning through self.__dict__ would make CPython build the instance's
    # dict, which slows every later attribute read of it.
    store = " setattr(self, {0!r}, {1})" if options.get("frozen") else " self.{0} = {1}"
    params, keywords, stores, decoded, arguments = [], [], [], [], []
    items, omitted = [f"'kind': {tag!r}"] if tag else [], []
    behavior = issubclass(cls, Behavior)
    # _text's lines and f-string entries by key, a column's over kind or done as in to_dict.
    lines = [" v = self.kind", f" tk = {_SCALAR}", " v = self._finished", f" td = {_SCALAR}"] if behavior else []
    entries = {"kind": ',"kind":{tk}', "done": ',"done":{td}'} if behavior else {}
    if tag:
        entries["kind"] = ',"kind":' + encode_basestring_ascii(tag).replace("{", "{{").replace("}", "}}")
    columns = fields(cls)
    for t, f in enumerate(columns):
        if "read" not in f.metadata:
            raise TypeError(f"{cls.__name__}.{f.name} has no column")
        c, n = f.metadata, f.name
        key = c["key"] or n.lstrip("_")
        ns.update({f"r_{n}": c["read"], f"e_{n}": c["encode"], f"c_{n}": c["decode"], f"b_{n}": c["absent"], f"d_{n}": f.default})
        (keywords if f.kw_only else params).append(n if f.default is MISSING else f"{n}=d_{n}")
        # The constructor and the decoder both hold each argument in a local
        # named after its field, so they share these lines.
        value = n
        if c["read"]:
            call = [n, "f" * ("{" in c["label"]) + repr(c["label"])]
            for i, arg in enumerate(c["args"]):
                ns[f"a_{n}_{i}"] = arg
                call.append(f"a_{n}_{i}")
            for k, arg in c["kwargs"].items():
                ns[f"k_{n}_{k}"] = arg
                call.append(f"{k}=k_{n}_{k}")
            value = f"r_{n}({', '.join(call)})"
        stores.append(store.format(n, value))
        # Method calls and comprehensions are written out, so that a nested
        # behavior costs the stack frames a hand-written codec would.
        e, value = c["encode"], "v" if c["each"] else f"self.{n}"
        null = isinstance(e, str) and c["kwargs"].get("null")  # a nullable nested column
        value = f"{value}.{e}()" if isinstance(e, str) else f"e_{n}({value})" if e else value
        value = f"None if self.{n} is None else {value}" if null else value
        value = f"[{value} for v in self.{n}]" if c["each"] else value
        if c["omit"]:
            omitted.append(f" if self.{n} != b_{n}: j[{key!r}] = {value}")
        else:
            items.append(f"{key!r}: {value}")
        text = [f" v = {value}", f" t{t} = {_SCALAR}"]
        if isinstance(e, str):
            ns[f"w_{n}"] = _TEXTS.get(e, {})
            item = "behavior_text(v)" if e == "to_dict" else f"v._text() if v.__class__ in w_{n} else enc(v.{e}())"
            item = f"'null' if v is None else {item}" if null else item
            text = [f" t{t} = '[' + ','.join([{item} for v in self.{n}]) + ']'"] if c["each"] else [f" v = self.{n}", f" t{t} = {item}"]
        entries[key] = "," + encode_basestring_ascii(key).replace("{", "{{").replace("}", "}}") + f":{{t{t}}}"
        if c["omit"]:
            text = [f" t{t} = ''", f" if self.{n} != b_{n}:", *[" " + line for line in text], f"  t{t} = f{entries[key]!r}"]
            entries[key] = f"{{t{t}}}"
        lines += text
        got = f"c_{n}(j[{key!r}])" if c["decode"] else f"j[{key!r}]"
        got = f"(None if (x := j[{key!r}]) is None else c_{n}(x))" if null else got
        if c["each"]:
            got = f"([c_{n}(v) for v in x] if isinstance(x := j[{key!r}], list) else x)"
        if c["absent"] is not MISSING:
            got = f"{got} if {key!r} in j else b_{n}" if c["decode"] else f"j.get({key!r}, b_{n})"
        decoded.append(f" {n} = {got}")
        arguments.append(f"{n}={n}" if f.kw_only else n)
    shadowed = {f.name for f in columns} & {*ns, "self", "cls", "j", "x", "isinstance"}
    if shadowed:
        raise TypeError(f"{cls.__name__} fields {sorted(shadowed)} shadow names the generated code uses")
    encoder, decoder = ("_to_dict_body", "_from_dict_body") if behavior else ("to_jsonable", "from_jsonable")
    # A behavior's generated __init__ does not call Behavior.__init__.
    finished = [" self._finished = False", " self._finished = read_bool(j.get('done', False), 'done')"] if behavior else ["", ""]
    check = " self._check()" if hasattr(cls, "_check") else ""
    signature = [*params, "*", *keywords] if keywords else params
    source = [f"def __init__(self, {', '.join(signature)}):", *stores, finished[0], check, " pass"]
    source += [f"def {encoder}(self):", f" j = {{{', '.join(items)}}}", *omitted, " return j"]
    # read_object's test, inline: a decoder runs for every nested record.
    unpack = " if not isinstance(j, dict): read_object(j, noun)" if noun else ""
    source += [f"def {decoder}(cls, j):", unpack, *decoded, " if cls is not this:", f"  self = cls({', '.join(arguments)})"]
    source += [f" {finished[1]}", "  return self"]
    source += [" self = new(cls)", *stores, finished[1], check, " return self"]
    body = "".join(entries[key] for key in sorted(entries))
    last = f" return '{{' + f{body!r}[1:] + '}}'" if omitted else f" return f{'{{' + body[1:] + '}}'!r}"
    source += ["def _text(self):", *lines, last]
    exec("\n".join(source), ns)
    for name in ("__init__", encoder, decoder, "_text"):
        ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, classmethod(ns[name]) if name == decoder else ns[name])
    cls.__init__.__annotations__ = {**{f.name: f.type for f in columns}, "return": None}
    cls._noun = noun or getattr(cls, "_noun", None)
    cls._tag = tag
    _RECORDS[cls] = None
    if not behavior or cls.to_dict is Behavior.to_dict:
        _TEXTS["to_dict" if behavior else "to_jsonable"][cls] = None
    return cls


@record(frozen=True, order=True, noun="location")
class LocationId:
    """Opaque location identity plus its human-readable name.

    Equality and ordering use only ``value``; the name rides along for
    readable traces and serialized routes.
    """

    value: int = column(read_int, "location value")
    name: str = column(read_str, "location name", compare=False)

    def __repr__(self) -> str:
        return f"LocationId({self.value}, {self.name!r})"


location_to_jsonable = LocationId.to_jsonable
location_from_jsonable = LocationId.from_jsonable


@record(frozen=True, order=True, noun="agent id")
class AgentId:
    """Opaque runtime-assigned agent identity; never reused within a runtime."""

    value: int = column(read_int, "agent id")

    def __repr__(self) -> str:
        return f"AgentId({self.value})"


def read_agent_id(value: Any, label: str) -> AgentId:
    """The AgentId of an int read under ``label``, built without a second read."""
    agent = object.__new__(AgentId)
    object.__setattr__(agent, "value", read_int(value, label))
    return agent


def read_type(value: Any, label: str, cls: type, what: str) -> Any:
    """An instance of ``cls``, which an error names as ``what``."""
    if isinstance(value, cls):
        return value
    raise _mistyped(label, what, value)


def agent_column(label: str, **options: Any) -> Any:
    """A column holding an AgentId, written as its int and decoded by ``read_agent_id``."""
    return column(read_type, label, AgentId, "an AgentId", encode=attrgetter("value"), decode=lambda v: read_agent_id(v, label), **options)


def _base64(payload: bytes) -> str:
    return b2a_base64(payload, newline=False).decode()


def _from_base64(text: Any) -> bytes:
    """The bytes of base64 text that ``_base64`` writes back exactly as read."""
    try:
        payload = a2b_base64(text)
        if _base64(payload) == text:
            return payload
    except (TypeError, ValueError):
        pass
    raise _mistyped("message payload", "canonical base64", text)


@record(frozen=True, noun="message")
class Message:
    """Typed, addressed unit of communication with an opaque payload, stamped
    with the sender's clock reading; ``make_message`` is this class. An empty
    ``type_tag`` raises EmptyTypeTag. Self-addressed messages are legal."""

    sender: AgentId = agent_column("message sender")
    receiver: AgentId = agent_column("message receiver")
    type_tag: str = column(read_str, "message type", key="type")
    conversation_id: str = column(read_str, "message conversation", key="conversation")
    payload: bytes = column(read_type, "message payload", bytes, "bytes", encode=_base64, decode=_from_base64, default=b"", absent=MISSING)
    sent_at: Ticks = column(read_int, "message sent_at", default=0, absent=MISSING)

    def _check(self) -> None:
        if not self.type_tag:
            raise EmptyTypeTag("message type_tag must be non-empty")


make_message = Message
message_to_jsonable = Message.to_jsonable
message_from_jsonable = Message.from_jsonable


def message_matches(msg: Message, type_filter: str, conversation: str | None = None) -> bool:
    """True when the message passes the type filter (``*`` matches all) and,
    if given, carries the expected conversation id."""
    if type_filter != WILDCARD and msg.type_tag != type_filter:
        return False
    if conversation is not None and msg.conversation_id != conversation:
        return False
    return True


# ---------------------------------------------------------------------------
# Canonical JSON helpers
# ---------------------------------------------------------------------------


def canonical_json(value: Any) -> bytes:
    """Deterministic JSON encoding: sorted keys, no whitespace, ASCII only.

    Raises TypeError for a value JSON cannot encode, such as a set or an
    object, and ValueError for a circular value or one nested too deep to
    encode."""
    if isinstance(value, str):
        return encode_basestring_ascii(value).encode()
    try:
        return _encode(value).encode()
    except RecursionError:
        raise ValueError("canonical JSON: the value is circular or nested too deep to encode") from None


# ---------------------------------------------------------------------------
# Agent shell
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MigrationReport:
    """One move from ``src`` to ``dest`` that takes ``latency`` ticks.

    While the agent is in transit its runtime holds it with ``arrived_at``
    the due tick. Once the agent lands, steps read it as
    ``ctx.last_migration`` with ``arrived_at`` the tick ``migrate_end`` was
    traced: later than due for a move made from outside after ``run(until=T)``
    with T at or past the due tick, which lands at T + 1.
    """

    src: LocationId
    dest: LocationId
    latency: Ticks
    arrived_at: Ticks


@dataclass
class AgentShell:
    """Identity, whereabouts, attached behaviors, and serializable user state."""

    id: AgentId
    home: LocationId
    current: LocationId
    behaviors: list[Behavior]
    state: dict[str, Any] = field(default_factory=dict)
    inbox: deque[Message] = field(default_factory=deque)


def serialize_shell(shell: AgentShell) -> bytes:
    """Encode a whole shell (behavior internals included) as the canonical JSON
    of its dict form, written as text from the records' columns (see ``record``).
    A behavior tree or state too deep or circular to encode raises ValueError."""
    try:
        i = shell.id.value
        return (
            f'{{"behaviors":[{",".join([behavior_text(b) for b in shell.behaviors])}],"current":{LocationId._text(shell.current)},'
            f'"home":{LocationId._text(shell.home)},"id":{i if i.__class__ is int else _encode(i)},'
            f'"inbox":[{",".join([Message._text(m) for m in shell.inbox])}],"state":{_encode(shell.state)}}}'
        ).encode()
    except RecursionError:
        raise ValueError("canonical JSON: the value is circular or nested too deep to encode") from None


def deserialize_shell(data: bytes) -> AgentShell:
    d = json.loads(data)
    return AgentShell(
        id=read_agent_id(d["id"], "shell id"),
        home=location_from_jsonable(d["home"]),
        current=location_from_jsonable(d["current"]),
        behaviors=[behavior_from_dict(b) for b in read_list(d["behaviors"], "shell behaviors")],
        state=d["state"],
        inbox=deque(message_from_jsonable(m) for m in read_list(d["inbox"], "shell inbox")),
    )


# ---------------------------------------------------------------------------
# Step context and buffered effects
# ---------------------------------------------------------------------------


@dataclass
class SendEffect:
    message: Message

    def apply(self, platform: PlatformAdapter, agent: AgentId) -> None:
        platform.send(self.message)


@dataclass
class SpawnEffect:
    agent_id: AgentId
    at: LocationId
    behaviors: list[Behavior]

    def apply(self, platform: PlatformAdapter, agent: AgentId) -> None:
        platform.spawn_agent(self.at, self.behaviors, self.agent_id)


@dataclass
class MigrateEffect:
    dest: LocationId

    def apply(self, platform: PlatformAdapter, agent: AgentId) -> None:
        platform.migrate(agent, self.dest)


@dataclass
class AttachEffect:
    target: AgentId
    behavior: Behavior

    def apply(self, platform: PlatformAdapter, agent: AgentId) -> None:
        platform.attach_behavior(self.target, self.behavior)


@dataclass
class TraceEffect:
    kind: EventKind
    detail: dict[str, Any]

    def apply(self, platform: PlatformAdapter, agent: AgentId) -> None:
        platform.trace().emit(platform.now(), self.kind, agent, self.detail)


Effect = SendEffect | SpawnEffect | MigrateEffect | AttachEffect | TraceEffect


# Value -> member, so a step's trace skips the Enum call machinery; a miss
# (or an unhashable kind) still goes through EventKind(kind) for its
# ValueError.
_EVENT_KINDS = {kind.value: kind for kind in EventKind}

# What a trace detail may hold: JSON's scalars (a bool is an int) and its
# containers, dicts keyed by str.
_LEAVES = (str, int, float, type(None))


def _copied(value: Any) -> Any:
    """A copy of a detail value that shares no dict or list with it. Raises
    TypeError for a value JSON cannot encode or a dict key that is not a str."""
    if isinstance(value, _LEAVES):
        return value
    if isinstance(value, dict):
        return {_checked_key(key): _copied(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copied(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_copied(item) for item in value)
    raise TypeError(f"trace detail: object of type {type(value).__name__} is not JSON serializable")


def _checked_key(key: Any) -> str:
    if not isinstance(key, str):
        raise TypeError(f"trace detail: key {key!r} is not a str")
    return key


class AgentContext:
    """What a behavior sees and may do during one step on ``platform``.

    Reads (clock, inbox, state) act on the live shell; writes that touch the
    wider world (sends, spawns, migrations, attachments, trace events) are
    buffered in ``effects``. Each effect is a deferred call to one of the
    platform's own public methods (``send``, ``spawn_agent``, ``migrate``,
    ``attach_behavior``, ``trace().emit``), so an effect does exactly what
    the same call from outside would do at the step's tick. The runtime
    calls ``commit`` when the step returns and before any other behavior
    steps: it applies the effects in order and traces ``behavior_done``.

    A context lives for one step and is slotted: it takes no attributes
    beyond its own. Data a behavior keeps between steps belongs on the
    behavior (serialized with it) or in ``ctx.state``. The outcome a step
    returns and the wakes it carries are immutable values, which the
    runtimes never mutate (see StepOutcome and WakeCondition).
    """

    __slots__ = ("now", "_shell", "_platform", "last_migration", "effects")

    def __init__(
        self,
        now: Ticks,
        shell: AgentShell,
        platform: PlatformAdapter,
        last_migration: Optional[MigrationReport] = None,
    ) -> None:
        self.now = now
        self._shell = shell
        self._platform = platform
        self.last_migration = last_migration
        self.effects: list[Effect] = []

    def commit(self, outcome: StepOutcome, kind: str, slot: int) -> None:
        """The step policy both runtimes share: apply the step's effects in
        order, then, if ``outcome`` is Done, trace ``behavior_done`` for the
        behavior of ``kind`` at index ``slot``, even when an effect raises.
        The runtime records ``outcome`` before it calls this, so a ``run()``
        after a raising effect schedules from that outcome."""
        platform = self._platform
        agent = self._shell.id
        try:
            for effect in self.effects:
                effect.apply(platform, agent)
        finally:
            if isinstance(outcome, Done):
                platform.trace().emit(self.now, EventKind.BEHAVIOR_DONE, agent, {"kind": kind, "slot": slot})

    # Read surface ----------------------------------------------------------

    @property
    def agent_id(self) -> AgentId:
        return self._shell.id

    @property
    def home(self) -> LocationId:
        return self._shell.home

    @property
    def location(self) -> LocationId:
        return self._shell.current

    @property
    def state(self) -> dict[str, Any]:
        return self._shell.state

    def take_message(self, type_filter: str = WILDCARD, conversation: str | None = None) -> Message | None:
        """Remove and return the oldest matching message; non-matching
        messages stay queued for other behaviors."""
        for msg in self._shell.inbox:
            if message_matches(msg, type_filter, conversation):
                self._shell.inbox.remove(msg)
                return msg
        return None

    # Effect surface --------------------------------------------------------

    def send(self, msg: Message) -> None:
        self.effects.append(SendEffect(msg))

    def spawn(self, at: LocationId, behaviors: list[Behavior]) -> AgentId:
        """Request a new agent; its id is reserved immediately, the agent
        materializes when the step's effects are applied."""
        agent_id = self._platform.reserve_agent_id()
        self.effects.append(SpawnEffect(agent_id, at, list(behaviors)))
        return agent_id

    def request_migration(self, dest: LocationId) -> None:
        self.effects.append(MigrateEffect(dest))

    def attach_behavior(self, target: AgentId, behavior: Behavior) -> None:
        """Append a behavior to ``target``'s list; it first steps at the tick
        after this one (or, if ``target`` is in transit, at the tick after
        it arrives)."""
        self.effects.append(AttachEffect(target, behavior))

    def trace(self, detail: dict[str, Any], kind: str = "custom") -> None:
        """Record a trace event. Raises ValueError for a ``kind`` that is not
        an EventKind value, and TypeError for a ``detail`` JSON cannot encode
        (see ``_copied``), before any effect of the step is applied.

        The event keeps a copy of ``detail`` that shares no dict or list
        with it, so later changes to agent state do not rewrite it."""
        try:
            event_kind = _EVENT_KINDS[kind]
        except (KeyError, TypeError):
            event_kind = EventKind(kind)
        copy = dict(detail)
        for key, value in copy.items():
            if not (isinstance(value, _LEAVES) and isinstance(key, str)):
                copy[_checked_key(key)] = _copied(value)
        self.effects.append(TraceEffect(event_kind, copy))

    def new_conversation_id(self) -> str:
        return self._platform.new_conversation_id()

    # Action dispatch -------------------------------------------------------

    def attempt(self, fn: Callable[..., Any], /, *args: Any, **detail: Any) -> tuple[bool, Any]:
        """Run user code without letting its failure escape the step.

        Returns ``(True, fn(*args))``. If ``fn`` raises an Exception, the
        effects it buffered are dropped, so a failed action is never
        half-applied, the error is traced as ``{"error": message, **detail}``
        and ``(False, message)`` is returned. CancelBehavior passes through.
        """
        mark = len(self.effects)
        try:
            return True, fn(*args)
        except Exception as exc:
            del self.effects[mark:]
            error = str(exc)
            self.trace({"error": error, **detail})
            return False, error

    def run_action(self, descriptor: Any, message: Message | None = None) -> bytes | None:
        fn = actions.resolve_action(descriptor.name)
        return fn(self, descriptor.params, message)

    def run_predicate(self, descriptor: Any) -> bool:
        fn = actions.resolve_predicate(descriptor.name)
        return bool(fn(self, descriptor.params))


def wake_satisfied(wake: WakeCondition, now: Ticks, shell: AgentShell) -> bool:
    """Evaluate a wake condition against a present agent's situation."""
    return wake.satisfied(now, shell)
