"""Computation trees over a monitored IO signature, and the loop that runs them.

A computation is a tree of four node kinds: `Ret(value)`, an operation
`Call` awaiting its result, `Bind(m, f)`, and `Do(body, args)`, one `@do`
call; building one only allocates a node.  `evaluate`, the one loop that
runs trees, keeps continuations and running `@do` generators on an
explicit stack and hands each `Call` to its driver (`seclink.interp`):
O(1) per operation at any nesting depth, and no Python recursion.

Caller tags distinguish trusted program code from untrusted context code.
Context code is meant to reach IO only through the secure library handle
from `seclink.monitor`, which tags the node as monitor-mediated so the
interpreter can audit the discipline.  The tags are a convention, not
provenance: `call_io` is public, so a host closure can build a monitor-tagged
context call, which only `policy-locally-enforced` catches, or a program call,
which passes every verdict, until the loop marks where a call was built
(ROADMAP, plugin containment).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from types import GeneratorType
from typing import Any, Callable


class Caller(Enum):
    PROG = "Prog"
    CTX = "Ctx"


class IoOp(Enum):
    OPENFILE = "Openfile"
    READ = "Read"
    WRITE = "Write"
    CLOSE = "Close"
    SOCKET = "Socket"
    SETSOCKOPT = "Setsockopt"
    BIND = "Bind"
    LISTEN = "Listen"
    ACCEPT = "Accept"
    SELECT = "Select"
    SETNONBLOCK = "SetNonblock"

    __hash__ = object.__hash__  # see the per-event note below


# The silent state-read operation (not an IoOp).
GET_MSTATE = object()


class ErrCode(Enum):
    CONTRACT_FAILURE = "Contract_failure"
    ENOENT = "ENOENT"
    EBADF = "EBADF"
    EWOULDBLOCK = "EWOULDBLOCK"


# Per-event speed on CPython 3.11.  A frozen dataclass's own `__init__` sets
# each field with `object.__setattr__` (~0.3 µs a field), so the records built
# per event (results, events, boundary values, monitor states) are `record`s,
# whose constructor stores through the slot descriptors.  `EnumType` defines
# `__getattr__`, which puts every `IoOp.X` / `Caller.X` lookup on a slow path
# (~0.19 µs against ~0.05 µs for a module global), so per-event code reads
# members hoisted into module constants.  And `Enum.__hash__` is a Python
# call on every dict lookup keyed by a member (~0.2 µs); ops, which compare
# by identity, hash by identity in C.
_FACTORY = object()  # a parameter left to its field's default factory


def record(cls=None, /, *, eq=True):
    """`dataclass(frozen=True, slots=True, eq=eq)` with a constructor that
    stores each field through its slot descriptor.  Keyword arguments,
    defaults and default factories, `==`, `hash`, `repr`, `replace`,
    `fields` and `FrozenInstanceError` are a frozen dataclass's; there is
    no `__post_init__`."""

    def wrap(cls):
        cls = dataclass(frozen=True, slots=True, eq=eq, init=False)(cls)
        ns, params, lines = {"_FACTORY": _FACTORY}, [], []
        for f in fields(cls):
            ns[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
            if f.default is not MISSING:
                ns[f"_dflt_{f.name}"] = f.default
                params.append(f"{f.name}=_dflt_{f.name}")
            elif f.default_factory is not MISSING:
                ns[f"_make_{f.name}"] = f.default_factory
                params.append(f"{f.name}=_FACTORY")
                lines.append(f"if {f.name} is _FACTORY: {f.name} = _make_{f.name}()")
            else:
                params.append(f.name)
            lines.append(f"_set_{f.name}(self, {f.name})")
        body = "".join(f"\n    {line}" for line in lines or ["pass"])
        exec(f"def __init__(self, {', '.join(params)}):{body}", ns)
        ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = ns["__init__"]
        return cls

    return wrap if cls is None else wrap(cls)


@record
class Ok:
    value: Any

    def __repr__(self):
        return f"Ok({self.value!r})"


@record
class Err:
    code: Any
    why: str | None = None

    def __repr__(self):
        if self.why is None:
            return f"Err({_code_name(self.code)})"
        return f"Err({_code_name(self.code)}, {self.why!r})"


def _code_name(code):
    return code.value if isinstance(code, ErrCode) else repr(code)


Result = Ok | Err


def is_ok(r) -> bool:
    return isinstance(r, Ok)


def is_err(r) -> bool:
    return isinstance(r, Err)


def contract_failure(why: str | None = None) -> Err:
    return Err(ErrCode.CONTRACT_FAILURE, why)


def is_contract_failure(r) -> bool:
    return isinstance(r, Err) and r.code is ErrCode.CONTRACT_FAILURE


@record
class Event:
    """One recorded IO operation: who called what, with what outcome.

    The silent state-read operation never appears as an event.
    """

    caller: Caller
    op: IoOp
    arg: Any
    result: Result

    def render(self) -> str:
        return f"{self.caller.value} {self.op.value} {self.arg!r} -> {self.result!r}"


# Histories are reverse-chronological (most recent first); local traces
# produced by a computation are chronological.  Appending a local trace lt
# to a history h yields reverse(lt) ++ h.
Trace = tuple[Event, ...]


class Comp:
    """Base class of computation tree nodes."""

    __slots__ = ()


@dataclass(slots=True)
class Ret(Comp):
    value: Any


@dataclass(slots=True, eq=False)
class Call(Comp):
    caller: Caller
    op: Any  # IoOp or GET_MSTATE
    arg: Any
    via_monitor: bool = field(default=False)


@dataclass(slots=True, eq=False)
class Bind(Comp):
    m: Comp
    f: Callable[[Any], Comp]


@dataclass(slots=True, eq=False)
class Do(Comp):
    body: Callable[..., Any]  # a generator function
    args: tuple


ret = Ret
bind = Bind


def evaluate(comp: Comp):
    """Run `comp` as a generator: it yields each `Call` node, is sent that
    call's result, and returns the computation's value.  A node that is not
    a computation raises `TypeError`.  A frame is a `Bind` continuation or a
    running `@do` generator; the node classes are final, so tests are exact.
    """
    frames = []
    cur = comp
    while True:
        kind = type(cur)
        if kind is Bind:
            frames.append(cur.f)
            cur = cur.m
            continue
        if kind is Do:
            frames.append(cur.body(*cur.args))
            value = None
        elif kind is Ret:
            value = cur.value
        elif kind is Call:
            value = yield cur
        else:
            raise TypeError(f"not a computation: {cur!r}")
        while frames:  # hand `value` to the innermost frame
            top = frames[-1]
            if type(top) is not GeneratorType:
                frames.pop()
                cur = top(value)
                break
            try:
                cur = top.send(value)
                break
            except StopIteration as stop:
                frames.pop()
                value = stop.value
        else:
            return value


def do(fn):
    """Generator notation for computations.

    The decorated generator function yields computations and receives their
    results; its return value becomes the result of the whole computation.
    A call (positional arguments only) builds one `Do` node, and each
    interpretation instantiates a fresh generator, so the built tree stays
    reinterpretable as long as the generator body is pure.
    """

    def build(*args) -> Comp:
        return Do(fn, args)

    return build


def call_io(caller: Caller, op: IoOp, arg, *, via_monitor: bool = False) -> Comp:
    """One IO operation call.  Trusted-side construction only.

    Context code must not build these nodes itself: the interpreter rejects
    context-tagged calls that did not come through the secure library.
    """
    if not isinstance(op, IoOp):
        raise TypeError(f"call_io expects an IO operation, got {op!r}")
    return Call(caller, op, arg, via_monitor)


def get_mstate() -> Comp:
    """Read the current monitor state.  Records no event."""
    return Call(Caller.PROG, GET_MSTATE, ())
