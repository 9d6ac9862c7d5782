"""Computation trees over a monitored IO signature.

A computation is a finite tree: leaves return values, inner nodes are
caller-tagged operation calls waiting for a result.  Programs are written
either with the `ret`/`bind` combinators or with the `@do` generator
notation; both build the same trees.  Trees are pure descriptions: running
them is the job of `seclink.interp`.

Caller tags distinguish trusted program code from untrusted context code.
Context code never constructs IO call nodes directly; it goes through the
secure library handle from `seclink.monitor`, which tags the node as
monitor-mediated so the interpreter can audit the discipline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
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


class _GetMState:
    """Singleton tag for the silent state-read operation (not an IoOp)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "GetMState"


GET_MSTATE = _GetMState()


class ErrCode(Enum):
    CONTRACT_FAILURE = "Contract_failure"
    ENOENT = "ENOENT"
    EBADF = "EBADF"
    EWOULDBLOCK = "EWOULDBLOCK"
    EINVAL = "EINVAL"


@dataclass(frozen=True)
class Ok:
    value: Any

    def __repr__(self):
        return f"Ok({self.value!r})"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Ret(Comp):
    value: Any


@dataclass(frozen=True, eq=False)
class Call(Comp):
    caller: Caller
    op: Any  # IoOp or GET_MSTATE
    arg: Any
    cont: Callable[[Any], Comp]
    via_monitor: bool = field(default=False)


@dataclass(frozen=True, eq=False)
class Lazy(Comp):
    """Deferred subtree; `force` is pure and may be forced once per run."""

    force: Callable[[], Comp]


def ret(value) -> Comp:
    return Ret(value)


def bind(m: Comp, f: Callable[[Any], Comp]) -> Comp:
    if isinstance(m, Ret):
        return Lazy(lambda: f(m.value))
    if isinstance(m, Call):
        cont = m.cont
        return Call(m.caller, m.op, m.arg, lambda r: bind(cont(r), f), m.via_monitor)
    if isinstance(m, Lazy):
        force = m.force
        return Lazy(lambda: bind(force(), f))
    raise TypeError(f"not a computation: {m!r}")


def _advance(gen, value) -> Comp:
    try:
        step = gen.send(value)
    except StopIteration as stop:
        return Ret(stop.value)
    if not isinstance(step, Comp):
        raise TypeError(f"@do generator must yield computations, got {step!r}")
    return bind(step, lambda r: _advance(gen, r))


def do(fn):
    """Generator notation for computations.

    The decorated generator function yields computations and receives their
    results; its return value becomes the result of the whole computation.
    Each interpretation instantiates a fresh generator, so the built tree
    stays reinterpretable as long as the generator body is pure.
    """

    @functools.wraps(fn)
    def build(*args, **kwargs) -> Comp:
        return Lazy(lambda: _advance(fn(*args, **kwargs), None))

    return build


def call_io(caller: Caller, op: IoOp, arg, *, via_monitor: bool = False) -> Comp:
    """One IO operation call.  Trusted-side construction only.

    Context code must not build these nodes itself: the interpreter rejects
    context-tagged calls that did not come through the secure library.
    """
    if not isinstance(op, IoOp):
        raise TypeError(f"call_io expects an IO operation, got {op!r}")
    return Call(caller, op, arg, Ret, via_monitor)


def get_mstate() -> Comp:
    """Read the current monitor state.  Records no event."""
    return Call(Caller.PROG, GET_MSTATE, (), Ret)
