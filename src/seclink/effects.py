"""Computation trees over a monitored IO signature, and the loop that runs them.

A computation is a tree of frozen nodes: `Ret(value)`, an operation `Call`
awaiting its result, `Bind(m, f)`, `Do(body, args)`, one `@do` call, and a
guard or trusted mark around a subtree; building one only allocates it.
`evaluate`, the one loop that runs trees, keeps continuations, running `@do`
generators and marks on an explicit stack and hands each `Call` to its
driver (`seclink.interp`): O(1) per operation at any nesting depth, and no
Python recursion.

Who made a call is read off that stack, not off the node.  Under a `guard`
a call is the context's, decided by the guard's policy and by every policy
in force around it: guards conjoin, so a plugin can narrow what it may do,
never widen it.  A call under no guard is the program's, and so is one under
a trusted mark, which only trusted code can build: linking puts the program
under one that holds the library's policy, and the contracts put each
trusted function the context calls under one.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from enum import Enum
from operator import attrgetter
from reprlib import recursive_repr
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
# by identity, hash by identity in C.  Import cost: a frozen dataclass compiles
# about six methods with `exec`, nearly half the time it took to import seclink
# from source, so `record` compiles only the constructor and shares the rest.
_FACTORY = object()  # a parameter left to its field's default factory


def _frozen(self, name, *value):  # `__setattr__` and `__delattr__`
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _record_reduce(self):  # rebuilt through the constructor, so no `__setstate__` is needed
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


@recursive_repr()
def _record_repr(self):
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
    return f"{type(self).__qualname__}({shown})"


def record(cls=None, /, *, eq=True):
    """`dataclass(frozen=True, slots=True, eq=eq)` with a constructor that
    stores each field through its slot descriptor and then calls
    `__post_init__`, if the class has one.  Keyword arguments, defaults and
    default factories, `==`, `hash`, `repr`, `replace`, `fields`, `copy`,
    `pickle` and `FrozenInstanceError` are a frozen dataclass's."""

    def wrap(cls):
        if cls.__doc__ is None:  # `dataclass` would build one through `inspect.signature`
            cls.__doc__ = f"{cls.__name__}({', '.join(cls.__dict__.get('__annotations__', ()))})"
        cls = dataclass(slots=True, init=False, repr=False, eq=False)(cls)
        flds = fields(cls)
        cls.__dataclass_params__.eq, cls.__dataclass_params__.frozen = eq, True
        ns, params, lines = {"_FACTORY": _FACTORY}, [], []
        for f in flds:
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
        if hasattr(cls, "__post_init__"):
            lines.append("self.__post_init__()")
        body = "".join(f"\n    {line}" for line in lines or ["pass"])
        exec(f"def __init__(self, {', '.join(params)}):{body}", ns)
        ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__, cls.__setattr__, cls.__delattr__ = ns["__init__"], _frozen, _frozen
        cls.__reduce__ = _record_reduce
        if "__repr__" not in cls.__dict__:
            cls.__repr__ = _record_repr
        if eq:  # compared and hashed as a dataclass does: by the tuple of its compared fields
            names = [f.name for f in flds if f.compare]
            key = attrgetter(*names) if names else lambda self: ()  # a bare value for one field
            hash_key = (lambda self: (key(self),)) if len(names) == 1 else key
            cls.__eq__ = lambda a, b: key(a) == key(b) if b.__class__ is a.__class__ else NotImplemented
            cls.__hash__ = lambda a: hash(hash_key(a))
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


# A frozen `record` compared by identity, with no `__setstate__` to change it
# in place: a context handed a tree of trusted code can run it, not rewrite it.
_node = record(eq=False)


@_node
class Ret(Comp):
    value: Any


@_node
class Call(Comp):
    op: Any  # IoOp or GET_MSTATE
    arg: Any


@_node
class Bind(Comp):
    m: Comp
    f: Callable[[Any], Comp]


@_node
class Do(Comp):
    body: Callable[..., Any]  # a generator function
    args: tuple


@_node
class _Guard(Comp):  # context code: `policy` decides each call under it, with every policy in force
    m: Comp
    policy: Any = None  # (state, op, canonical arg) -> allow?


@_node
class _Trusted(Comp):  # trusted code: each call under it is the program's
    m: Comp
    policy: Any = None


_init_trusted, _Trusted.__init__ = _Trusted.__init__, None  # only `_trusted` builds one

ret = Ret
bind = Bind
call_io = Call  # one IO operation call: the program's, or the context's under a guard
guard = _Guard  # `m` as context code, its calls decided by `policy` as well


_LEAVE = object()  # a frame no node can put on the stack


def evaluate(comp: Comp):
    """Run `comp` as a generator: it yields each `Call` node with the
    policies that decide it (None for a program call), is sent that call's
    result, and returns the computation's value; a node that is not a
    computation raises `TypeError`.  A frame is a `Bind` continuation, a
    running `@do` generator, or `_LEAVE` over the scope a mark saved; the
    node classes are final, so tests are exact."""
    frames = []
    cur = comp
    scope = (None, ())  # (the policies that decide a call, or None for the program's; those in force)
    while True:
        kind = type(cur)
        if kind is Bind:
            frames.append(cur.f)
            cur = cur.m
            continue
        if kind is _Guard or kind is _Trusted:
            frames += (scope, _LEAVE)
            in_force, policy = scope[1], cur.policy
            if policy is not None and policy not in in_force:  # in force already: decided once
                in_force += (policy,)
            scope = (in_force if kind is _Guard else None, in_force)
            cur = cur.m
            continue
        if kind is Do:
            frames.append(cur.body(*cur.args))
            value = None
        elif kind is Ret:
            value = cur.value
        elif kind is Call:
            value = yield cur, scope[0]
        else:
            raise TypeError(f"not a computation: {cur!r}")
        while frames:  # hand `value` to the innermost frame
            top = frames[-1]
            if type(top) is not GeneratorType:
                frames.pop()
                if top is _LEAVE:
                    scope = frames.pop()
                    continue
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


def get_mstate() -> Comp:
    """Read the current monitor state.  Records no event."""
    return Call(GET_MSTATE, ())


def _trusted(comp: Comp, policy=None) -> Comp:
    """`comp` as trusted code, with `policy` in force for the context code it reaches."""
    _init_trusted(mark := object.__new__(_Trusted), comp, policy)
    return mark
