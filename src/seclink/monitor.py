"""Monitor states, state-level policies, and the secure IO library.

A monitor-state descriptor picks a summary of the history (the carrier),
how to maintain it per event (`upd`), and, independently, what a faithful
summary is: a left fold over the history (`alpha_init`, `alpha_step`) and
`agree(state, alpha)`; `abstracts(s, h)` is `agree` after folding `h`.
Two laws make a descriptor usable, checked by the test suite rather than
proven, and by the interpreter beside `upd` after every event (O(1) amortised
for the full trace, O(|state|) for the web-server state):

- `init` agrees with `alpha_init`;
- `upd` and `alpha_step` applied to the same event preserve `agree`.

A policy decides IO requests from untrusted code using only the monitor
state; its soundness obligation is that acceptance implies the trace-level
specification on every history the state abstracts.  `enforce_policy`
packages a policy as the one handle untrusted code gets for doing IO.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Generic, Iterable, TypeVar

from .effects import (
    Caller,
    Comp,
    Event,
    IoOp,
    Ok,
    Ret,
    Trace,
    bind,
    call_io,
    contract_failure,
    get_mstate,
    is_ok,
)
from .traces import _ALLOCATORS
from .worlds import canon_arg

S = TypeVar("S")


@dataclass(frozen=True)
class MStateDesc(Generic[S]):
    name: str
    init: S
    upd: Callable[[S, Event], S]
    alpha_init: Any
    alpha_step: Callable[[Any, Event], Any]
    agree: Callable[[S, Any], bool]
    # (state, history) -> faithful?  Derived from the fold when None;
    # `dataclasses.replace` carries it over unchanged.
    abstracts: Callable[[S, Trace], bool] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.abstracts is None:
            derived = lambda s, h: self.agree(s, abstraction(self, reversed(h)))
            object.__setattr__(self, "abstracts", derived)


def replay(desc: MStateDesc, events: Iterable[Event]):
    """Fold the update function over a chronological event sequence."""
    return functools.reduce(desc.upd, events, desc.init)


def abstraction(desc: MStateDesc, events: Iterable[Event]):
    """Fold the abstraction over a chronological event sequence."""
    return functools.reduce(desc.alpha_step, events, desc.alpha_init)


# (state, op, arg) -> allow?
Policy = Callable[[Any, IoOp, Any], bool]


@dataclass(frozen=True)
class SecureIoLib:
    """The only IO capability handed to untrusted code.

    Each call consults the policy against the current monitor state.  An
    allowed call performs exactly one context-tagged operation; a denied
    call returns a contract failure and leaves trace and state untouched.
    """

    policy: Policy
    desc: MStateDesc

    def call(self, op: IoOp, arg) -> Comp:
        arg = canon_arg(op, arg)

        def decide(state):
            if self.policy(state, op, arg):
                return call_io(Caller.CTX, op, arg, via_monitor=True)
            return Ret(contract_failure(f"policy:{op.value}"))

        return bind(get_mstate(), decide)


def enforce_policy(policy: Policy, desc: MStateDesc) -> SecureIoLib:
    return SecureIoLib(policy, desc)


# ---------------------------------------------------------------------------
# Shipped monitor states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WebServerState:
    """Summary for the web-server policy: context-opened descriptors, the
    responded-to-latest-request flag, and every descriptor ever written."""

    ctx_opened: tuple[int, ...] = ()
    responded: bool = False
    written: tuple[int, ...] = ()


class _Written(frozenset):
    """Descriptors written to; `listed_by` caches the last (immutable) state
    tuple found to list exactly these members."""

    __slots__ = ("listed_by",)


# Hoisted: each `IoOp.X` lookup costs ~0.15 µs on Python 3.11.
_CLOSE = IoOp.CLOSE
_DECIDERS = (_CLOSE,) + _ALLOCATORS


def _opener_step(owner, e: Event):
    """Live descriptor -> opener, read as `traces._opener` reads a history: a
    successful close or allocation decides its descriptor (not open / opened
    by its caller); any other event leaves every descriptor as it was."""
    if e.op in _DECIDERS and isinstance(e.result, Ok):
        fd, opener = (e.arg, None) if e.op is _CLOSE else (e.result.value, e.caller)
        return MappingProxyType({k: c for k, c in {**owner, fd: opener}.items() if c is not None})
    return owner


# Derived from the trace oracles' view (`is_opened_by_ctx`, `wrote_to`,
# `did_not_respond`), not from `_ws_upd`: live descriptor -> opener, every
# descriptor written to, and the responded flag.
_WS_ALPHA_INIT = ({}, _Written(), False)


def _ws_alpha_step(a, e: Event):
    owner, written, responded = a
    owner = _opener_step(owner, e)
    if e.op is IoOp.READ and is_ok(e.result):
        responded = False
    elif e.op is IoOp.WRITE:
        if e.arg[0] not in written:
            written = _Written(written | {e.arg[0]})
        if e.caller is Caller.PROG:
            responded = True
    return owner, written, responded


def _ws_agree(s: WebServerState, a) -> bool:
    """The state's tuples list exactly the abstraction's sets, each member once."""
    owner, written, responded = a
    ctx_opened = sorted(fd for fd, caller in owner.items() if caller is Caller.CTX)
    if s.responded != responded or sorted(s.ctx_opened) != ctx_opened:
        return False
    if getattr(written, "listed_by", None) is not s.written:
        if len(s.written) != len(written) or not written.issuperset(s.written):
            return False
        written.listed_by = s.written
    return True


def _ws_upd(s: WebServerState, e: Event) -> WebServerState:
    if e.op in _ALLOCATORS and is_ok(e.result):
        fd = e.result.value
        opened = tuple(x for x in s.ctx_opened if x != fd)
        if e.caller is Caller.CTX:
            opened += (fd,)
        s = replace(s, ctx_opened=opened)
    elif e.op is IoOp.CLOSE and is_ok(e.result):
        s = replace(s, ctx_opened=tuple(x for x in s.ctx_opened if x != e.arg))
    if e.op is IoOp.READ and is_ok(e.result):
        s = replace(s, responded=False)
    elif e.op is IoOp.WRITE:
        fd = e.arg[0]
        if e.caller is Caller.PROG:
            s = replace(s, responded=True)
        if fd not in s.written:
            s = replace(s, written=s.written + (fd,))
    return s


def webserver_mstate() -> MStateDesc[WebServerState]:
    return MStateDesc("webserver", WebServerState(), _ws_upd, _WS_ALPHA_INIT, _ws_alpha_step, _ws_agree)


class History:
    """A persistent, shared-tail history, most recent event first, that
    iterates, measures and compares (`==`) as its event sequence.  Each node
    also maps every live descriptor to its opener (read-only)."""

    __slots__ = ("event", "rest", "length", "owner", "agreed")

    def __init__(self, event=None, rest=None, owner=MappingProxyType({})):
        self.event, self.rest, self.owner, self.agreed = event, rest, owner, None
        self.length = 0 if rest is None else rest.length + 1

    def __len__(self):
        return self.length

    def __iter__(self):
        node = self
        while node.length:
            yield node.event
            node = node.rest

    def __eq__(self, other):
        if not isinstance(other, (History, Sequence)):
            return NotImplemented
        return len(other) == self.length and all(map(operator.eq, self, other))

    def __repr__(self):
        return f"History{tuple(self)!r}"


def _ft_upd(s: History, e: Event) -> History:
    owner = s.owner
    if isinstance(e.result, Ok):
        if e.op in _ALLOCATORS:
            owner = MappingProxyType({**owner, e.result.value: e.caller})
        elif e.op is _CLOSE and e.arg in owner:
            owner = MappingProxyType({fd: c for fd, c in owner.items() if fd != e.arg})
    return History(e, s, owner)


def _ft_agree(s, a: History) -> bool:
    """Equal length, event and owner map, node by node, down to the first
    pair already verified (nodes are immutable: `agreed` remembers it)."""
    node, alpha = s, a
    while True:
        if not isinstance(node, History) or node.length != alpha.length:
            return False
        if node.agreed is alpha:
            break
        if node.event is not alpha.event and node.event != alpha.event:
            return False
        if node.owner != alpha.owner:
            return False
        if not node.length:
            break
        node, alpha = node.rest, alpha.rest
    s.agreed = a
    return True


def full_trace_mstate() -> MStateDesc[History]:
    """The history itself, most recent first, indexed by descriptor owner."""
    alpha_step = lambda a, e: History(e, a, _opener_step(a.owner, e))  # not `_ft_upd`
    return MStateDesc("full-trace", History(), _ft_upd, History(), alpha_step, _ft_agree)


def last_event_mstate() -> MStateDesc[Event | None]:
    return MStateDesc("last-event", None, lambda s, e: e, None, lambda a, e: e, operator.eq)


def stateless_mstate() -> MStateDesc[None]:
    return MStateDesc("stateless", None, lambda s, e: None, None, lambda a, e: None, operator.is_)
