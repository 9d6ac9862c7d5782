"""Monitor states, state-level policies, and the secure IO library.

A monitor-state descriptor picks a summary of the history (the carrier),
how to maintain it per event (`upd`), and, independently, what a faithful
summary is: a left fold over the history (`alpha_init`, `alpha_step`) and
`agree(state, alpha)`; `abstracts(s, h)` is `agree` after folding `h`.
Two laws make a descriptor usable, checked by the test suite rather than
proven, and by the interpreter after every event and at every state read, at
the cost of what changed since the pair it verified last (O(1) amortised):

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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Generic, Iterable, TypeVar

from .effects import (
    Bind,
    Call,
    Caller,
    Comp,
    Event,
    IoOp,
    Ok,
    Ret,
    Trace,
    contract_failure,
    get_mstate,
    record,
)
from .traces import _ALLOCATORS
from .worlds import canon_arg

S = TypeVar("S")

# Hoisted (see the note in `effects`); one state-read node serves every call.
_CLOSE, _READ, _WRITE, _PROG, _CTX = IoOp.CLOSE, IoOp.READ, IoOp.WRITE, Caller.PROG, Caller.CTX
_DECIDERS = (_CLOSE,) + _ALLOCATORS
_STATE_READ = get_mstate()


@dataclass(frozen=True)
class MStateDesc(Generic[S]):
    name: str
    init: S
    upd: Callable[[S, Event], S]
    alpha_init: Any
    alpha_step: Callable[[Any, Event], Any]
    agree: Callable[[S, Any], bool]
    # (state, history) -> faithful?  Derived from the fold when None, or when
    # `dataclasses.replace` carries over another descriptor's derived one.
    abstracts: Callable[[S, Trace], bool] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.abstracts is None or getattr(self.abstracts, "__func__", None) is MStateDesc._folded:
            object.__setattr__(self, "abstracts", self._folded)

    def _folded(self, s: S, h: Trace) -> bool:
        return self.agree(s, abstraction(self, reversed(h)))


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
        arg = canon_arg(op, arg)  # rejects anything but an `IoOp`

        def decide(state):
            if self.policy(state, op, arg):
                return Call(_CTX, op, arg, True)
            return Ret(contract_failure(f"policy:{op.value}"))

        return Bind(_STATE_READ, decide)


def enforce_policy(policy: Policy, desc: MStateDesc) -> SecureIoLib:
    return SecureIoLib(policy, desc)


# ---------------------------------------------------------------------------
# Shipped monitor states
# ---------------------------------------------------------------------------


class Written:
    """A persistent set of descriptors.  A chain of versions shares one dict
    from member to the size at which it was added, and a version holds the
    entries up to its own size: O(1) membership in every version, O(1) `add`
    to the newest one, and a copy of the entries when an older one forks."""

    __slots__ = ("fd", "rest", "length", "index", "agreed")

    def __init__(self, fd=None, rest=None, index=None):
        self.fd, self.rest, self.index, self.agreed = fd, rest, index or {}, None
        self.length = 0 if rest is None else rest.length + 1

    def __contains__(self, fd):
        return self.index.get(fd, self.length + 1) <= self.length

    def __iter__(self):
        node = self
        while node.length:
            yield node.fd
            node = node.rest

    def __eq__(self, other):
        """Same members: equal sizes, and each member added since the pair
        verified last (`agreed`, as in `History`) is in `other`."""
        if not isinstance(other, Written) or self.length != other.length:
            return False
        node, alpha = self, other
        while node.length and node.agreed is not alpha:
            if node.fd not in other:
                return False
            node, alpha = node.rest, alpha.rest
        self.agreed = other
        return True

    def add(self, fd) -> "Written":
        if fd in self:
            return self
        index = self.index
        if not self.length or len(index) != self.length:  # the root or a fork
            index = {k: n for k, n in index.items() if n <= self.length}
        index[fd] = self.length + 1
        return Written(fd, self, index)


@record
class WebServerState:
    """Summary for the web-server policy: context-opened descriptors, the
    responded-to-latest-request flag, and every descriptor ever written."""

    ctx_opened: tuple[int, ...] = ()
    responded: bool = False
    written: Written = field(default_factory=Written)


def _opener_step(owner, e: Event):
    """Live descriptor -> opener, read as `traces._opener` reads a history: a
    successful close or allocation decides its descriptor (not open / opened
    by its caller); `owner` itself when nothing changes."""
    if e.op in _DECIDERS and isinstance(e.result, Ok):
        fd, opener = (e.arg, None) if e.op is _CLOSE else (e.result.value, e.caller)
        if owner.get(fd) is not opener:
            return MappingProxyType({k: c for k, c in {**owner, fd: opener}.items() if c is not None})
    return owner


# Derived from the trace oracles' view (`is_opened_by_ctx`, `wrote_to`,
# `did_not_respond`), not from `_ws_upd`: the context-opened view of the
# owner map (each live descriptor the context opened -> `CTX`), every
# descriptor written to, and the responded flag.
_WS_ALPHA_INIT = ({}, Written(), False)


def _ws_alpha_step(a, e: Event):
    """One event folded in; `a` itself when the event changes nothing.  The
    owner step is `_opener_step` projected on the context: a successful
    context allocation adds its descriptor, any other successful allocation
    or close removes it."""
    owner, written, responded = a
    op = e.op
    if op is _WRITE:
        written, responded = written.add(e.arg[0]), responded or e.caller is _PROG
    elif isinstance(e.result, Ok):
        if op is _READ:
            responded = False
        elif op in _DECIDERS:
            fd, by_ctx = (e.arg, False) if op is _CLOSE else (e.result.value, e.caller is _CTX)
            if by_ctx is not (fd in owner):
                owner = {**owner}
                if by_ctx:
                    owner[fd] = _CTX
                else:
                    del owner[fd]
    if owner is a[0] and written is a[1] and responded is a[2]:
        return a
    return owner, written, responded


def _ws_agree():
    """Same flag and sets; the context-opened tuple lists each member once.
    Only components whose identity changed since the pair verified last are
    compared (carriers are immutable): a read after an event is an identity test."""
    last = [WebServerState(written=None), (None, None, None)]

    def agree(s: WebServerState, a) -> bool:
        (s0, a0), (owner, written, responded) = last, a
        if s is s0 and a is a0:
            return True
        if s.responded != responded:
            return False
        if s.ctx_opened is not s0.ctx_opened or owner is not a0[0]:
            if sorted(s.ctx_opened) != sorted(fd for fd, c in owner.items() if c is _CTX):
                return False
        if (s.written is not s0.written or written is not a0[1]) and s.written != written:
            return False
        last[:] = s, a
        return True

    return agree


def _ws_upd(s: WebServerState, e: Event) -> WebServerState:
    opened, responded, written = s.ctx_opened, s.responded, s.written
    op = e.op
    if op is _WRITE:
        written, responded = written.add(e.arg[0]), responded or e.caller is _PROG
    elif isinstance(e.result, Ok):
        if op is _READ:
            responded = False
        elif op in _DECIDERS:
            fd, by_ctx = (e.arg, False) if op is _CLOSE else (e.result.value, e.caller is _CTX)
            if by_ctx or fd in opened:
                opened = tuple(x for x in opened if x != fd) + ((fd,) if by_ctx else ())
    if responded is s.responded and written is s.written and opened == s.ctx_opened:
        return s
    return WebServerState(opened, responded, written)


def webserver_mstate() -> MStateDesc[WebServerState]:
    return MStateDesc("webserver", WebServerState(), _ws_upd, _WS_ALPHA_INIT, _ws_alpha_step, _ws_agree())


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
