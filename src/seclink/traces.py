"""Executable trace predicates and whole-program behaviours.

A policy specification judges one prospective event against the history so
far; `enforced_locally` folds it over a local trace.  Global properties
like `every_request_gets_a_response` judge complete local traces.  `beh`
collects the (trace, result) behaviour of a computation over a sample of
worlds, and `satisfies` checks a behaviour against a post-condition.

Histories are reverse-chronological; local traces are chronological.
"""

from __future__ import annotations

import posixpath
from collections.abc import Sequence
from itertools import chain
from typing import Any, Callable, Iterable

from .effects import Caller, Event, IoOp, Ok, Trace

# Hoisted (see the note in `effects`).
_READ, _WRITE, _CLOSE, _PROG, _CTX = IoOp.READ, IoOp.WRITE, IoOp.CLOSE, Caller.PROG, Caller.CTX

# (history, caller, op, arg) -> allowed?  Strings, as `linker`'s aliases are.
PolicySpec = "Callable[[Trace, Caller, IoOp, Any], bool]"
# (history, result, local trace) -> acceptable?
PostCond = "Callable[[Trace, Any, Trace], bool]"


def enforced_locally(policy_spec: PolicySpec, h: Trace, lt: Iterable[Event]) -> bool:
    """Every event of `lt` satisfies `policy_spec` against the history it saw."""
    events = tuple(lt)
    for n, e in enumerate(events):
        if not policy_spec(_Seen(events, n, h), e.caller, e.op, e.arg):
            return False
    return True


class _Seen(Sequence):
    """History seen by event `n`, as an O(1) view: events[n-1], ..., events[0], older."""

    __slots__ = ("_events", "_n", "_older")

    def __init__(self, events: Trace, n: int, older: Trace):
        self._events, self._n, self._older = events, n, older

    def __len__(self):
        return self._n + len(self._older)

    def __getitem__(self, i: int):
        i = range(len(self))[i]  # negative indices count from the end; IndexError past it
        return self._events[self._n - 1 - i] if i < self._n else self._older[i - self._n]

    def __iter__(self):
        return chain(map(self._events.__getitem__, range(self._n - 1, -1, -1)), self._older)


def every_request_gets_a_response(lt: Iterable[Event]) -> bool:
    """Each descriptor the trusted side successfully read from is later
    written to.

    A request is a successful trusted-side read; a response is any write to
    the same descriptor.  A read makes its descriptor pending, a write
    discharges every pending read of its descriptor, and nothing may be
    pending at the end.  Failed reads and untrusted-side reads (a plugin
    paging through its own files) carry no obligation.
    """
    pending: set[int] = set()
    for e in lt:
        op = e.op
        if op is _READ and e.caller is _PROG and isinstance(e.result, Ok):
            pending.add(e.arg)
        elif op is _WRITE:
            pending.discard(e.arg[0])
    return not pending


def beh(comp, worlds_sample, desc, *, check: bool = True) -> frozenset:
    """Behaviour of `comp` over a world sample: {(local trace, result)}."""
    from .interp import interpret  # deferred: monitor state types sit between us

    out = set()
    for w in worlds_sample:
        run = interpret(comp, w, desc, check=check)
        out.add((run.local, run.result))
    return frozenset(out)


def satisfies(behavior, whole_run_post: PostCond) -> bool:
    """Every behaviour pair meets `whole_run_post` starting from the empty history."""
    return all(whole_run_post((), result, lt) for lt, result in behavior)


def in_folder(path: str, folder: str) -> bool:
    """True when the normalised path sits strictly inside `folder`."""
    norm = posixpath.normpath(path)
    return norm.startswith(folder.rstrip("/") + "/")


def is_open(fd: int, h: Trace) -> bool:
    """Descriptor open according to the history, regardless of opener."""
    return _opener(fd, h) is not None


def is_opened_by_ctx(fd: int, h: Trace) -> bool:
    return _opener(fd, h) is _CTX


def is_opened_by_prog(fd: int, h: Trace) -> bool:
    return _opener(fd, h) is _PROG


# A tuple: `in` tests each member by identity first.
_ALLOCATORS = (IoOp.OPENFILE, IoOp.SOCKET, IoOp.ACCEPT)


def _opener(fd: int, h: Trace) -> Caller | None:
    # Scan from most recent: a successful close ends the descriptor's life,
    # a successful allocation (open/socket/accept) reveals its owner.
    for e in h:
        op = e.op
        if op is _CLOSE:
            if e.arg == fd and isinstance(e.result, Ok):
                return None
        elif op in _ALLOCATORS and isinstance(e.result, Ok) and e.result.value == fd:
            return e.caller
    return None


def did_not_respond(h: Trace) -> bool:
    """No trusted-side write since the most recent successful read."""
    for e in h:
        op = e.op
        if op is _WRITE and e.caller is _PROG:
            return False
        if op is _READ and isinstance(e.result, Ok):
            return True
    return True


def wrote_to(fd: int, events: Iterable[Event]) -> bool:
    """Some write (any caller, any outcome) targeted `fd`."""
    return any(e.op is _WRITE and e.arg[0] == fd for e in events)
