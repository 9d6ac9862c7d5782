"""The run-time ghost check: the abstraction fold advanced beside `upd`."""

from __future__ import annotations

import operator
import random
from dataclasses import replace

import pytest

from generators import random_trace
from seclink.demos import webserver_bundle, zip_bundle
from seclink.demos.harness import link_whole
from seclink.demos.ziplib import make_zip_prog
from seclink.effects import Caller, Event, IoOp, Ok, call_io, do, get_mstate, ret
from seclink.interp import GhostInvariantError, interpret
from seclink.monitor import (
    History,
    MStateDesc,
    Written,
    enforce_policy,
    full_trace_mstate,
    replay,
    webserver_mstate,
)
from seclink.worlds import make_world

WS = webserver_mstate()
REQ = b"GET /index.html HTTP/1.1\r\n\r\n"
CTX_OPEN = Event(Caller.CTX, IoOp.OPENFILE, ("/temp/index.html", (), 0), Ok(5))
PROG_WRITE = Event(Caller.PROG, IoOp.WRITE, (4, b"HTTP/1.1 200 OK\r\n\r\n"), Ok(()))


def _forget_ctx_opens(s, e):
    return s if (e.caller, e.op) == (Caller.CTX, IoOp.OPENFILE) else WS.upd(s, e)


def _never_respond(s, e):
    return replace(WS.upd(s, e), responded=False)


# `abstracts=None` re-derives it from the (unchanged) fold
BROKEN = {
    "forgets-ctx-open": (replace(WS, upd=_forget_ctx_opens, abstracts=None), CTX_OPEN),
    "never-responds": (replace(WS, upd=_never_respond, abstracts=None), PROG_WRITE),
}


def _server_run(desc, n, *, check=True, seed_history=()):
    bundle = webserver_bundle()
    world = make_world(
        files={"/temp/index.html": b"<h1>hi</h1>"},
        requests=[(i, REQ) for i in range(n)],
        max_iterations=n,
    )
    whole = link_whole(bundle, bundle.context("benign"), prog=bundle.prog_for_budget(n))
    return interpret(whole, world, desc, check=check, seed_history=seed_history)


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_upd_raises_at_the_breaking_event(name):
    desc, expected = BROKEN[name]
    # unchecked, the broken state goes unnoticed and the run completes
    local = _server_run(desc, 3, check=False).local
    breaking = next(
        e
        for i, e in enumerate(local)
        if not desc.abstracts(replay(desc, local[: i + 1]), tuple(reversed(local[: i + 1])))
    )
    assert (breaking.caller, breaking.op) == (expected.caller, expected.op)
    with pytest.raises(GhostInvariantError) as err:
        _server_run(desc, 3)
    assert str(err.value).endswith(f"after {breaking.render()}")


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_upd_rejects_seeded_history(name):
    desc, breaking_event = BROKEN[name]
    with pytest.raises(GhostInvariantError, match="seeded state"):
        interpret(ret(0), make_world(), desc, seed_history=(breaking_event,))
    assert interpret(ret(0), make_world(), desc, seed_history=(breaking_event,), check=False).result == 0
    assert interpret(ret(0), make_world(), WS, seed_history=(breaking_event,)).result == 0


def test_state_read_is_checked():
    # a mutable carrier lets trusted code corrupt the state it was handed
    # with no event in between; only the check at the next read can see it
    desc = MStateDesc("list", [], lambda s, e: s + [e], [], lambda a, e: a + [e], operator.eq)

    @do
    def tamper():
        yield call_io(IoOp.SOCKET, ())
        state = yield get_mstate()
        state.append("junk")
        yield get_mstate()
        return 0

    with pytest.raises(GhostInvariantError, match="at state read"):
        interpret(tamper(), make_world(), desc)
    assert interpret(tamper(), make_world(), desc, check=False).result == 0


def test_policy_decision_is_checked():
    # as above, but the first check after the corruption is the one made
    # right before the policy decides a context call
    desc = MStateDesc("list", [], lambda s, e: s + [e], [], lambda a, e: a + [e], operator.eq)
    lib = enforce_policy(lambda s, op, arg: True, desc)

    @do
    def tamper():
        yield call_io(IoOp.SOCKET, ())
        state = yield get_mstate()
        state.append("junk")
        yield lib.call(IoOp.SOCKET, ())
        return 0

    with pytest.raises(GhostInvariantError, match="at policy decision"):
        interpret(tamper(), make_world(), desc)
    assert interpret(tamper(), make_world(), desc, check=False).result == 0


@pytest.mark.parametrize("n", [10, 200])
def test_check_folds_each_event_once(n):
    folded = []

    def counting_step(a, e):
        folded.append(e)
        return WS.alpha_step(a, e)

    def rescan(s, h):
        raise AssertionError("interpret rescanned the history")

    desc = replace(WS, alpha_step=counting_step, abstracts=rescan)
    seed = tuple(random_trace(random.Random(n), 8))
    run = _server_run(desc, n, seed_history=seed)
    assert len(run.local) > 7 * n
    assert folded == list(seed) + list(run.local)

    folded.clear()
    _server_run(desc, n, seed_history=seed, check=False)
    assert folded == []


FT = full_trace_mstate()


def _zip_run(desc, n, *, check=True):
    inputs = tuple(f"/temp/in{i}.txt" for i in range(n))
    world = make_world(files={p: b"data-%d" % i for i, p in enumerate(inputs)})
    bundle = zip_bundle()
    whole = link_whole(bundle, bundle.context("benign"), prog=make_zip_prog(inputs))
    return interpret(whole, world, desc, check=check)


def test_full_trace_owner_map_corruption_raises_at_the_breaking_event():
    # the events stay right; only the owner map forgets closes
    def keep_closed_owners(s, e):
        return History(e, s, s.owner) if e.op is IoOp.CLOSE else FT.upd(s, e)

    desc = replace(FT, upd=keep_closed_owners, abstracts=None)
    run = _zip_run(desc, 3, check=False)
    assert run.result == 3 and run.mstate == tuple(reversed(run.local))
    breaking = next(e for e in run.local if e.op is IoOp.CLOSE)
    with pytest.raises(GhostInvariantError) as err:
        _zip_run(desc, 3)
    assert str(err.value).endswith(f"after {breaking.render()}")


@pytest.mark.parametrize("n", [10, 300])
def test_full_trace_agree_compares_each_event_once(n, monkeypatch):
    # `agree` stops at the pair it verified last: one event comparison per
    # recorded event, whatever the history's length, and none at state reads.
    # The fold keeps equal copies, so no comparison short-cuts on identity.
    compared = []
    event_eq = Event.__eq__

    def counting_eq(self, other):
        compared.append(self)
        return event_eq(self, other)

    desc = replace(FT, alpha_step=lambda a, e: FT.alpha_step(a, replace(e)), abstracts=None)
    monkeypatch.setattr(Event, "__eq__", counting_eq)
    run = _zip_run(desc, n)
    assert run.result == n and len(run.local) == 4 * n + 3
    assert len(compared) == len(run.local)


@pytest.mark.parametrize("n", [10, 1000])
def test_webserver_agree_visits_each_written_fd_once(n, monkeypatch):
    # `agree` stops at the written pair it verified last: one node per newly
    # written descriptor, whatever the run's length, and none at state reads.
    visits = []
    slot = Written.__dict__["fd"]

    def read_fd(node):
        visits.append(node)
        return slot.__get__(node, Written)

    monkeypatch.setattr(Written, "fd", property(read_fd, slot.__set__))
    run = _server_run(WS, n)
    assert run.mstate.written.length == n
    assert len(visits) == n


def test_checked_webserver_run_of_ten_thousand_requests():
    run = _server_run(WS, 10_000)
    assert len(run.local) > 7 * 10_000
    assert run.mstate.written.length == 10_000 and run.audit_ok
