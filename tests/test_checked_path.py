"""The checked path: the enforcement protocol of a contract crossing, and
the ghost check's change-only agreement on the web-server state."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_trace
from seclink.contracts import (
    ArrowSpec,
    ArrowT,
    BytesT,
    CheckKind,
    DBytes,
    DClosure,
    DErr,
    DInt,
    DLeft,
    DRight,
    DUnit,
    EitherT,
    ErrT,
    Leaf,
    Node,
    UnitT,
    export_value,
    import_value,
)
from seclink.demos import webserver_bundle
from seclink.demos.harness import link_whole
from seclink.effects import (
    GET_MSTATE,
    Caller,
    ErrCode,
    IoOp,
    Ok,
    call_io,
    contract_failure,
    evaluate,
    ret,
)
from seclink.interp import interpret
from seclink.monitor import Written, replay, webserver_mstate
from seclink.worlds import make_world
from test_monitor import _perturbed

# -- the enforcement protocol ----------------------------------------------------


def drive(comp):
    """Run `comp` against a model monitor whose state is a fresh object after
    each IO call; every call answers `Ok(())`.  Returns the value, the states
    each read handed out, and the IO call nodes."""
    core = evaluate(comp)
    state, reads, calls, value = object(), [], [], None
    while True:
        try:
            cur, _decided = core.send(value)
        except StopIteration as done:
            return done.value, reads, calls
        if cur.op is GET_MSTATE:
            reads.append(state)
            value = state
        else:
            calls.append(cur)
            state, value = object(), Ok(())


def recording_check(verdict):
    seen = []

    def ck(*args):
        seen.append(args)
        return verdict

    return ck, seen


def recording_target(started):
    """Trusted code that writes its argument once."""

    def target(*args):
        started.append(args)
        return call_io(IoOp.WRITE, (4, args[0]))

    return target


SEND = ArrowT((BytesT(),), EitherT(UnitT(), ErrT()), ArrowSpec("send", CheckKind.PRE))
HANDLER = ArrowT((BytesT(),), EitherT(UnitT(), ErrT()), ArrowSpec("handler", CheckKind.POST))
POST_SEND = replace(SEND, spec=ArrowSpec("handler", CheckKind.POST))  # trusted, judged after the call


def exported(td, ck, started):
    """`recording_target` exported at `td` behind `ck`, as linking exports it."""
    return export_value(td, Node(ck, Leaf(), Leaf()), recording_target(started)).fn


def test_pre_reads_twice_and_checks_once_before_the_call():
    ck, seen = recording_check(True)
    started = []
    value, reads, calls = drive(exported(SEND, ck, started)(DBytes(b"x")))
    assert value == DLeft(DUnit())
    assert len(reads) == 2 and reads[0] is reads[1]
    assert seen == [((b"x",), reads[0], (), reads[1])]
    assert started == [(b"x",)] and [c.op for c in calls] == [IoOp.WRITE]


def test_pre_denial_calls_nothing_and_records_nothing():
    ck, seen = recording_check(False)
    started = []
    value, reads, calls = drive(exported(SEND, ck, started)(DBytes(b"x")))
    assert value == DRight(DErr(ErrCode.CONTRACT_FAILURE, "pre:send"))
    assert len(reads) == 2 and len(seen) == 1
    assert started == [] and calls == []


@pytest.mark.parametrize("verdict", [True, False])
def test_post_reads_around_the_call_and_judges_its_result(verdict):
    ck, seen = recording_check(verdict)
    started = []
    value, reads, calls = drive(exported(POST_SEND, ck, started)(DBytes(b"x")))
    assert value == (DLeft(DUnit()) if verdict else DRight(DErr(ErrCode.CONTRACT_FAILURE, "post:handler")))
    assert len(reads) == 2 and reads[0] is not reads[1]
    assert seen == [((b"x",), reads[0], Ok(()), reads[1])]
    assert started == [(b"x",)] and [c.op for c in calls] == [IoOp.WRITE]


@pytest.mark.parametrize("verdict", [True, False])
def test_exported_checked_arrow_keeps_the_protocol(verdict):
    ck, seen = recording_check(verdict)
    started = []
    dclo = export_value(SEND, Node(ck, Leaf(), Leaf()), recording_target(started))
    value, reads, calls = drive(dclo.fn(DBytes(b"x")))
    if verdict:
        assert value == DLeft(DUnit()) and len(calls) == 1
    else:
        assert value == DRight(DErr(ErrCode.CONTRACT_FAILURE, "pre:send"))
        assert started == [] and calls == []
    assert len(reads) == 2 and seen == [((b"x",), reads[0], (), reads[1])]


@pytest.mark.parametrize("verdict", [True, False])
def test_imported_checked_arrow_keeps_the_protocol(verdict):
    ck, seen = recording_check(verdict)
    entered = []

    def ctx_fn(darg):
        entered.append(darg)
        return ret(DLeft(DUnit()))

    imported = import_value(HANDLER, Node(ck, Leaf(), Leaf()), DClosure(ctx_fn))
    value, reads, calls = drive(imported.value(b"x"))
    assert value == (Ok(()) if verdict else contract_failure("post:handler"))
    assert entered == [DBytes(b"x")] and calls == []
    assert len(reads) == 2 and seen == [((b"x",), reads[0], Ok(()), reads[1])]


@pytest.mark.parametrize(
    "args,why",
    [((DBytes(b"x"), DBytes(b"y")), "import:arity:send"), ((DInt(3),), "import:BytesT")],
    ids=["arity", "junk-argument"],
)
def test_exported_arrow_fails_bad_arguments_in_band(args, why):
    ck, seen = recording_check(True)
    started = []
    dclo = export_value(SEND, Node(ck, Leaf(), Leaf()), recording_target(started))
    value, reads, calls = drive(dclo.fn(*args))
    assert value == DRight(DErr(ErrCode.CONTRACT_FAILURE, why))
    assert reads == [] and seen == [] and started == [] and calls == []


@pytest.mark.parametrize("direction", ["ctx-calls-trusted", "trusted-calls-ctx"])
def test_unchecked_arrow_reads_nothing_and_calls_once_when_reached(direction):
    started = []
    if direction == "ctx-calls-trusted":
        call = export_value(replace(SEND, spec=None), Leaf(), recording_target(started)).fn(DBytes(b"x"))
        expected, started_with, ops = DLeft(DUnit()), (b"x",), [IoOp.WRITE]
    else:
        ctx_fn = lambda *dargs: started.append(dargs) or ret(DLeft(DUnit()))
        call = import_value(replace(HANDLER, spec=None), Leaf(), DClosure(ctx_fn)).value(b"x")
        expected, started_with, ops = Ok(()), (DBytes(b"x"),), []
    assert started == []  # building the call starts nothing
    value, reads, calls = drive(call)
    assert (value, reads, started, [c.op for c in calls]) == (expected, [], [started_with], ops)


def test_imported_arrow_fails_a_junk_result_in_band():
    imported = import_value(replace(HANDLER, spec=None), Leaf(), DClosure(lambda darg: ret(DInt(3))))
    value, reads, _calls = drive(imported.value(b"x"))
    assert value == contract_failure("import:EitherT") and reads == []


# -- change-only ghost agreement -------------------------------------------------


def fresh_agree(s, a) -> bool:
    """The web-server agreement computed from scratch on plain sets."""
    owner, written, responded = a
    ctx_opened = sorted(fd for fd, caller in owner.items() if caller is Caller.CTX)
    return (
        s.responded == responded
        and sorted(s.ctx_opened) == ctx_opened
        and set(s.written) == set(written)
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_memoised_agree_matches_a_fresh_comparison(seed):
    # one descriptor for the whole trace, so its memo carries across checks
    desc = webserver_mstate()
    events = random_trace(random.Random(seed), 14)
    state, alpha, history = desc.init, desc.alpha_init, ()
    for i in range(len(events) + 1):
        if i:
            e = events[i - 1]
            state, alpha, history = desc.upd(state, e), desc.alpha_step(alpha, e), (e,) + history
        assert desc.agree(state, alpha) and fresh_agree(state, alpha)
        for wrong in _perturbed("webserver", state, history):
            assert desc.agree(wrong, alpha) == fresh_agree(wrong, alpha)
        twin = replay(webserver_mstate(), events[:i])  # equal, no component shared
        assert desc.agree(twin, alpha) and desc.agree(state, alpha)


def test_unchanging_event_leaves_the_fold_as_it_was():
    desc = webserver_mstate()
    alpha = desc.alpha_init
    for e in random_trace(random.Random(5), 200):
        after = desc.alpha_step(alpha, e)
        assert (after is alpha) == (after == alpha), e
        alpha = after


REQ = b"GET /index.html HTTP/1.1\r\n\r\n"


@pytest.mark.parametrize("n", [10, 200])
def test_state_read_after_an_event_scans_no_owner_map(n):
    ws = webserver_mstate()
    log, scans = [], []

    class CountingOwner(dict):
        """An owner map that records each scan of its entries."""

        def items(self):
            scans.append(self)
            return super().items()

    def step(a, e):
        b = ws.alpha_step(a, e)
        return b if b[0] is a[0] else (CountingOwner(b[0]), *b[1:])

    def upd(s, e):
        log.append("event")
        return ws.upd(s, e)

    def agree(s, a):
        before, is_read = len(scans), bool(log) and log[-1] != "event"
        log.append("check")
        verdict = ws.agree(s, a)
        if is_read:
            log.append("read")
            assert len(scans) == before, "a state read scanned the owner map"
        return verdict

    init = (CountingOwner(), Written(), False)
    desc = replace(ws, upd=upd, alpha_init=init, alpha_step=step, agree=agree, abstracts=None)
    bundle = webserver_bundle()
    world = make_world(
        files={"/temp/index.html": b"<h1>hi</h1>"},
        requests=[(i, REQ) for i in range(n)],
        max_iterations=n,
    )
    whole = link_whole(bundle, bundle.context("benign"), prog=bundle.prog_for_budget(n))
    run = interpret(whole, world, desc)
    assert run.result == n and run.audit_ok
    assert log.count("read") > 2 * n and 0 < len(scans) < log.count("event")


def test_owner_map_changes_only_at_context_opens_and_closes():
    # the fold keeps the context-opened view: trusted accepts and closes,
    # and failed or denied calls, leave the owner map as it was
    ws, changed_at, n = webserver_mstate(), [], 50

    def step(a, e):
        b = ws.alpha_step(a, e)
        if b[0] is not a[0]:
            changed_at.append(e)
        return b

    bundle = webserver_bundle()
    world = make_world(
        files={"/temp/index.html": b"<h1>hi</h1>"},
        requests=[(i, REQ) for i in range(n)],
        max_iterations=n,
    )
    whole = link_whole(bundle, bundle.context("benign"), prog=bundle.prog_for_budget(n))
    run = interpret(whole, world, replace(ws, alpha_step=step, abstracts=None))
    assert run.result == n and run.audit_ok
    ctx_open_close = [e for e in run.local if e.caller is Caller.CTX and e.op in (IoOp.OPENFILE, IoOp.CLOSE)]
    assert len(ctx_open_close) == 2 * n
    assert changed_at == ctx_open_close
