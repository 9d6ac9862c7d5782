"""Trace predicates, behaviours, and their algebra."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_trace
from oracles import reference_enforced_locally, response_oracle
from seclink.demos import harness, logging_lib, webserver, ziplib
from seclink.effects import Caller, Err, ErrCode, Event, IoOp, Ok, ret
from seclink.monitor import full_trace_mstate, stateless_mstate
from seclink.traces import (
    _opener,
    beh,
    did_not_respond,
    enforced_locally,
    every_request_gets_a_response,
    in_folder,
    is_open,
    is_opened_by_ctx,
    is_opened_by_prog,
    satisfies,
    wrote_to,
)
from seclink.worlds import make_world


def ev(caller, op, arg, result) -> Event:
    return Event(caller, op, arg, result)


CTX_OPEN_A = ev(Caller.CTX, IoOp.OPENFILE, ("/temp/a.txt", (), 0), Ok(5))
CTX_READ_5 = ev(Caller.CTX, IoOp.READ, 5, Ok(b"alpha"))
PROG_READ_4 = ev(Caller.PROG, IoOp.READ, 4, Ok(b"req"))
PROG_WRITE_4 = ev(Caller.PROG, IoOp.WRITE, (4, b"resp"), Ok(()))


# -- enforced_locally --------------------------------------------------------


def test_enforced_locally_empty_is_true():
    assert enforced_locally(webserver.policy_spec, (), [])


def test_enforced_locally_rejects_escape():
    bad = ev(Caller.CTX, IoOp.OPENFILE, ("/etc/passwd", (), 0), Ok(5))
    assert not enforced_locally(webserver.policy_spec, (), [bad])


def test_enforced_locally_threads_history():
    # the read is justified by the open that precedes it in the same trace
    assert enforced_locally(webserver.policy_spec, (), [CTX_OPEN_A, CTX_READ_5])
    assert not enforced_locally(webserver.policy_spec, (), [CTX_READ_5, CTX_OPEN_A])


@given(st.integers(0, 2**32 - 1), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_enforced_locally_splits(seed, cut):
    rng = random.Random(seed)
    lt = random_trace(rng, 10)
    h = tuple(reversed(random_trace(rng, 5)))
    k = min(cut, len(lt))
    first, second = lt[:k], lt[k:]
    whole = enforced_locally(webserver.policy_spec, h, lt)
    split = enforced_locally(webserver.policy_spec, h, first) and enforced_locally(
        webserver.policy_spec, tuple(reversed(first)) + h, second
    )
    assert whole == split


def recording(spec, seen):
    """`spec`, noting each history it is shown as it reads it."""

    def judged(h, caller, op, arg):
        seen.append((len(h), h[0] if len(h) else None, h[-1] if len(h) else None, tuple(h)))
        return spec(h, caller, op, arg)

    return judged


SPECS = [
    webserver.policy_spec,
    ziplib.policy_spec,
    logging_lib.policy_spec,
    harness.allow_all_in_tmp_spec,
    lambda h, caller, op, arg: True,
]


@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(SPECS))))
@settings(max_examples=150, deadline=None)
def test_enforced_locally_agrees_with_reference_fold(seed, which):
    rng = random.Random(seed)
    lt = random_trace(rng, 20)
    h = tuple(reversed(random_trace(rng, 5)))
    seen, expected = [], []
    verdict = enforced_locally(recording(SPECS[which], seen), h, lt)
    assert verdict == reference_enforced_locally(recording(SPECS[which], expected), h, lt)
    assert seen == expected


def test_enforced_locally_folds_a_long_trace():
    # 10^5 events: the reference fold, quadratic, takes seconds upon seconds
    events = [PROG_READ_4, PROG_WRITE_4] * (5 * 10**4)
    h = (CTX_OPEN_A,)

    position = iter(range(len(events)))

    def spec(seen, caller, op, arg):
        n = next(position)
        newest = events[n - 1] if n else CTX_OPEN_A
        return len(seen) == n + 1 and seen[0] is newest and seen[-1] is CTX_OPEN_A

    assert enforced_locally(spec, h, events)


# -- every_request_gets_a_response -------------------------------------------


def test_response_empty_trace():
    assert every_request_gets_a_response([])


def test_response_answered():
    assert every_request_gets_a_response([PROG_READ_4, PROG_WRITE_4])


def test_response_unanswered():
    assert not every_request_gets_a_response([PROG_READ_4])


def test_response_failed_read_is_exempt():
    failed = ev(Caller.PROG, IoOp.READ, 4, Err(ErrCode.EBADF))
    assert every_request_gets_a_response([failed])


def test_response_write_discharges_all_pending():
    assert every_request_gets_a_response([PROG_READ_4, PROG_READ_4, PROG_WRITE_4])


def test_response_untrusted_reads_exempt():
    assert every_request_gets_a_response([CTX_OPEN_A, CTX_READ_5])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_response_agrees_with_oracle(seed):
    lt = random_trace(random.Random(seed), 14)
    assert every_request_gets_a_response(lt) == response_oracle(lt)


# -- beh / satisfies ----------------------------------------------------------


def test_beh_of_ret(sample_worlds):
    assert beh(ret(0), sample_worlds[:1], stateless_mstate()) == frozenset({((), 0)})


def test_beh_one_behaviour_per_world(sample_worlds):
    for w in sample_worlds:
        assert len(beh(ret(1), [w], stateless_mstate())) == 1


def test_beh_distinguishes_worlds():
    from seclink.effects import call_io, do

    @do
    def prog():
        r = yield call_io(IoOp.OPENFILE, ("/temp/a.txt", (), 0))
        return 1 if isinstance(r, Ok) else 0

    worlds = [make_world(files={"/temp/a.txt": b"x"}), make_world()]
    behaviour = beh(prog(), worlds, stateless_mstate())
    assert len(behaviour) == 2
    assert satisfies(behaviour, lambda h, r, lt: r in (0, 1))
    assert satisfies(frozenset(), lambda h, r, lt: False)


# -- trace-level predicates ----------------------------------------------------


def test_is_open_and_owner():
    h = (CTX_READ_5, CTX_OPEN_A)  # most recent first
    assert is_open(5, h)
    assert is_opened_by_ctx(5, h)
    closed = (ev(Caller.CTX, IoOp.CLOSE, 5, Ok(())),) + h
    assert not is_open(5, closed)
    assert not is_opened_by_ctx(5, closed)


def test_failed_close_keeps_open():
    h = (ev(Caller.PROG, IoOp.CLOSE, 5, Err(ErrCode.EBADF)), CTX_OPEN_A)
    assert is_opened_by_ctx(5, h)


def reference_opener(fd, h):
    """Plain scan from most recent: the first successful close of `fd` or
    successful allocation returning `fd` decides."""
    for e in h:
        if e.op is IoOp.CLOSE and e.arg == fd and e.result == Ok(()):
            return None
        if e.op in (IoOp.OPENFILE, IoOp.SOCKET, IoOp.ACCEPT) and e.result == Ok(fd):
            return e.caller
    return None


fds = st.integers(0, 4)
callers = st.sampled_from([Caller.PROG, Caller.CTX])
fd_events = st.one_of(
    st.builds(
        ev,
        callers,
        st.sampled_from([IoOp.OPENFILE, IoOp.SOCKET, IoOp.ACCEPT]),
        st.just(()),
        st.one_of(st.builds(Ok, fds), st.just(Err(ErrCode.ENOENT))),
    ),
    st.builds(
        ev,
        callers,
        st.just(IoOp.CLOSE),
        fds,
        st.sampled_from([Ok(()), Err(ErrCode.EBADF)]),
    ),
    st.builds(lambda c, fd: ev(c, IoOp.READ, fd, Ok(b"x")), callers, fds),
    st.builds(lambda c, fd: ev(c, IoOp.WRITE, (fd, b"x"), Ok(())), callers, fds),
)


@given(st.lists(fd_events, max_size=30), fds)
@settings(max_examples=300, deadline=None)
def test_opener_predicates_match_reference_scan(h, fd):
    h = tuple(h)
    owner = reference_opener(fd, h)
    assert is_open(fd, h) == (owner is not None)
    assert is_opened_by_ctx(fd, h) == (owner is Caller.CTX)
    assert is_opened_by_prog(fd, h) == (owner is Caller.PROG)


@given(st.lists(fd_events, max_size=30))
@settings(max_examples=300, deadline=None)
def test_full_trace_owner_map_matches_opener(events):
    # both the state (`upd`) and the ghost fold's carrier, on every prefix
    desc = full_trace_mstate()
    state, alpha, h = desc.init, desc.alpha_init, ()
    for e in events:
        state, alpha, h = desc.upd(state, e), desc.alpha_step(alpha, e), (e,) + h
        assert state == alpha == h
        for carrier in (state, alpha):
            assert dict(carrier.owner) == {fd: _opener(fd, h) for fd in range(5) if is_open(fd, h)}
            for fd in range(5):
                assert carrier.owner.get(fd) is _opener(fd, h)
                assert (fd in carrier.owner) == is_open(fd, h)
                assert (carrier.owner.get(fd) is Caller.PROG) == is_opened_by_prog(fd, h)


def test_did_not_respond_transitions():
    assert did_not_respond(())
    assert did_not_respond((PROG_READ_4,))
    assert not did_not_respond((PROG_WRITE_4, PROG_READ_4))
    # a later successful read reopens the obligation
    assert did_not_respond((PROG_READ_4, PROG_WRITE_4, PROG_READ_4))


def test_wrote_to_any_caller_any_result():
    failed = ev(Caller.CTX, IoOp.WRITE, (9, b"x"), Err(ErrCode.EBADF))
    assert wrote_to(9, [failed])
    assert not wrote_to(8, [failed])


def test_in_folder():
    assert in_folder("/temp/a.txt", "/temp")
    assert in_folder("/temp/sub/b", "/temp")
    assert not in_folder("/etc/passwd", "/temp")
    assert not in_folder("/temp/../etc/passwd", "/temp")
    assert not in_folder("/temp", "/temp")
