"""Mediation of context IO: a call reached under a guard is the context's,
whoever built it.  A secure-library call is one node under a guard of the
library's policy; the interpreter canonicalises its argument once and
decides it by every policy in force, against the current state, right
before its step.  Guards nest by conjunction, and a trusted function the
context calls runs as the program's code."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seclink import worlds
from seclink.contracts import DBytes, DClosure, DLeft, DUnit
from seclink.demos import webserver, webserver_bundle
from seclink.demos.harness import link_whole, run_scenario
from seclink.effects import Call, Caller, Do, IoOp, _trusted, bind, call_io, contract_failure, do, evaluate, guard
from seclink.effects import is_contract_failure, is_ok, ret
from seclink.httputil import http_ok
from seclink.interp import interpret
from seclink.monitor import enforce_policy, webserver_mstate
from seclink.worlds import make_world
from test_checked_path import drive


@pytest.fixture()
def canon_calls(monkeypatch):
    """Counts every canonicalisation of an IO argument."""
    count = [0]

    def counting(canon):
        def counted(arg):
            count[0] += 1
            return canon(arg)

        return counted

    monkeypatch.setattr(worlds, "_CANON", worlds._ByOp({op: counting(c) for op, c in worlds._CANON.items()}))
    return count


def recording(policy):
    seen = []

    def decide(state, op, arg):
        verdict = policy(state, op, arg)
        seen.append((op, arg, verdict))
        return verdict

    return decide, seen


def test_library_call_is_one_node_and_reads_no_state():
    lib = enforce_policy(webserver.policy, webserver_mstate())
    value, reads, calls = drive(lib.call(IoOp.OPENFILE, ("/temp/a.txt", (), 0)))
    assert reads == [] and len(calls) == 1
    node = calls[0]
    assert type(node) is Call and (node.op, node.arg) == (IoOp.OPENFILE, ("/temp/a.txt", (), 0))
    _node, decided_by = next(evaluate(lib.call(IoOp.OPENFILE, ("/temp/a.txt", (), 0))))
    assert decided_by == (lib.policy,)


def test_call_node_has_op_and_arg_only():
    assert [f.name for f in fields(Call)] == ["op", "arg"]


def test_web_checked_runs_canonicalise_once_per_call(canon_calls):
    shipped = webserver_bundle()
    decide, seen = recording(shipped.interface.policy)
    bundle = replace(shipped, interface=replace(shipped.interface, policy=decide))
    lib_calls = events = 0
    for name in shipped.context_names():
        for world in bundle.worlds:
            canon_calls[0], seen[:] = 0, []
            prog = bundle.prog_for_budget(world.max_iterations)
            whole = link_whole(bundle, shipped.context(name), prog=prog)
            run = interpret(whole, world, bundle.interface.mstate)
            denied = sum(1 for _op, _arg, ok in seen if not ok)
            assert canon_calls[0] == len(run.local) + denied, (name, world)
            lib_calls, events = lib_calls + len(seen), events + len(run.local)
    assert lib_calls > 0 and events > lib_calls


def test_policy_sees_each_canonical_argument_once():
    decide, seen = recording(webserver.policy)
    lib = enforce_policy(decide, webserver_mstate())

    @do
    def ctx():
        opened = yield lib.call(IoOp.OPENFILE, "/temp/a.txt")  # a bare path canonicalises to a triple
        yield lib.call(IoOp.READ, opened.value)
        yield lib.call(IoOp.CLOSE, opened.value)
        return 0

    run = interpret(ctx(), make_world(files={"/temp/a.txt": b"x"}), lib.desc)
    expected = [(IoOp.OPENFILE, ("/temp/a.txt", (), 0)), (IoOp.READ, 3), (IoOp.CLOSE, 3)]
    assert [(e.op, e.arg) for e in run.local] == expected
    assert [(op, arg) for op, arg, _ok in seen] == [(e.op, e.arg) for e in run.local]
    assert all(arg is e.arg for (_op, arg, _ok), e in zip(seen, run.local))  # not canonicalised again


def test_denied_call_leaves_the_run_as_it_was():
    lib = enforce_policy(webserver.policy, webserver_mstate())

    def prog(with_denied):
        @do
        def body():
            sock = yield call_io(IoOp.SOCKET, ())
            opened = yield lib.call(IoOp.OPENFILE, ("/temp/a.txt", (), 0))
            if with_denied:
                refused = yield lib.call(IoOp.OPENFILE, ("/etc/passwd", (), 0))
                assert is_contract_failure(refused) and refused.why == "policy:Openfile"
            yield lib.call(IoOp.CLOSE, opened.value)
            yield call_io(IoOp.CLOSE, sock.value)
            return 0

        return body()

    world = make_world(files={"/temp/a.txt": b"x", "/etc/passwd": b"root"})
    runs = [interpret(prog(flag), world, lib.desc) for flag in (False, True)]
    plain, denied = ((r.local, r.mstate, r.ctx_events, r.monitored_calls) for r in runs)
    assert denied == plain and plain[2] == plain[3] == 2


# -- nesting ---------------------------------------------------------------------

PASSWD = ("/etc/passwd", (), 0)
allow_all = lambda state, op, arg: True


def test_guards_conjoin_so_an_inner_guard_cannot_widen_the_outer_policy():
    world = make_world(files={"/etc/passwd": b"root"})
    desc = webserver_mstate()
    for comp in (
        guard(guard(call_io(IoOp.OPENFILE, PASSWD), allow_all), webserver.policy),
        _trusted(guard(guard(call_io(IoOp.OPENFILE, PASSWD), allow_all)), webserver.policy),  # as linked
        guard(guard(call_io(IoOp.OPENFILE, PASSWD), webserver.policy), allow_all),
    ):
        run = interpret(comp, world, desc)
        assert run.result == contract_failure("policy:Openfile") and run.local == ()
    allowed = interpret(guard(call_io(IoOp.OPENFILE, PASSWD), allow_all), world, desc)
    assert [(e.caller, e.arg) for e in allowed.local] == [(Caller.CTX, PASSWD)]


def test_a_continuation_cannot_leave_a_guard_it_did_not_enter():
    # A frame that is not callable is not a way out of the guard: the loop
    # restores a scope only at the end of a mark it entered.
    world = make_world(files={"/etc/passwd": b"root"})
    for leave in ((None, ()), object(), None):
        comp = guard(bind(bind(ret(0), leave), lambda _: call_io(IoOp.OPENFILE, PASSWD)), webserver.policy)
        with pytest.raises(TypeError):
            interpret(comp, world, webserver_mstate())
        body = Do(lambda: leave, ())  # a `@do` body that returns no generator
        with pytest.raises(TypeError):
            interpret(guard(bind(body, lambda _: call_io(IoOp.OPENFILE, PASSWD)), webserver.policy), world, webserver_mstate())


def test_a_policy_already_in_force_decides_once():
    decide, seen = recording(webserver.policy)
    lib = enforce_policy(decide, webserver_mstate())
    comp = _trusted(guard(guard(lib.call(IoOp.OPENFILE, ("/temp/a.txt", (), 0)), decide)), decide)
    run = interpret(comp, make_world(files={"/temp/a.txt": b"x"}), lib.desc)
    assert len(seen) == 1 and [e.caller for e in run.local] == [Caller.CTX]


def test_trusted_callback_io_under_a_guard_is_the_programs(ws_bundle):
    # context -> trusted `send` -> IO: the write is the program's, and the
    # context's own call after `send` returns is the context's again
    def handler(_lib):
        def run(_client, _req, send):
            opened = lambda sent: bind(call_io(IoOp.OPENFILE, ("/temp/index.html", (), 0)), lambda _o: ret(sent))
            return bind(send.fn(DBytes(http_ok(b"x"))), opened)

        return DClosure(run)

    run = interpret(link_whole(ws_bundle, handler), ws_bundle.worlds[1], ws_bundle.interface.mstate)
    callers = [(e.caller, e.op) for e in run.local if e.op in (IoOp.WRITE, IoOp.OPENFILE)]
    assert callers == [(Caller.PROG, IoOp.WRITE), (Caller.CTX, IoOp.OPENFILE)]
    assert run.audit_ok


# -- malformed arguments -----------------------------------------------------------


def answering_handler(outcomes, make_call=None):
    """A host handler that maybe makes one call, records its outcome, and answers."""

    def handler(lib):
        def run(_client, _req, send):
            def answer(outcome):
                outcomes.append(outcome)
                return send.fn(DBytes(http_ok(b"x")))

            return bind(make_call(lib), answer) if make_call else answer(None)

        return DClosure(run)

    return handler


# Fields a well-formed argument of each op would carry, put in a container
# that is not a tuple or list.  Iterating the dict, the set or the generator
# would give exactly those fields (the set in hash order).
_FIELDS = {
    IoOp.WRITE: (4, b"x"),
    IoOp.BIND: (3, "0.0.0.0", 80),
    IoOp.LISTEN: (3, 5),
    IoOp.SETSOCKOPT: (3, "SO_REUSEADDR", 1),
    IoOp.OPENFILE: ("/temp/a", (), 0),
}


def junk_args():
    """Malformed arguments, built afresh each time since a generator is one of
    them.  Among them are those a cast would accept: a payload of 5 (five zero
    bytes), the flags "O_CREAT" (a tuple of its letters), and fields in a dict,
    a set or a generator.  A string is junk for each op but `Openfile`, whose
    argument may be a bare path."""
    yield from (
        (IoOp.WRITE, 42),
        (IoOp.WRITE, (1, 5)),
        (IoOp.WRITE, (1, "text")),
        (IoOp.OPENFILE, ("/temp/a", "O_CREAT", 0)),
        (IoOp.OPENFILE, (b"/temp/a", (), 0)),
        (IoOp.READ, "3"),
        (IoOp.CLOSE, 3.0),
        (IoOp.SELECT, "3"),
    )
    for op, fields in _FIELDS.items():
        yield op, dict.fromkeys(fields, 0)
        yield op, set(fields)
        yield op, (x for x in fields)
        if op is not IoOp.OPENFILE:
            yield op, "4x"


def test_malformed_context_call_fails_in_band(ws_bundle):
    world, desc = ws_bundle.worlds[1], ws_bundle.interface.mstate
    plain = interpret(link_whole(ws_bundle, answering_handler([])), world, desc)
    for op, arg in junk_args():
        outcomes = []
        junk_handler = answering_handler(outcomes, lambda lib: lib.call(op, arg))
        junk = interpret(link_whole(ws_bundle, junk_handler), world, desc)
        assert outcomes == [contract_failure("ctx:junk")], (op, arg)
        assert (junk.local, junk.mstate, junk.result) == (plain.local, plain.mstate, plain.result)


def test_malformed_program_call_still_raises():
    for op, arg in junk_args():
        with pytest.raises(TypeError):
            interpret(call_io(op, arg), make_world(), webserver_mstate())
    with pytest.raises(TypeError, match="unknown operation 'Frobnicate'"):
        interpret(call_io("Frobnicate", ()), make_world(), webserver_mstate())
    outcome = interpret(guard(call_io("Frobnicate", ()), webserver.policy), make_world(), webserver_mstate())
    assert (outcome.result, outcome.local) == (contract_failure("ctx:junk"), ())


def test_wrong_field_count_is_junk_from_a_context_and_raises_from_the_program(ws_bundle):
    world, desc = ws_bundle.worlds[1], ws_bundle.interface.mstate
    outcomes = []
    short_write = answering_handler(outcomes, lambda lib: lib.call(IoOp.WRITE, (3,)))
    interpret(link_whole(ws_bundle, short_write), world, desc)
    assert outcomes == [contract_failure("ctx:junk")]
    with pytest.raises(ValueError, match="expected 2 fields"):
        interpret(call_io(IoOp.WRITE, (3,)), make_world(), webserver_mstate())


# -- provenance: a call is the context's wherever the context built it ---------------

BUNDLE = webserver_bundle()
PATHS = ("/temp/index.html", "/temp/a.txt", "/temp/nope", "/etc/passwd")
STEPS = ("read", "write-own", "write-client", "close", "socket", "junk", "send")
handler_plans = st.lists(st.sampled_from(PATHS + STEPS), max_size=6)


def planned_handler(plan, io):
    """A host handler that runs `plan`, doing its IO through `io(lib, op, arg)`:
    an open of each path, ops on the descriptor opened last, and a malformed write."""

    def handler(lib):
        @do
        def run(client, _req, send):
            fd, result = client.fd, DLeft(DUnit())
            for step in plan:
                if step == "send":
                    result = yield send.fn(DBytes(http_ok(b"x")))
                    continue
                op, arg = {
                    "read": (IoOp.READ, fd),
                    "write-own": (IoOp.WRITE, (fd, b"w")),
                    "write-client": (IoOp.WRITE, (client.fd, b"w")),
                    "close": (IoOp.CLOSE, fd),
                    "socket": (IoOp.SOCKET, ()),
                    "junk": (IoOp.WRITE, 42),
                }.get(step, (IoOp.OPENFILE, (step, (), 0)))
                outcome = yield io(lib, op, arg)
                if op is IoOp.OPENFILE and is_ok(outcome):
                    fd = outcome.value
            return result

        return DClosure(run)

    return handler


@settings(max_examples=60, deadline=None)
@given(handler_plans)
def test_library_and_bare_calls_give_the_same_trace(plan):
    contexts = {
        "library": planned_handler(plan, lambda lib, op, arg: lib.call(op, arg)),
        "bare": planned_handler(plan, lambda _lib, op, arg: call_io(op, arg)),
    }
    bundle = replace(BUNDLE, contexts=contexts, dsl_sources={})
    for i, world in enumerate(bundle.worlds[:5]):
        via_lib, bare = (run_scenario(bundle, name, world, i) for name in contexts)
        assert via_lib.run.local == bare.run.local, i
        outcome = lambda report: (report.result, report.run.mstate, report.verdicts)
        assert outcome(via_lib) == outcome(bare), i
