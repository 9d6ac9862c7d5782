"""Mediation of context IO: a secure-library call is one node that carries
its policy, and the interpreter canonicalises its argument once and decides
it against the current state right before its step."""

from __future__ import annotations

from dataclasses import replace

import pytest

from seclink import worlds
from seclink.demos import webserver, webserver_bundle
from seclink.demos.harness import link_whole
from seclink.effects import Call, Caller, IoOp, call_io, do, is_contract_failure
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
    assert type(node) is Call and node.policy is lib.policy
    assert (node.caller, node.op, node.via_monitor) == (Caller.CTX, IoOp.OPENFILE, True)


def test_forged_monitor_tag_carries_no_policy():
    assert call_io(Caller.CTX, IoOp.OPENFILE, ("/etc/passwd", (), 0), via_monitor=True).policy is None


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
            sock = yield call_io(Caller.PROG, IoOp.SOCKET, ())
            opened = yield lib.call(IoOp.OPENFILE, ("/temp/a.txt", (), 0))
            if with_denied:
                refused = yield lib.call(IoOp.OPENFILE, ("/etc/passwd", (), 0))
                assert is_contract_failure(refused) and refused.why == "policy:Openfile"
            yield lib.call(IoOp.CLOSE, opened.value)
            yield call_io(Caller.PROG, IoOp.CLOSE, sock.value)
            return 0

        return body()

    world = make_world(files={"/temp/a.txt": b"x", "/etc/passwd": b"root"})
    runs = [interpret(prog(flag), world, lib.desc) for flag in (False, True)]
    plain, denied = ((r.local, r.mstate, r.ctx_events, r.monitored_calls) for r in runs)
    assert denied == plain and plain[2] == plain[3] == 2
