"""World semantics and scenario file handling."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seclink import worlds
from seclink.demos import zip_bundle
from seclink.demos.harness import link_whole
from seclink.demos.ziplib import ARCHIVE_PATH, make_zip_prog
from seclink.effects import Caller, Err, ErrCode, IoOp, Ok, call_io, do
from seclink.interp import interpret
from seclink.monitor import stateless_mstate
from seclink.traces import beh
from seclink.worlds import (
    ScenarioError,
    World,
    dump_scenario,
    load_scenario,
    make_world,
    step,
)

PROG = Caller.PROG
CTX = Caller.CTX


def test_openfile_missing():
    w = make_world()
    assert step(w, PROG, IoOp.OPENFILE, ("/temp/x", (), 0)) == Err(ErrCode.ENOENT)


def test_openfile_creates_with_flag():
    w = make_world()
    r = step(w, PROG, IoOp.OPENFILE, ("/temp/x", ("O_CREAT",), 0o644))
    assert isinstance(r, Ok)
    assert w.files["/temp/x"] == b""


def test_descriptors_never_reused():
    w = make_world(files={"/temp/a": b"x", "/temp/b": b"y"})
    fd1 = step(w, PROG, IoOp.OPENFILE, ("/temp/a", (), 0)).value
    assert step(w, PROG, IoOp.CLOSE, fd1) == Ok(())
    fd2 = step(w, PROG, IoOp.OPENFILE, ("/temp/b", (), 0)).value
    assert fd2 != fd1


def test_read_returns_whole_content_then_empty():
    w = make_world(files={"/temp/a": b"alpha"})
    fd = step(w, PROG, IoOp.OPENFILE, ("/temp/a", (), 0)).value
    assert step(w, PROG, IoOp.READ, fd) == Ok(b"alpha")
    assert step(w, PROG, IoOp.READ, fd) == Ok(b"")


def test_write_appends_and_read_after_write():
    w = make_world(files={"/temp/a": b"alpha"})
    fd = step(w, PROG, IoOp.OPENFILE, ("/temp/a", (), 0)).value
    assert step(w, PROG, IoOp.WRITE, (fd, b"-more")) == Ok(())
    assert w.files["/temp/a"] == b"alpha-more"


def test_closed_fd_operations_fail_in_band():
    w = make_world(files={"/temp/a": b"x"})
    fd = step(w, PROG, IoOp.OPENFILE, ("/temp/a", (), 0)).value
    step(w, PROG, IoOp.CLOSE, fd)
    assert step(w, PROG, IoOp.READ, fd) == Err(ErrCode.EBADF)
    assert step(w, PROG, IoOp.WRITE, (fd, b"z")) == Err(ErrCode.EBADF)
    assert step(w, PROG, IoOp.CLOSE, fd) == Err(ErrCode.EBADF)


def test_socket_lifecycle_and_accept_queue():
    w = make_world(requests=[(7, b"one"), (8, b"two")])
    s = step(w, PROG, IoOp.SOCKET, ()).value
    assert step(w, PROG, IoOp.SETSOCKOPT, (s, "SO_REUSEADDR", True)) == Ok(())
    assert step(w, PROG, IoOp.BIND, (s, "0.0.0.0", 3000)) == Ok(())
    assert step(w, PROG, IoOp.LISTEN, (s, 5)) == Ok(())
    c1 = step(w, PROG, IoOp.ACCEPT, s).value
    c2 = step(w, PROG, IoOp.ACCEPT, s).value
    assert c1 != c2
    assert step(w, PROG, IoOp.ACCEPT, s) == Err(ErrCode.EWOULDBLOCK)
    assert step(w, PROG, IoOp.READ, c1) == Ok(b"one")
    assert step(w, PROG, IoOp.READ, c1) == Err(ErrCode.EWOULDBLOCK)


def test_accept_requires_listening():
    w = make_world(requests=[(1, b"x")])
    s = step(w, PROG, IoOp.SOCKET, ()).value
    assert step(w, PROG, IoOp.ACCEPT, s) == Err(ErrCode.EBADF)


def test_select_picks_lowest_ready():
    w = make_world(requests=[(1, b"a"), (2, b"b"), (3, b"")])
    s = step(w, PROG, IoOp.SOCKET, ()).value
    step(w, PROG, IoOp.LISTEN, (s, 5))
    c1 = step(w, PROG, IoOp.ACCEPT, s).value
    c2 = step(w, PROG, IoOp.ACCEPT, s).value
    c3 = step(w, PROG, IoOp.ACCEPT, s).value
    assert step(w, PROG, IoOp.SELECT, (c2, c1)) == Ok(c1)
    step(w, PROG, IoOp.READ, c1)
    assert step(w, PROG, IoOp.SELECT, (c1, c2)) == Ok(c2)
    # empty scripted request: connected but nothing to read
    assert step(w, PROG, IoOp.SELECT, (c3,)) == Err(ErrCode.EWOULDBLOCK)


def test_client_writes_recorded():
    w = make_world(requests=[(1, b"req")])
    s = step(w, PROG, IoOp.SOCKET, ()).value
    step(w, PROG, IoOp.LISTEN, (s, 5))
    c = step(w, PROG, IoOp.ACCEPT, s).value
    step(w, PROG, IoOp.WRITE, (c, b"resp"))
    step(w, PROG, IoOp.CLOSE, c)
    assert w.written[c] == b"resp"


def test_canonical_arg_shapes():
    def recorded(op, arg):
        run = interpret(call_io(op, arg), make_world(), stateless_mstate())
        return run.local[0].arg

    assert recorded(IoOp.OPENFILE, "/temp/a") == ("/temp/a", (), 0)
    assert recorded(IoOp.OPENFILE, ("/temp/a", ["O_CREAT"], 0o644)) == ("/temp/a", ("O_CREAT",), 0o644)
    assert recorded(IoOp.WRITE, (3, bytearray(b"x"))) == (3, b"x")
    assert recorded(IoOp.SELECT, [5, 3]) == (5, 3)


def test_scenario_round_trip():
    w = make_world(
        files={"/temp/a": b"\x00\xffbin"},
        requests=[(1, b"GET / HTTP/1.1\r\n\r\n")],
        max_iterations=4,
    )
    again = load_scenario(dump_scenario(w))
    assert again.files == w.files
    assert again.requests == w.requests
    assert again.max_iterations == w.max_iterations


@pytest.mark.parametrize(
    "payload",
    [
        "[]",
        '{"files": []}',
        '{"requests": [{"client_id": 1}]}',
        '{"files": {"/a": "not base64!!"}}',
        '{"max_iterations": -1}',
        "not json",
        '{"requests": [{"client_id": null, "raw_request_bytes": ""}]}',
        '{"requests": [{"client_id": true, "raw_request_bytes": ""}]}',
        '{"requests": [{"client_id": 1.7, "raw_request_bytes": ""}]}',
        '{"requests": [{"client_id": "1", "raw_request_bytes": ""}]}',
        '{"max_iterations": true}',
        '{"max_iterations": 1.7}',
    ],
)
def test_scenario_validation_errors(payload):
    with pytest.raises(ScenarioError):
        load_scenario(payload)


@pytest.mark.parametrize(
    "payload, message",
    [
        ('{"requests": {"client_id": 1}}', '"requests" must be a list'),
        ('{"requests": [{"client_id": 1, "raw_request_bytes": "R0VU"}, '
         '{"client_id": 2, "raw_request_bytes": "not base64!!"}]}', "request 1: bad base64 bytes"),
    ],
)
def test_scenario_error_messages(payload, message):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(payload)
    assert str(exc.value) == message


# -- the caller tags the trace, not the outcome -----------------------------------

_FDS = st.integers(0, 8)
_PATHS = st.sampled_from(["/temp/a", "/temp/b", "/temp/new"])
_OP_ARGS = st.one_of(
    st.tuples(st.just(IoOp.OPENFILE), st.tuples(_PATHS, st.sampled_from([(), ("O_CREAT",)]), st.just(0))),
    st.tuples(st.sampled_from([IoOp.READ, IoOp.CLOSE, IoOp.ACCEPT, IoOp.SETNONBLOCK]), _FDS),
    st.tuples(st.just(IoOp.WRITE), st.tuples(_FDS, st.binary(max_size=3))),
    st.tuples(st.just(IoOp.SOCKET), st.just(())),
    st.tuples(st.just(IoOp.SETSOCKOPT), st.tuples(_FDS, st.just("SO_REUSEADDR"), st.booleans())),
    st.tuples(st.just(IoOp.BIND), st.tuples(_FDS, st.just("0.0.0.0"), st.integers(0, 9))),
    st.tuples(st.just(IoOp.LISTEN), st.tuples(_FDS, st.just(5))),
    st.tuples(st.just(IoOp.SELECT), st.lists(_FDS, max_size=3).map(tuple)),
)


@given(st.lists(_OP_ARGS, max_size=24))
@settings(max_examples=150, deadline=None)
def test_outcomes_do_not_depend_on_the_caller(ops):
    scripted = dict(files={"/temp/a": b"alpha", "/temp/b": b""}, requests=[(1, b"one"), (2, b"")])
    worlds = {caller: make_world(**scripted) for caller in (PROG, CTX)}
    results = {caller: [step(w, caller, op, arg) for op, arg in ops] for caller, w in worlds.items()}
    assert results[PROG] == results[CTX]
    assert worlds[PROG] == worlds[CTX]


# -- writes append in place --------------------------------------------------------

INPUTS = {"/temp/in0.txt": b"zero", "/temp/in1.txt": b"", "/temp/in2.txt": b"\x00two\xff"}


def _zip(world: World):
    bundle = zip_bundle()
    whole = link_whole(bundle, bundle.context("benign"), prog=make_zip_prog(tuple(INPUTS)))
    return interpret(whole, world, bundle.interface.mstate)


def test_zip_run_archive_and_written_bytes():
    run = _zip(make_world(files=INPUTS))
    archive = b"ZIP1\n" + b"".join(b"entry:" + data + b"\n" for data in INPUTS.values())
    assert run.result == 3
    assert run.world.files[ARCHIVE_PATH] == archive
    archive_fd = run.local[0].result.value
    assert run.world.written == {archive_fd: archive}
    assert run.world.files == {**INPUTS, ARCHIVE_PATH: archive}


def test_runs_on_one_world_share_no_buffer():
    # the archive exists already: both runs append to their own copy of it
    world = make_world(files={**INPUTS, ARCHIVE_PATH: b"old\n"})
    first, second = _zip(world), _zip(world)
    assert first.world.files[ARCHIVE_PATH] == second.world.files[ARCHIVE_PATH]
    assert first.world.files[ARCHIVE_PATH].startswith(b"old\nZIP1\n")
    assert world.files[ARCHIVE_PATH] == b"old\n"
    # a finished run's world is itself an input that later runs do not touch
    before = bytes(first.world.files[ARCHIVE_PATH])
    again = _zip(first.world)
    assert first.world.files[ARCHIVE_PATH] == before
    assert again.world.files[ARCHIVE_PATH] == before + before[len(b"old\n") :]


def test_a_run_never_extends_a_buffer_its_caller_owns():
    mine = bytearray(b"x")
    world = make_world(files={"/temp/log": mine})
    run = interpret(_append_to_log(3), world, stateless_mstate())
    assert run.world.files["/temp/log"] == b"x" + b"more" * 3
    assert mine == b"x" and world.files["/temp/log"] is mine


def test_a_clone_and_its_source_never_see_each_others_writes():
    source = make_world(files={"/temp/log": b"x"})
    fd = step(source, PROG, IoOp.OPENFILE, ("/temp/log", (), 0)).value
    step(source, PROG, IoOp.WRITE, (fd, b"1"))  # the source made this buffer
    clone = source.clone()
    step(source, PROG, IoOp.WRITE, (fd, b"2"))
    step(clone, PROG, IoOp.WRITE, (fd, b"3"))
    assert (source.files["/temp/log"], clone.files["/temp/log"]) == (b"x12", b"x13")
    assert (source.written[fd], clone.written[fd]) == (b"12", b"13")


@do
def _append_to_log(times):
    fd = yield call_io(IoOp.OPENFILE, ("/temp/log", (), 0))
    for _ in range(times):
        yield call_io(IoOp.WRITE, (fd.value, b"more"))
    return fd.value


def test_a_file_written_many_times_keeps_one_buffer(monkeypatch):
    # copied on its first write only, so each later append is O(len(data))
    # and the archive grows linearly in its entries
    inputs = {f"/temp/in{i}.txt": b"%d" % i for i in range(300)}
    buffers, real_step = [], worlds.step

    def step(world, caller, op, arg):
        result = real_step(world, caller, op, arg)
        if op is IoOp.WRITE:
            buffers.append(world.files[ARCHIVE_PATH])
        return result

    monkeypatch.setattr(worlds, "step", step)
    bundle = zip_bundle()
    whole = link_whole(bundle, bundle.context("benign"), prog=make_zip_prog(tuple(inputs)))
    run = interpret(whole, make_world(files={**inputs, ARCHIVE_PATH: b"old\n"}), bundle.interface.mstate)
    assert run.result == len(inputs) and len(buffers) == len(inputs) + 1
    assert all(buf is run.world.files[ARCHIVE_PATH] for buf in buffers)
    assert run.world.files[ARCHIVE_PATH] == b"old\nZIP1\n" + b"".join(
        b"entry:" + data + b"\n" for data in inputs.values()
    )


@do
def _write_then_read():
    fd = yield call_io(IoOp.OPENFILE, ("/temp/log", ("O_CREAT",), 0o644))
    yield call_io(IoOp.WRITE, (fd.value, b"one"))
    yield call_io(IoOp.WRITE, (fd.value, b"two"))
    again = yield call_io(IoOp.OPENFILE, ("/temp/log", (), 0))
    data = yield call_io(IoOp.READ, again.value)
    return data.value


def test_read_after_writes_returns_bytes():
    run = interpret(_write_then_read(), make_world(), stateless_mstate())
    assert type(run.result) is bytes and run.result == b"onetwo"
    assert all(type(e.result.value) is bytes for e in run.local if e.op is IoOp.READ)
    # behaviours are sets: every event and result must stay hashable
    assert beh(_write_then_read(), [make_world(), make_world()], stateless_mstate()) == {
        (run.local, b"onetwo")
    }


def test_dump_scenario_after_writes():
    w = make_world(files={"/temp/a": b"alpha"}, requests=[(1, b"GET / HTTP/1.1\r\n\r\n")])
    fd = step(w, PROG, IoOp.OPENFILE, ("/temp/a", (), 0)).value
    step(w, PROG, IoOp.WRITE, (fd, b"-more"))
    step(w, PROG, IoOp.OPENFILE, ("/temp/new", ("O_CREAT",), 0o644))
    expected = make_world(
        files={"/temp/a": b"alpha-more", "/temp/new": b""},
        requests=[(1, b"GET / HTTP/1.1\r\n\r\n")],
    )
    assert dump_scenario(w) == dump_scenario(expected)


@do
def _leave_descriptors_live():
    # a listening socket, a client with its request unread, a file half read
    sock = yield call_io(IoOp.SOCKET, ())
    yield call_io(IoOp.BIND, (sock.value, "0.0.0.0", 80))
    yield call_io(IoOp.LISTEN, (sock.value, 5))
    yield call_io(IoOp.ACCEPT, sock.value)
    log = yield call_io(IoOp.OPENFILE, ("/temp/log", ("O_CREAT",), 0o644))
    yield call_io(IoOp.WRITE, (log.value, b"first"))
    page = yield call_io(IoOp.OPENFILE, ("/temp/page", (), 0))
    yield call_io(IoOp.READ, page.value)
    return sock.value, log.value, page.value


def _resume(fds):
    sock, log, page = fds

    @do
    def resume():
        client = yield call_io(IoOp.SELECT, tuple(range(sock, page + 1)))
        request = yield call_io(IoOp.READ, client.value)
        yield call_io(IoOp.WRITE, (client.value, b"re:" + request.value))
        yield call_io(IoOp.WRITE, (log, b"second"))
        # append through a second descriptor; the first one's cursor stays put
        again = yield call_io(IoOp.OPENFILE, ("/temp/page", (), 0))
        yield call_io(IoOp.WRITE, (again.value, b"+tail"))
        rest = yield call_io(IoOp.READ, page)
        other = yield call_io(IoOp.ACCEPT, sock)
        yield call_io(IoOp.CLOSE, page)
        return request.value, rest.value, other.value

    return resume()


def test_rerun_from_finished_world_matches_deepcopy():
    scripted = dict(files={"/temp/page": b"<p>"}, requests=[(1, b"req-1"), (2, b"req-2")])
    world = make_world(**scripted)
    first = interpret(_leave_descriptors_live(), world, stateless_mstate())
    snapshot = copy.deepcopy(first.world)
    from_run = interpret(_resume(first.result), first.world, stateless_mstate())
    from_copy = interpret(_resume(first.result), copy.deepcopy(first.world), stateless_mstate())
    assert (from_run.local, from_run.result) == (from_copy.local, from_copy.result)
    assert from_run.world == from_copy.world
    assert from_run.result[:2] == (b"req-1", b"+tail")
    assert from_run.world.files == {"/temp/page": b"<p>+tail", "/temp/log": b"firstsecond"}
    assert first.world == snapshot  # the finished run's world is untouched
    assert first.world.files["/temp/log"] == b"first"
    assert world == make_world(**scripted)
