"""Scenario harness and the shipped demo bundles."""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from seclink.contracts import DBytes, DClosure, DErr, DFd, DInt, DLeft, DRight, DUnit, check_tree
from seclink.demos import (
    BUNDLES,
    attribute_mechanism,
    link_whole,
    logging_bundle,
    run_scenario,
    webserver_bundle,
    zip_bundle,
)
from seclink.demos.dsl_handlers import DSL_HANDLER_SOURCES, HANDLER_PREFIX
from seclink.demos import webserver
from seclink.demos.harness import webserver_interface
from seclink.effects import Caller, IoOp, bind, call_io, contract_failure, do, is_err, is_ok, ret
from seclink.httputil import http_ok, request_path, valid_http_request, valid_http_response
from seclink.interp import interpret
from seclink.linker import LINK_FAILURE_EXIT
from seclink.monitor import enforce_policy, stateless_mstate
from seclink.traces import enforced_locally
from seclink.worlds import make_world


def test_all_bundle_scenarios_green():
    for factory in BUNDLES.values():
        bundle = factory()
        for name in bundle.context_names():
            for i, world in enumerate(bundle.worlds):
                report = run_scenario(bundle, name, world, i)
                assert report.ok, report.render_text()


def test_source_text_context_is_translated_once_per_bundle(tmp_path):
    bundle = webserver_bundle()
    assert bundle.context("dsl-benign") is bundle.context("dsl-benign")
    path = tmp_path / "handler.ctx"
    path.write_text(DSL_HANDLER_SOURCES["dsl-benign"])
    first = bundle.context(f"file:{path}")
    assert bundle.context(f"file:{path}") is first
    benign_trace = run_scenario(bundle, f"file:{path}", bundle.worlds[1]).run.local
    path.write_text(DSL_HANDLER_SOURCES["dsl-adv1"])
    assert bundle.context(f"file:{path}") is not first
    assert run_scenario(bundle, f"file:{path}", bundle.worlds[1]).run.local != benign_trace
    assert webserver_bundle().context("dsl-benign") is not bundle.context("dsl-benign")


def test_webserver_answers_every_request(ws_bundle):
    report = run_scenario(ws_bundle, "benign", ws_bundle.worlds[4])
    assert report.result == 3
    writes = [e for e in report.run.local if e.op is IoOp.WRITE]
    assert len(writes) == 3


def test_empty_world_serves_nothing(ws_bundle):
    report = run_scenario(ws_bundle, "benign", ws_bundle.worlds[0])
    assert report.result == 0
    assert report.ok


def test_scenario_budget_caps_served_requests(ws_bundle):
    world = make_world(
        files={"/temp/index.html": b"x"},
        requests=[(i, b"GET /index.html HTTP/1.1\r\n\r\n") for i in range(1, 6)],
        max_iterations=2,
    )
    report = run_scenario(ws_bundle, "benign", world)
    assert report.result == 2
    assert report.ok


def test_behaviour_of_whole_server_within_post(ws_bundle):
    from seclink.demos.harness import link_whole
    from seclink.traces import beh, satisfies

    whole = link_whole(ws_bundle, ws_bundle.context("benign"))
    behaviour = beh(whole, ws_bundle.worlds, ws_bundle.interface.mstate)
    assert satisfies(behaviour, ws_bundle.interface.whole_run_post)
    assert len(behaviour) > 1


def test_adversarial_handler_served_by_400(ws_bundle):
    world = make_world(files={}, requests=[(1, b"GET /x HTTP/1.1\r\n\r\n")])
    report = run_scenario(ws_bundle, "adv1", world)
    writes = [e for e in report.run.local if e.op is IoOp.WRITE]
    assert len(writes) == 1
    assert writes[0].arg[1].startswith(b"HTTP/1.1 400")


def test_blocked_handlers_leave_no_ctx_events(ws_bundle):
    for name in ("adv3", "adv4", "adv5"):
        report = run_scenario(ws_bundle, name, ws_bundle.worlds[1])
        assert all(e.caller is Caller.PROG for e in report.run.local), name


def test_mechanism_attribution_matrix(ws_bundle):
    for name, expected in ws_bundle.expected_mechanism.items():
        found = attribute_mechanism(ws_bundle.interface, ws_bundle.context(name))
        if expected is None:
            assert found is None, name
        else:
            assert found is not None and found.startswith(expected), (name, found)


def test_dsl_contexts_match_matrix(ws_bundle):
    from seclink.demos.dsl_handlers import DSL_COUNTERPART

    for dsl_name, hand_name in DSL_COUNTERPART.items():
        expected = ws_bundle.expected_mechanism[hand_name]
        found = attribute_mechanism(ws_bundle.interface, ws_bundle.context(dsl_name))
        if expected is None:
            assert found is None
        else:
            assert found is not None and found.startswith(expected)


def _on_client(op):
    """A host handler that calls `op` on the client's descriptor, which it did not open."""

    def handler(lib):
        @do
        def run(client, _req, _send):
            result = yield lib.call(op, client.fd)
            return DRight(DErr(result.code, result.why)) if is_err(result) else DLeft(DUnit())

        return DClosure(run)

    return handler


# Adversaries for the policy's READ/CLOSE ownership clause, as host closures
# and as source text; no shipped handler touches a descriptor it did not open.
OWNERSHIP_ADVERSARIES = {
    "close-client": (_on_client(IoOp.CLOSE), "policy:Close"),
    "read-client": (_on_client(IoOp.READ), "policy:Read"),
    "dsl-close-client": (HANDLER_PREFIX + "case io Close c of inl u => inl () | inr e => inr e", "policy:Close"),
    "dsl-read-client": (HANDLER_PREFIX + "case io Read c of inl d => inl () | inr e => inr e", "policy:Read"),
}


def test_handlers_that_close_or_read_the_clients_descriptor_are_refused():
    bundle = webserver_bundle()
    for name, (ctx, mechanism) in OWNERSHIP_ADVERSARIES.items():
        (bundle.dsl_sources if isinstance(ctx, str) else bundle.contexts)[name] = ctx
        bundle.expected_mechanism[name] = mechanism
        assert attribute_mechanism(bundle.interface, bundle.context(name)) == mechanism
        for i, world in enumerate(bundle.worlds):
            report = run_scenario(bundle, name, world, i)
            assert report.ok, report.render_text()
            assert all(e.caller is Caller.PROG for e in report.run.local), name


def test_path_escape_is_blocked(ws_bundle):
    world = make_world(files={}, requests=[(1, b"GET /../etc/passwd HTTP/1.1\r\n\r\n")])
    report = run_scenario(ws_bundle, "benign", world)
    assert report.ok
    assert not any(e.caller is Caller.CTX and e.op is IoOp.OPENFILE for e in report.run.local)


def test_allow_all_in_tmp_policy_variant():
    iface = webserver_interface("allow_all_in_tmp")
    # the laxer policy admits writes to the context's own files
    from seclink.monitor import replay
    from seclink.effects import Event, Ok

    opened = Event(Caller.CTX, IoOp.OPENFILE, ("/temp/a.txt", (), 0), Ok(5))
    state = replay(iface.mstate, [opened])
    assert iface.policy(state, IoOp.WRITE, (5, b"x"))
    assert not iface.policy(state, IoOp.WRITE, (4, b"x"))
    with pytest.raises(KeyError):
        webserver_interface("nope")


def assert_passwd_refused(bundle, handler, outcomes):
    """Run web world 1 with a host handler that tries to open /etc/passwd and
    appends the outcome to `outcomes`; assert the linked policy refused the
    open in-band and every verdict passes."""
    bundle = dataclasses.replace(bundle, contexts={"forger": handler})
    report = run_scenario(bundle, "forger", bundle.worlds[1], 1)
    assert outcomes == [contract_failure("policy:Openfile")]
    assert not any(e.op is IoOp.OPENFILE and e.arg[0] == "/etc/passwd" for e in report.run.local)
    assert report.verdicts == {
        "capability-audit": True,
        "whole-run-post": True,
        "policy-locally-enforced": True,
    }


def refused_passwd_open(bundle, make_call):
    """`assert_passwd_refused` for a handler that opens /etc/passwd through
    `make_call(lib, op, arg)` and then answers."""
    outcomes = []

    def handler(lib):
        def run(_client, _req, send):
            def answer(opened):
                outcomes.append(opened)
                return send.fn(DBytes(http_ok(b"x")))

            return bind(make_call(lib, IoOp.OPENFILE, PASSWD), answer)

        return DClosure(run)

    assert_passwd_refused(bundle, handler, outcomes)


PASSWD = ("/etc/passwd", (), 0)


def test_forged_library_with_a_lax_policy_is_still_refused(ws_bundle):
    # A host closure can build its own secure library that allows everything.
    # Its guard sits under the import's guard, so the linked policy decides too.
    allow_all = lambda lib, op, arg: enforce_policy(lambda *a: True, lib.desc).call(op, arg)
    refused_passwd_open(ws_bundle, allow_all)


def test_bare_call_from_context_is_refused_by_the_policy(ws_bundle):
    # A call the context builds itself, not through its library, is still the
    # context's: it was reached under the import's guard.
    refused_passwd_open(ws_bundle, lambda _lib, op, arg: call_io(op, arg))


def test_a_changed_or_rebuilt_library_call_is_still_refused(ws_bundle):
    # A guard cannot be changed, and rebuilding one without its policy gives a
    # guard still: the import's guard around it decides.
    def rebuilt(lib, op, arg):
        node = lib.call(op, arg)
        for name in ("policy", "m"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)
        return dataclasses.replace(node, policy=None)

    refused_passwd_open(ws_bundle, rebuilt)


def test_a_context_cannot_reuse_the_trusted_mark_it_is_handed(ws_bundle):
    # `send.fn(...)` hands the context a tree whose first node is a trusted
    # mark.  The context can read it and run it, but not rebuild, copy or
    # change it or a node under it; its own call after the mark is left is
    # the context's again.
    outcomes = []

    def handler(_lib):
        def run(_client, _req, send):
            sent = send.fn(DBytes(http_ok(b"x")))
            mark, io = sent.m, call_io(IoOp.OPENFILE, PASSWD)
            for forge in (
                lambda: type(mark)(io),
                lambda: type(mark)(io, None, object()),
                lambda: dataclasses.replace(mark, m=io),
                lambda: copy.copy(mark),
            ):
                with pytest.raises((TypeError, AttributeError)):
                    forge()
            with pytest.raises(AttributeError):
                mark.m = io
            with pytest.raises(AttributeError):
                mark.m.f = lambda _args: io
            with pytest.raises(AttributeError):
                mark.m.__setstate__((io, lambda _args: io))

            def opened(outcome, answered):
                outcomes.append(outcome)
                return ret(answered)

            return bind(bind(mark, sent.f), lambda answered: bind(io, lambda o: opened(o, answered)))

        return DClosure(run)

    assert_passwd_refused(ws_bundle, handler, outcomes)


def test_non_closure_context_fails_to_link_on_both_routes(ws_bundle):
    not_a_handler = lambda _lib: DInt(3)
    for route in ("target", "source"):
        whole = link_whole(ws_bundle, not_a_handler, route=route)
        run = interpret(whole, ws_bundle.worlds[1], ws_bundle.interface.mstate)
        assert (run.result, run.local) == (LINK_FAILURE_EXIT, ()), route
    assert attribute_mechanism(ws_bundle.interface, not_a_handler) == "import:arrow:handler"


def test_raising_context_factory_fails_to_link_on_both_routes(ws_bundle):
    def raising(_lib):
        raise ZeroDivisionError

    for route in ("target", "source"):
        whole = link_whole(ws_bundle, raising, route=route)
        run = interpret(whole, ws_bundle.worlds[1], ws_bundle.interface.mstate)
        assert (run.result, run.local) == (LINK_FAILURE_EXIT, ()), route
    assert attribute_mechanism(ws_bundle.interface, raising) == "import:arrow:handler"
    bundle = dataclasses.replace(ws_bundle, contexts={"raising": raising}, expected_mechanism={"raising": "import"})
    report = run_scenario(bundle, "raising", bundle.worlds[1])
    assert (report.result, report.run.local, report.mechanism) == (LINK_FAILURE_EXIT, (), "import:arrow:handler")


def test_context_factory_raising_a_base_exception_still_raises(ws_bundle):
    class Stop(BaseException):
        pass

    def stopping(_lib):
        raise Stop

    for route in ("target", "source"):
        with pytest.raises(Stop):
            link_whole(ws_bundle, stopping, route=route)


def test_logging_alternation_trace():
    bundle = logging_bundle()
    report = run_scenario(bundle, "well-behaved", bundle.worlds[0])
    callers = [e.caller for e in report.run.local]
    assert callers == [
        Caller.PROG,
        Caller.CTX,
        Caller.PROG,
        Caller.CTX,
        Caller.PROG,
        Caller.CTX,
    ]
    assert report.result == 3


def test_logging_source_text_context(logging_ctx_file):
    bundle = logging_bundle()
    ctx = bundle.context("file:" + logging_ctx_file)
    desc = bundle.interface.mstate
    for i, world in enumerate(bundle.worlds):
        via_target = interpret(link_whole(bundle, ctx, route="target"), world, desc)
        via_source = interpret(link_whole(bundle, ctx, route="source"), world, desc)
        assert (via_target.local, via_target.result) == (via_source.local, via_source.result), i
        assert enforced_locally(bundle.interface.policy_spec, (), via_target.local), i
        assert [e.caller for e in via_target.local] == [Caller.PROG, Caller.CTX], i
        assert via_target.result == int(world.files.get("/temp/notes.txt") is not None), i


def test_logging_whole_run_post_judges_the_loggers_writes():
    # With a logger check that accepts every call, a context can make it
    # write twice in a row: the context's own events stay within the policy,
    # the whole run does not.
    bundle = logging_bundle()
    accept_all = check_tree(bundle.interface.ctype, {"logger": lambda *_args: True})
    bundle.interface = dataclasses.replace(bundle.interface, cks=accept_all)
    report = run_scenario(bundle, "double-logs", bundle.worlds[0])
    writes = [e for e in report.run.local if e.op is IoOp.WRITE]
    assert len(writes) == 2 and all(e.caller is Caller.PROG for e in writes)
    assert report.verdicts["whole-run-post"] is False
    assert report.verdicts["policy-locally-enforced"] is True
    assert report.verdicts["capability-audit"] is True


def test_zip_reports(tmp_path):
    bundle = zip_bundle()
    report = run_scenario(bundle, "benign", bundle.worlds[0])
    payload = json.loads(report.to_json())
    assert payload["bundle"] == "zip"
    assert payload["verdicts"]["whole-run-post"] is True
    assert any("Ctx Write" in line for line in payload["trace"])


def test_report_rendering(ws_bundle):
    report = run_scenario(ws_bundle, "adv2", ws_bundle.worlds[1])
    text = report.render_text()
    assert "[PASS]" in text and "mechanism" in text


def test_http_validity_predicates():
    assert valid_http_request(b"GET /a HTTP/1.1\r\n\r\n")
    assert valid_http_request(b"POST /a HTTP/1.0\r\nHost: h\r\n\r\n")
    assert not valid_http_request(b"GET /a HTTP/1.1\r\n")  # missing terminator
    assert not valid_http_request(b"junk")
    assert valid_http_response(b"HTTP/1.1 200 OK\r\n\r\nbody")
    assert valid_http_response(b"HTTP/1.1 404 Not Found\r\nX: y\r\n\r\n")
    assert not valid_http_response(b"hello")


def test_request_path():
    assert request_path(b"GET /a/b HTTP/1.1\r\n\r\n") == b"/a/b"
    for unparseable in (b"", b"junk", b"GET a HTTP/1.1\r\n", b"GET /a\r\n", b"GET /a HTTP/1.1 x\r\n"):
        assert request_path(unparseable) == b""


@pytest.mark.parametrize("name,op", [("adv3", IoOp.OPENFILE), ("adv4", IoOp.WRITE), ("adv5", IoOp.SOCKET)])
def test_adversarial_handler_answers_unit_when_its_call_succeeds(name, op):
    # Under a library that allows everything, and no linked policy, the
    # misbehaving call goes through and the handler reports success.
    lib = enforce_policy(lambda *a: True, stateless_mstate())
    world = make_world(files={"/etc/passwd": b"root"}, requests=[(1, b"GET / HTTP/1.1\r\n\r\n")])

    @do
    def serve():
        sock = yield call_io(IoOp.SOCKET, ())
        yield call_io(IoOp.BIND, (sock.value, "0.0.0.0", 3000))
        yield call_io(IoOp.LISTEN, (sock.value, 5))
        client = yield call_io(IoOp.ACCEPT, sock.value)
        request = yield call_io(IoOp.READ, client.value)
        send = DClosure(lambda data: ret(DLeft(DUnit())))  # none of the three calls it
        outcome = yield webserver.HANDLERS[name](lib).fn(DFd(client.value), DBytes(request.value), send)
        return outcome

    run = interpret(serve(), world, stateless_mstate())
    assert run.result == DLeft(DUnit())
    last = run.local[-1]
    assert (last.caller, last.op) == (Caller.CTX, op) and is_ok(last.result)


def test_unknown_context_name(ws_bundle):
    with pytest.raises(KeyError):
        ws_bundle.context("missing")
