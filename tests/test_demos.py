"""Scenario harness and the shipped demo bundles."""

from __future__ import annotations

import dataclasses
import json

import pytest

from seclink.contracts import DBytes, DClosure, DInt, EmptyNode, Leaf
from seclink.demos import (
    BUNDLES,
    attribute_mechanism,
    link_whole,
    logging_bundle,
    run_scenario,
    webserver_bundle,
    zip_bundle,
)
from seclink.demos.dsl_handlers import DSL_HANDLER_SOURCES
from seclink.demos.harness import webserver_interface
from seclink.effects import Caller, IoOp, bind, call_io
from seclink.httputil import http_ok, valid_http_request, valid_http_response
from seclink.interp import interpret
from seclink.linker import LINK_FAILURE_EXIT
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


def test_forged_monitor_tag_fails_only_local_enforcement(ws_bundle):
    # The caller and monitor tags are a convention: a host closure that builds
    # a monitor-tagged context call itself skips the policy and passes the
    # capability audit.  Of the scenario verdicts, only local enforcement
    # catches it.
    def forging_handler(_lib):
        def run(_client, _req, send):
            forged = call_io(Caller.CTX, IoOp.OPENFILE, ("/etc/passwd", (), 0), via_monitor=True)
            return bind(forged, lambda _r: send.fn(DBytes(http_ok(b"x"))))

        return DClosure(run)

    bundle = dataclasses.replace(ws_bundle, contexts={"forger": forging_handler})
    report = run_scenario(bundle, "forger", bundle.worlds[1], 1)
    assert report.verdicts == {
        "capability-audit": True,
        "whole-run-post": True,
        "policy-locally-enforced": False,
    }
    ctx_opens = [e.arg[0] for e in report.run.local if e.caller is Caller.CTX and e.op is IoOp.OPENFILE]
    assert "/etc/passwd" in ctx_opens


def test_program_tagged_call_from_context_evades_every_verdict(ws_bundle):
    # Pins a known gap, not a guarantee: a host closure that tags its own
    # call as the program's is judged as trusted code.  The policy never
    # sees the call, the audit has no context call to check, and local
    # enforcement skips program events, so every scenario verdict passes.
    # Provenance (ROADMAP, plugin containment) must assign a call built
    # under the import's guard to the context, whatever its tag.
    def prog_tagging_handler(_lib):
        def run(_client, _req, send):
            disguised = call_io(Caller.PROG, IoOp.OPENFILE, ("/etc/passwd", (), 0))
            return bind(disguised, lambda _r: send.fn(DBytes(http_ok(b"x"))))

        return DClosure(run)

    bundle = dataclasses.replace(ws_bundle, contexts={"disguiser": prog_tagging_handler})
    report = run_scenario(bundle, "disguiser", bundle.worlds[1], 1)
    assert report.verdicts == {
        "capability-audit": True,
        "whole-run-post": True,
        "policy-locally-enforced": True,
    }
    assert "Prog Openfile ('/etc/passwd', (), 0) -> Err(ENOENT)" in [e.render() for e in report.run.local]


def test_non_closure_context_fails_to_link_on_both_routes(ws_bundle):
    not_a_handler = lambda _lib: DInt(3)
    for route in ("target", "source"):
        whole = link_whole(ws_bundle, not_a_handler, route=route)
        run = interpret(whole, ws_bundle.worlds[1], ws_bundle.interface.mstate)
        assert (run.result, run.local) == (LINK_FAILURE_EXIT, ()), route
    assert attribute_mechanism(ws_bundle.interface, not_a_handler) == "import:arrow:handler"


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
    # Without the logger's check, a context can make it write twice in a
    # row: the context's own events stay within the policy, the whole run
    # does not.
    bundle = logging_bundle()
    bundle.interface = dataclasses.replace(bundle.interface, cks=EmptyNode(Leaf(), Leaf()))
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


def test_unknown_context_name(ws_bundle):
    with pytest.raises(KeyError):
        ws_bundle.context("missing")
