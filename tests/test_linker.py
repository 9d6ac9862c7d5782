"""Compilation, linking in both orders of control, and back-translation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from seclink.contracts import ArrowSpec, ArrowT, CheckKind, DClosure, DInt, DLeft, DUnit, EitherT, EmptyNode
from seclink.contracts import ErrT, IntT, Leaf, Node, PairT, UnitT, check_tree
from seclink.demos import BUNDLES, WEBSERVER_POLICIES, logging_bundle, webserver, ziplib
from seclink.demos.harness import webserver_interface
from seclink.effects import Err, ErrCode, IoOp, call_io, contract_failure, do, is_err, ret
from seclink.interp import interpret
from seclink.linker import (
    LINK_FAILURE_EXIT,
    back_translate_ctx,
    compile_interface,
    compile_prog,
    link_source,
    link_target,
)
from seclink.traces import enforced_locally
from seclink.worlds import make_world


def observed(comp, world, desc):
    run = interpret(comp, world, desc)
    return run.result, run.local


def test_compile_interface_erases_specs(ws_bundle):
    target = compile_interface(ws_bundle.interface)
    assert target.ctype.spec is None
    assert target.policy_spec is ws_bundle.interface.policy_spec
    assert target.policy is ws_bundle.interface.policy


def test_compile_prog_is_behaviourally_stable(ws_bundle, small_world):
    iface = ws_bundle.interface
    target = compile_interface(iface)
    ctx = ws_bundle.contexts["benign"]
    once = compile_prog(iface, ws_bundle.prog)
    twice = compile_prog(iface, ws_bundle.prog)
    assert observed(link_target(target, once, ctx), small_world, iface.mstate) == observed(
        link_target(target, twice, ctx), small_world, iface.mstate
    )


def test_inversion_law_per_context_and_world(ws_bundle):
    iface = ws_bundle.interface
    target = compile_interface(iface)
    compiled = compile_prog(iface, ws_bundle.prog)
    for name in ws_bundle.contexts:
        ctx = ws_bundle.context(name)
        for world in ws_bundle.worlds[:4]:
            via_target = observed(link_target(target, compiled, ctx), world, iface.mstate)
            _whole_run_post, whole = link_source(iface, ws_bundle.prog, back_translate_ctx(iface, ctx))
            via_source = observed(whole, world, iface.mstate)
            assert via_target == via_source, name


def test_link_source_returns_interface_post(ws_bundle, small_world):
    iface = ws_bundle.interface
    ctx = ws_bundle.contexts["benign"]
    whole_run_post, whole = link_source(iface, ws_bundle.prog, back_translate_ctx(iface, ctx))
    assert whole_run_post is iface.whole_run_post
    run = interpret(whole, small_world, iface.mstate)
    assert whole_run_post((), run.result, run.local)


def test_ill_shaped_context_fails_at_import(ws_bundle, small_world):
    iface = ws_bundle.interface
    target = compile_interface(iface)
    compiled = compile_prog(iface, ws_bundle.prog)
    bogus = lambda lib: DInt(7)  # not a closure at all
    whole = link_target(target, compiled, bogus)
    run = interpret(whole, small_world, iface.mstate)
    assert run.result == LINK_FAILURE_EXIT
    assert run.local == ()
    # back-translation surfaces the same failure at the source level
    outcome = back_translate_ctx(iface, bogus)(None, iface.cks)
    assert is_err(outcome)


def test_source_context_with_checks_cannot_corrupt(ws_bundle, small_world):
    # a source context may run the checks it receives; they are plain
    # predicates over states, so behaviour still satisfies the interface
    # post-condition
    iface = ws_bundle.interface
    honest = ws_bundle.contexts["benign"]

    def nosy(lib, cks):
        outcome = back_translate_ctx(iface, honest)(lib, cks)
        # judge a made-up call on real states and discard the verdict
        init = iface.mstate.init
        assert cks.ck((0, b"", None), init, None, init) is False
        return outcome

    whole_run_post, whole = link_source(iface, ws_bundle.prog, nosy)
    run = interpret(whole, small_world, iface.mstate)
    assert whole_run_post((), run.result, run.local)
    assert run.audit_ok


def test_interface_rejects_a_check_tree_that_does_not_match_its_type(ws_bundle):
    # the handler's arrow has a spec, so its node cannot be an `EmptyNode`
    with pytest.raises(ValueError, match="check tree does not match the context type"):
        replace(ws_bundle.interface, cks=EmptyNode(Leaf(), Leaf()))
    with pytest.raises(TypeError, match="not a check tree: 'junk'"):
        replace(ws_bundle.interface, cks="junk")


def test_back_translation_imports_through_the_tree_it_is_handed(ws_bundle, small_world):
    # linking hands over the interface's own tree, which the interface staged;
    # any other tree is staged for that call and enforced in its place
    iface = ws_bundle.interface
    source_ctx = back_translate_ctx(iface, webserver.benign_handler)
    refusing = {"handler": webserver._handler_ck, "send": lambda *_args: False}
    refuse_send = replace(iface, cks=check_tree(iface.ctype, refusing))
    for linked, status in ((iface, b"HTTP/1.1 200"), (refuse_send, b"HTTP/1.1 400")):
        _post, whole = link_source(linked, ws_bundle.prog, source_ctx)
        run = interpret(whole, small_world, iface.mstate)
        first_answer = next(e.arg[1] for e in run.local if e.op is IoOp.WRITE)
        assert first_answer.startswith(status)


def test_interface_rejects_a_check_tree_that_drops_a_declared_check():
    # a Leaf over `send`'s arrow would leave its declared PRE unenforced
    with pytest.raises(ValueError, match="check tree does not match the context type"):
        replace(webserver_interface(), cks=Node(webserver._handler_ck, Leaf(), Leaf()))
    # the shipped interfaces build their trees from a check per declared label
    checks = {"handler": webserver._handler_ck, "send": webserver._send_ck}
    with pytest.raises(ValueError, match=r"checks for \['handler'\], but the specs are labelled \['handler', 'send'\]"):
        check_tree(webserver.HANDLER_TYPE, {"handler": webserver._handler_ck})
    with pytest.raises(ValueError, match=r"checks for \['handler', 'send', 'sned'\], but the specs"):
        check_tree(webserver.HANDLER_TYPE, {**checks, "sned": webserver._send_ck})
    assert webserver.interface().cks == check_tree(webserver.HANDLER_TYPE, checks)


@pytest.mark.parametrize(
    "ctype",
    [
        # the program imports a pair, one side of which has no importer
        PairT("not a type", IntT()),
        # the program imports an arrow, whose argument has no exporter
        ArrowT(("not a type",), EitherT(UnitT(), ErrT())),
    ],
    ids=["importer", "exporter"],
)
def test_linking_a_type_that_holds_no_type_descriptor_raises(ws_bundle, ctype):
    # a `Leaf` tree fits any type that declares no check, no sum in these needs an error side,
    # so the interface's checks pass; staging its boundary, as the interface
    # is built, is the trusted side's bug and raises before any link
    with pytest.raises(TypeError, match="unknown type descriptor 'not a type'"):
        replace(ws_bundle.interface, ctype=ctype, cks=Leaf())


def test_capability_audit_counts(ws_bundle, small_world):
    iface = ws_bundle.interface
    target = compile_interface(iface)
    compiled = compile_prog(iface, ws_bundle.prog)
    run = interpret(link_target(target, compiled, ws_bundle.contexts["benign"]), small_world, iface.mstate)
    assert run.ctx_events == run.monitored_calls > 0


# -- the context has initial control ------------------------------------------


def logging_world():
    return make_world(files={"/temp/notes.txt": b"jot"})


def test_dual_link_and_inversion():
    bundle = logging_bundle()
    iface = bundle.interface
    compiled = compile_prog(iface, bundle.prog)
    for name, ctx in bundle.contexts.items():
        world = logging_world()
        via_target = observed(link_target(compile_interface(iface), compiled, ctx), world, iface.mstate)
        whole_run_post, whole = link_source(iface, bundle.prog, back_translate_ctx(iface, ctx))
        assert whole_run_post is iface.whole_run_post
        via_source = observed(whole, world, iface.mstate)
        assert via_target == via_source, name


def test_dual_soundness_full_trace_within_policy_spec():
    bundle = logging_bundle()
    iface = bundle.interface
    compiled = compile_prog(iface, bundle.prog)
    for name, ctx in bundle.contexts.items():
        run = interpret(link_target(compile_interface(iface), compiled, ctx), logging_world(), iface.mstate)
        assert enforced_locally(iface.policy_spec, (), run.local), name


def _zip_run(iface, prog, ctx, files=None):
    whole = link_target(compile_interface(iface), compile_prog(iface, prog), ctx)
    return interpret(whole, make_world(files=files or {"/temp/in1.txt": b"payload"}), iface.mstate)


def test_zip_higher_order_wrapping():
    run = _zip_run(ziplib.interface(), ziplib.make_zip_prog(), ziplib.benign_zip)
    assert run.result == 1
    assert run.world.files["/temp/archive.zip"] == b"ZIP1\nentry:payload\n"


def test_zip_closed_fd_probe_hits_entry_contract():
    iface, prog = ziplib.interface(), ziplib.make_zip_prog(probe_closed_fd=True)
    run = _zip_run(iface, prog, ziplib.benign_zip)
    # the stale descriptor was refused by the entry closure's call contract,
    # so exactly one entry landed in the archive
    assert run.result == 1
    assert run.world.files["/temp/archive.zip"].count(b"entry:") == 1
    # with an entry check that accepts every call, an archiver that does no IO accepts it
    no_entry_check = replace(iface, cks=check_tree(iface.ctype, {"zip": iface.cks.ck, "zip_file": lambda *_args: True}))
    no_io = lambda lib: DClosure(lambda dafd: ret(DLeft(DClosure(lambda dfd: ret(DLeft(DUnit()))))))
    assert _zip_run(no_entry_check, prog, no_io).result == 2


def test_benign_archiver_answers_each_io_failure_in_band():
    @do
    def prog(archiver):
        sock = yield call_io(IoOp.SOCKET, ())
        on_socket = yield archiver(sock.value)  # the header write fails
        archive = yield call_io(IoOp.OPENFILE, (ziplib.ARCHIVE_PATH, ("O_CREAT",), 0o644))
        started = yield archiver(archive.value)
        socket_entry = yield started.value(sock.value)  # the entry read fails
        opened = yield call_io(IoOp.OPENFILE, ("/temp/in1.txt", (), 0))
        yield call_io(IoOp.CLOSE, archive.value)
        after_close = yield started.value(opened.value)  # the monitor refuses the entry write
        return on_socket, socket_entry, after_close

    run = _zip_run(ziplib.interface(), prog, ziplib.benign_zip)
    assert run.result == (Err(ErrCode.EBADF), Err(ErrCode.EBADF), contract_failure("policy:Write"))


def test_only_the_monitor_stops_the_archiver_opening_its_own_file():
    files = {"/temp/in1.txt": b"payload", "/temp/own.txt": b"mine"}
    shipped = ziplib.interface()
    allow_all = replace(shipped, policy=lambda s, op, arg: True)
    ctx = ziplib.zip_opens_own_file
    assert _zip_run(allow_all, ziplib.make_zip_prog(), ctx, files).result == 1
    assert _zip_run(shipped, ziplib.make_zip_prog(), ctx, files).result == 0


@pytest.mark.parametrize(
    "ctype",
    [
        ArrowT((IntT(),), EitherT(IntT(), PairT(IntT(), IntT())), ArrowSpec("f", CheckKind.PRE)),
        ArrowT((PairT(IntT(), EitherT(UnitT(), ArrowT((IntT(),), EitherT(IntT(), ErrT())))),), IntT()),
    ],
    ids=["codomain", "nested-argument"],
)
def test_interface_rejects_a_sum_whose_error_side_is_not_a_base_type(ws_bundle, ctype):
    # a contract failure at such a sum would have no dynamic form to take
    cks = Node(lambda *a: False, Leaf(), Leaf()) if ctype.spec else Leaf()
    with pytest.raises(ValueError, match="error side"):
        replace(ws_bundle.interface, ctype=ctype, cks=cks)


def test_every_shipped_interface_builds():
    for factory in BUNDLES.values():
        factory()
    for policy in WEBSERVER_POLICIES:
        webserver_interface(policy)
