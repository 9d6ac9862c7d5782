"""Compilation, linking in both orders of control, and back-translation."""

from __future__ import annotations

from seclink.contracts import DInt
from seclink.demos import logging_bundle, zip_bundle
from seclink.effects import is_err
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
    # a source context may run the effectful checks it receives; they are
    # read-only, so behaviour still satisfies the interface post-condition
    iface = ws_bundle.interface
    honest = ws_bundle.contexts["benign"]

    def nosy(lib, eff_cks):
        outcome = back_translate_ctx(iface, honest)(lib, eff_cks)
        # poke the root check's first phase and discard it
        probe = eff_cks.ck.phase1((0, b"", None))
        assert probe is not None
        return outcome

    whole_run_post, whole = link_source(iface, ws_bundle.prog, nosy)
    run = interpret(whole, small_world, iface.mstate)
    assert whole_run_post((), run.result, run.local)
    assert run.audit_ok


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


def test_zip_higher_order_wrapping(small_world):
    bundle = zip_bundle()
    iface = bundle.interface
    target = compile_interface(iface)
    compiled = compile_prog(iface, bundle.prog)
    world = make_world(files={"/temp/in1.txt": b"payload"})
    run = interpret(link_target(target, compiled, bundle.contexts["benign"]), world, iface.mstate)
    assert run.result == 1
    assert run.world.files["/temp/archive.zip"] == b"ZIP1\nentry:payload\n"


def test_zip_closed_fd_probe_hits_entry_contract():
    bundle = zip_bundle(probe_closed_fd=True)
    iface = bundle.interface
    target = compile_interface(iface)
    compiled = compile_prog(iface, bundle.prog)
    world = make_world(files={"/temp/in1.txt": b"payload"})
    run = interpret(link_target(target, compiled, bundle.contexts["benign"]), world, iface.mstate)
    # the stale descriptor was refused by the entry closure's call contract,
    # so exactly one entry landed in the archive
    assert run.result == 1
    assert run.world.files["/temp/archive.zip"].count(b"entry:") == 1
