"""The contract-constraint suite: green on shipped bundles, sharp on broken ones."""

from __future__ import annotations

from dataclasses import replace

import pytest

from seclink.contracts import EmptyNode, Leaf, Node
from seclink.demos import BUNDLES, webserver, webserver_bundle
from seclink.effects import Caller, Ret, contract_failure
from seclink.linker import SourceInterface
from seclink.traces import wrote_to
from seclink.validate import _SAMPLED_CLOSURE, collect_specced_arrows, validate_interface


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_shipped_bundles_have_no_counterexamples(name):
    bundle = BUNDLES[name]()
    outcome = validate_interface(bundle.interface, samples=1500, seed=5)
    assert outcome.ok, outcome.render_text()


def test_constraints_actually_exercised():
    outcome = validate_interface(webserver_bundle().interface, samples=1500, seed=5)
    for key, count in outcome.exercised.items():
        assert count > 0, key
    exercised_constraints = {c for (_a, c) in outcome.exercised}
    assert exercised_constraints == {"c_pre", "c_post", "c1_post", "c2_post"}


def _weakened(iface: SourceInterface) -> SourceInterface:
    return SourceInterface(
        label=iface.label + "-weak",
        ctype=iface.ctype,
        policy_spec=iface.policy_spec,
        policy=iface.policy,
        cks=Node(lambda *a: True, iface.cks.left, iface.cks.right),
        whole_run_post=iface.whole_run_post,
        mstate=iface.mstate,
    )


def test_weakened_result_check_is_caught():
    iface = _weakened(webserver_bundle().interface)
    outcome = validate_interface(iface, samples=1500, seed=5)
    assert not outcome.ok
    assert any(c.constraint == "c1_post" and c.arrow == "handler" for c in outcome.counterexamples)
    assert "COUNTEREXAMPLE handler/" in outcome.render_text()


def test_sampled_closure_fails_in_band():
    done = _SAMPLED_CLOSURE(3, b"x")
    assert type(done) is Ret and done.value == contract_failure("sampled closure")


def test_result_samples_outside_the_policy_are_skipped():
    # a policy that refuses trusted writes rejects every local trace that
    # answers the client, so those samples judge nothing
    def no_trusted_writes(h, caller, op, arg):
        return caller is Caller.CTX and webserver.policy_spec(h, caller, op, arg)

    iface = replace(webserver.interface(), policy_spec=no_trusted_writes)
    outcome = validate_interface(iface, samples=200, seed=5)
    assert 0 < outcome.exercised[("handler", "c2_post")] < 200


def _with_send(iface, *, check=None, spec=None):
    """`iface` with the send arrow's check or declared spec replaced."""
    fd, req, send = iface.ctype.doms
    if spec is not None:
        send = replace(send, spec=replace(send.spec, **spec))
    cks = iface.cks
    if check is not None:
        cks = Node(cks.ck, EmptyNode(Leaf(), EmptyNode(Leaf(), Node(check, Leaf(), Leaf()))), Leaf())
    return replace(iface, ctype=replace(iface.ctype, doms=(fd, req, send)), cks=cks)


def _with_handler_post(iface, post):
    return replace(iface, ctype=replace(iface.ctype, spec=replace(iface.ctype.spec, post=post)))


# Each weakening breaks one constraint, and the suite names that one.
@pytest.mark.parametrize(
    "weaken, arrow, constraint",
    [
        (lambda i: _with_send(i, check=lambda *a: True), "send", "c_pre"),
        (lambda i: _with_send(i, spec={"post": lambda *a: True}), "send", "c_post"),
        (lambda i: _with_handler_post(i, lambda args, h, r, lt: wrote_to(args[0], lt)), "handler", "c2_post"),
    ],
    ids=["send-check-always-true", "send-post-always-true", "handler-post-without-error-case"],
)
def test_each_weakened_constraint_is_caught(weaken, arrow, constraint):
    iface = weaken(webserver.interface())
    outcome = validate_interface(iface, samples=300, seed=5)
    found = {(c.arrow, c.constraint) for c in outcome.counterexamples}
    assert (arrow, constraint) in found, outcome.render_text()


def test_collect_finds_nested_arrows():
    bundle = BUNDLES["zip"]()
    labels = [arrow.spec.label for arrow, _n in collect_specced_arrows(bundle.interface.ctype, bundle.interface.cks)]
    assert labels == ["zip", "zip_file"]
    ws = webserver_bundle()
    labels = [arrow.spec.label for arrow, _n in collect_specced_arrows(ws.interface.ctype, ws.interface.cks)]
    assert labels == ["handler", "send"]
