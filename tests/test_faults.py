"""Every single IO fault the world may answer is met in-band.

Each IO result the interface allows is a value or an error, so a run in
which the world fails any one op must still return, pass its capability
audit and keep the context within the policy.  The whole-run post-condition
holds too, under one guarantee of the fault model: a trusted `CLOSE` of a
live descriptor succeeds.  The zip bundle's post ("the program closes every
descriptor it opens") cannot hold once such a close fails, whatever the
program does, so those runs, and only those, fail it.
"""

from __future__ import annotations

from faults import CODES, Fault, injected
from seclink.demos import BUNDLES, attribute_mechanism, run_scenario, webserver_bundle, zip_bundle
from seclink.effects import Caller, ErrCode, IoOp


def _grid():
    for factory in BUNDLES.values():
        bundle = factory()
        for name in bundle.context_names():
            for i, world in enumerate(bundle.worlds):
                yield bundle, name, i, world


def test_every_single_fault_is_answered_in_band():
    faulted = 0
    for bundle, name, i, world in _grid():
        for k in range(len(run_scenario(bundle, name, world, i).run.local)):
            for code in CODES:
                with injected(Fault(k, code)) as fault:
                    report = run_scenario(bundle, name, world, i)
                where = f"{bundle.name} {name} world {i} op {k} {code.value}: {fault.failed}"
                assert fault.failed is not None, where
                assert report.verdicts["capability-audit"], where
                assert report.verdicts["policy-locally-enforced"], where
                unmeetable = bundle.name == "zip" and fault.failed == (Caller.PROG, IoOp.CLOSE)
                assert report.verdicts["whole-run-post"] is not unmeetable, where
                faulted += 1
    assert faulted > 5000


def test_a_failed_first_op_ends_each_program_at_once():
    # the server's socket fails: it serves no request
    web = webserver_bundle()
    with injected(Fault(0, ErrCode.EBADF)):
        report = run_scenario(web, "benign", web.worlds[4], 4)
    assert report.result == 0 and [e.op for e in report.run.local] == [IoOp.SOCKET]
    # the archive does not open: no archiver is called and no entry added
    archiver = zip_bundle()
    with injected(Fault(0, ErrCode.EBADF)):
        report = run_scenario(archiver, "benign", archiver.worlds[0])
    assert report.result == 0 and [e.op for e in report.run.local] == [IoOp.OPENFILE]


def test_a_failed_probe_accept_attributes_no_mechanism():
    # the probe server's sixth op accepts its one client; failing it leaves
    # the handler uncalled, so no mechanism had a call to stop
    bundle = webserver_bundle()
    for name in bundle.expected_mechanism:
        with injected(Fault(5, ErrCode.EWOULDBLOCK)) as fault:
            assert attribute_mechanism(bundle.interface, bundle.context(name)) is None
        assert fault.failed == (Caller.PROG, IoOp.ACCEPT)
