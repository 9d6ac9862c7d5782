"""Staged contracts agree with the interpretive reference.

`contracts.export_value` / `import_value` build each wrapper once per
(type, check tree) and apply it; `oracles.reference_export_value` /
`reference_import_value` walk the type at every crossing.  Over generated
(type, check tree, value) triples the two give the same `Ok` / `Err`
outcomes, with the same `why` labels, and the closures they make, run with
`test_checked_path.drive`, make the same state reads, predicate calls and
IO calls and return the same values.  Arrows that declare different checks
stage apart, an interface stages its boundary once, when it is built, and
dropping the interface drops what it staged.
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_export_value, reference_import_value
from seclink import contracts
from seclink.contracts import (
    ArrowSpec,
    ArrowT,
    BytesT,
    CheckKind,
    DBytes,
    DClosure,
    DErr,
    DFd,
    DInt,
    DLeft,
    DPair,
    DRight,
    DUnit,
    EitherT,
    EmptyNode,
    ErrT,
    FdT,
    IntT,
    Leaf,
    Node,
    PairT,
    UnitT,
    components,
    export_value,
    import_value,
)
from seclink.demos import BUNDLES
from seclink.demos.harness import link_whole, webserver_bundle
from seclink.effects import Err, ErrCode, IoOp, Ok, Ret, call_io, contract_failure, do, ret
from seclink.interp import interpret
from seclink.linker import SourceInterface, compile_interface
from test_checked_path import drive, recording_check, recording_target

BASES = (IntT(), BytesT(), UnitT(), FdT(), ErrT())
LOG: list = []  # (node id, x, state before, y, state after) of each predicate call, in order


# -- types and aligned check trees ------------------------------------------------


def types(depth=0):
    """Boundary types.  An arrow returns an error-inclusive sum, and a sum's
    error side is a base type, so a check's contract failure fits anywhere."""
    base = st.sampled_from(BASES)
    if depth >= 3:
        return base
    sub = types(depth + 1)
    spec = st.sampled_from((None, CheckKind.PRE, CheckKind.POST)).map(
        lambda kind: kind and ArrowSpec(f"f{depth}", kind)
    )
    either = st.builds(EitherT, sub, st.sampled_from((ErrT(), ErrT(), UnitT(), IntT())))
    arrow = st.builds(ArrowT, st.lists(sub, min_size=1, max_size=3).map(tuple), either, spec)
    return st.one_of(base, st.builds(PairT, sub, sub), either, arrow)


def _recording_check(node_id, verdict):
    def ck(x, s0, y, s1):
        LOG.append((node_id, x, s0, y, s1))
        return verdict

    return ck


@st.composite
def trees(draw, td):
    """A check tree that lines up with `td`: a `Leaf` anywhere, else a `Node`
    exactly at the specced arrows, whose checks log and return a drawn verdict.
    A `Leaf` over a specced arrow stages no check there; only an interface
    must hold every check its type declares."""
    if isinstance(td, (IntT, BytesT, UnitT, FdT, ErrT)) or draw(st.integers(0, 5)) == 0:
        return Leaf()
    if isinstance(td, (PairT, EitherT)):
        return EmptyNode(*(draw(trees(side)) for side in components(td)))
    args = [draw(trees(d)) for d in td.doms]
    keep = min(draw(st.integers(0, len(args) + 1)), len(args))
    spine = args[-1] if keep == len(args) else Leaf()
    for i in reversed(range(min(keep, len(args) - 1))):
        spine = EmptyNode(args[i], spine)
    cod = draw(trees(td.cod))
    if td.spec is None:
        return EmptyNode(spine, cod)
    return Node(_recording_check(draw(st.integers(0, 10**6)), draw(st.booleans())), spine, cod)


@st.composite
def cases(draw):
    td = draw(types())
    return td, draw(trees(td)), draw(st.integers(0, 2**32 - 1))


# -- values: natives for export, dynamic values (some junk) for import ------------

_CODES = tuple(ErrCode)
JUNK = (DInt(0), DUnit(), DBytes(b"j"), DPair(DInt(1), DUnit()), DLeft(DUnit()), DRight(DInt(2)))
JUNK += (DClosure(lambda *args: Ret(DInt(0))),)  # a closure that returns junk


def native(td, rng):
    if isinstance(td, IntT):
        return rng.randrange(-2, 3)
    if isinstance(td, BytesT):
        return rng.choice((b"", b"x", b"yz"))
    if isinstance(td, UnitT):
        return ()
    if isinstance(td, FdT):
        return rng.choice((3, 4, 5))
    if isinstance(td, ErrT):
        return Err(rng.choice(_CODES), rng.choice((None, "why")))
    if isinstance(td, PairT):
        return native(td.fst, rng), native(td.snd, rng)
    if isinstance(td, EitherT):
        if rng.random() < 0.5:
            return Ok(native(td.left, rng))
        payload = native(td.right, rng)
        return payload if isinstance(td.right, ErrT) else Err(payload)
    return _behaviour(td, rng, native, lambda f, xs: f(*xs), lambda body: body)


def dynamic(td, rng):
    if rng.random() < 0.15:
        return rng.choice(JUNK)
    if isinstance(td, IntT):
        return DInt(rng.randrange(-2, 3))
    if isinstance(td, BytesT):
        return DBytes(rng.choice((b"", b"x")))
    if isinstance(td, UnitT):
        return DUnit()
    if isinstance(td, FdT):
        return DFd(rng.choice((3, 4)))
    if isinstance(td, ErrT):
        return DErr(rng.choice(_CODES), rng.choice((None, "why")))
    if isinstance(td, PairT):
        return DPair(dynamic(td.fst, rng), dynamic(td.snd, rng))
    if isinstance(td, EitherT):
        return DLeft(dynamic(td.left, rng)) if rng.random() < 0.5 else DRight(dynamic(td.right, rng))
    return _behaviour(td, rng, dynamic, lambda dclo, xs: dclo.fn(*xs), DClosure)


def _behaviour(td, rng, make, apply, wrap):
    """A function fixed at construction: maybe one IO call, then each
    callback it takes called with drawn arguments (sometimes one too many),
    its outcome written out; then a drawn result.  Same behaviour at every call."""
    io = rng.random() < 0.5
    plans = [
        (i, tuple(make(d, rng) for d in dom.doms) + ((make(IntT(), rng),) if rng.random() < 0.1 else ()))
        for i, dom in enumerate(td.doms)
        if isinstance(dom, ArrowT) and rng.random() < 0.7
    ]
    result = make(td.cod, rng)

    @do
    def body(*args):
        if io:
            yield call_io(IoOp.READ, 7)
        for i, xs in plans:
            outcome = yield apply(args[i], xs)
            yield call_io(IoOp.WRITE, (9, repr(_plain(outcome)).encode()))
        return result

    return wrap(body)


# -- comparison ----------------------------------------------------------------------


def _plain(v):
    """A value with every function replaced by a marker, for `==`."""
    if isinstance(v, tuple):
        return tuple(map(_plain, v))
    if isinstance(v, (Ok, DLeft, DRight)):
        return type(v).__name__, _plain(v.value)
    if isinstance(v, DPair):
        return "DPair", _plain(v.fst), _plain(v.snd)
    if callable(v) or isinstance(v, DClosure):
        return "<fn>"
    return v


def _run_both(comp_a, comp_b):
    """Drive both computations; assert the same reads, predicate calls and IO
    calls; return both values."""
    observed = []
    for comp in (comp_a, comp_b):
        LOG.clear()
        value, reads, calls = drive(comp)
        epoch = {id(s): n for n, s in reversed(list(enumerate(reads)))}
        checks = [(i, _plain(x), epoch[id(s0)], _plain(y), epoch[id(s1)]) for i, x, s0, y, s1 in LOG]
        io = [(c.op, c.arg) for c in calls]
        observed.append((value, [epoch[id(s)] for s in reads], checks, io))
    (va, *effects_a), (vb, *effects_b) = observed
    assert effects_a == effects_b
    return va, vb


def same_dyn(td, a, b, seed):
    if isinstance(a, DClosure) and isinstance(td, ArrowT):
        assert isinstance(b, DClosure)
        for arity in (len(td.doms), len(td.doms) + 1):
            rng = random.Random(seed + arity)
            xs = tuple(dynamic(d, rng) for d in td.doms) + ((DUnit(),) if arity > len(td.doms) else ())
            va, vb = _run_both(a.fn(*xs), b.fn(*xs))
            same_dyn(td.cod, va, vb, seed + 1)
        return
    assert type(a) is type(b)
    if isinstance(a, DPair):
        parts = (td.fst, td.snd) if isinstance(td, PairT) else (None, None)
        same_dyn(parts[0], a.fst, b.fst, seed + 1)
        same_dyn(parts[1], a.snd, b.snd, seed + 2)
    elif isinstance(a, (DLeft, DRight)):
        side = (td.left if isinstance(a, DLeft) else td.right) if isinstance(td, EitherT) else None
        same_dyn(side, a.value, b.value, seed + 1)
    else:
        assert _plain(a) == _plain(b)


def same_native(td, a, b, seed):
    if callable(a) and isinstance(td, ArrowT):
        assert callable(b)
        rng = random.Random(seed)
        xs = tuple(native(d, rng) for d in td.doms)
        va, vb = _run_both(a(*xs), b(*xs))
        same_native(td.cod, va, vb, seed + 1)
        return
    assert type(a) is type(b)
    if isinstance(a, tuple) and isinstance(td, PairT):
        same_native(td.fst, a[0], b[0], seed + 1)
        same_native(td.snd, a[1], b[1], seed + 2)
    elif isinstance(a, Ok) and isinstance(td, EitherT):
        same_native(td.left, a.value, b.value, seed + 1)
    elif isinstance(a, Err) and isinstance(td, EitherT) and not isinstance(td.right, ErrT):
        same_native(td.right, a.code, b.code, seed + 1)
    else:
        assert _plain(a) == _plain(b)


# -- the properties --------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(cases())
def test_staged_export_agrees_with_the_reference(case):
    td, tree, seed = case
    value = native(td, random.Random(seed))
    same_dyn(td, reference_export_value(td, tree, value), export_value(td, tree, value), seed)


@settings(max_examples=200, deadline=None)
@given(cases())
def test_staged_import_agrees_with_the_reference(case):
    td, tree, seed = case
    dv = dynamic(td, random.Random(seed))
    expected, got = reference_import_value(td, tree, dv), import_value(td, tree, dv)
    assert type(got) is type(expected)
    if isinstance(expected, Err):
        assert got == expected  # the same failure, `why` label included
    else:
        same_native(td, expected.value, got.value, seed)


# -- an interface stages its boundary once ------------------------------------------


@pytest.mark.parametrize("first", [CheckKind.PRE, CheckKind.POST])
def test_equal_arrows_that_declare_other_checks_stage_apart(first):
    ck, seen = recording_check(False)
    tree = Node(ck, Leaf(), Leaf())  # one tree, shared by both arrows
    arrow = {
        kind: ArrowT((BytesT(),), EitherT(UnitT(), ErrT()), ArrowSpec("f", kind)) for kind in CheckKind
    }
    assert arrow[CheckKind.PRE] == arrow[CheckKind.POST]
    order = [first] + [k for k in CheckKind if k is not first]
    for kind in order:  # staged in both orders: the first must not answer for the second
        entered = []

        def ctx_fn(darg):
            entered.append(darg)
            return ret(DLeft(DUnit()))

        value, _reads, calls = drive(import_value(arrow[kind], tree, DClosure(ctx_fn)).value(b"x"))
        assert value == contract_failure(f"{kind.value}:f") and calls == []
        # a PRE check refuses without calling the context; a POST check judges its result
        assert entered == ([] if kind is CheckKind.PRE else [DBytes(b"x")])
        assert seen[-1][2] == (() if kind is CheckKind.PRE else Ok(()))
        started = []
        exported = export_value(arrow[kind], tree, recording_target(started))
        value, _reads, calls = drive(exported.fn(DBytes(b"x")))
        assert value == DRight(DErr(ErrCode.CONTRACT_FAILURE, f"{kind.value}:f"))
        assert (started, len(calls)) == (([], 0) if kind is CheckKind.PRE else ([(b"x",)], 1))


def test_an_interface_compiles_once():
    for make in BUNDLES.values():
        iface = make().interface
        assert compile_interface(iface) is compile_interface(iface)


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_linking_again_stages_nothing_new(name, monkeypatch):
    # the bundle's interface staged its boundary when it was built
    bundle = BUNDLES[name]()
    contexts = [bundle.context(c) for c in bundle.context_names()]
    calls = []

    def counted(stage):
        return lambda *args: calls.append(args) or stage(*args)

    for stager in ("_exporter", "_importer", "_arrow_import"):
        monkeypatch.setattr(contracts, stager, counted(getattr(contracts, stager)))
    for route in ("target", "source"):
        for i in range(1000):
            whole = link_whole(bundle, contexts[i % len(contexts)], route=route)
            if i % 50 == 0:  # a run exports and imports at the deeper arrows too
                interpret(whole, bundle.worlds[-1], bundle.interface.mstate)
    assert calls == []


def test_dropped_interfaces_leave_nothing_staged():
    def live():
        gc.collect()
        return sum(isinstance(o, SourceInterface) for o in gc.get_objects())

    baseline = live()
    for _ in range(200):
        bundle = webserver_bundle()
        interpret(link_whole(bundle, bundle.contexts["benign"]), bundle.worlds[0], bundle.interface.mstate)
        del bundle
    assert live() == baseline
