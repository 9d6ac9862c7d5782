"""Contract machinery: conversions, checks, and enforcement wrappers."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    check_tree,
    export_value,
    import_value,
    shape_matches,
    strip_specs,
)
from seclink.ctxdsl import TypecheckError, parse, typecheck
from seclink.demos import BUNDLES, logging_lib, webserver, ziplib
from seclink.demos.dsl_handlers import DSL_HANDLER_SOURCES
from seclink.effects import Err, ErrCode, IoOp, Ok, call_io, contract_failure, do, is_err, ret
from seclink.interp import interpret
from seclink.monitor import webserver_mstate
from seclink.validate import collect_specced_arrows
from seclink.worlds import make_world


def run(comp, world=None):
    return interpret(comp, world or make_world(files={"/temp/a.txt": b"x"}), webserver_mstate())


# -- base and structural conversions ------------------------------------------


@pytest.mark.parametrize(
    "td,native,dyn",
    [
        (IntT(), 42, DInt(42)),
        (UnitT(), (), DUnit()),
        (BytesT(), b"hi", DBytes(b"hi")),
        (FdT(), 5, DFd(5)),
        (PairT(IntT(), BytesT()), (1, b"x"), DPair(DInt(1), DBytes(b"x"))),
        (EitherT(IntT(), ErrT()), Ok(3), DLeft(DInt(3))),
        (EitherT(IntT(), ErrT()), Err(ErrCode.EBADF), DRight(DErr(ErrCode.EBADF))),
        (EitherT(IntT(), UnitT()), Ok(3), DLeft(DInt(3))),
        (EitherT(IntT(), UnitT()), Err(()), DRight(DUnit())),
    ],
)
def test_round_trip(td, native, dyn):
    assert export_value(td, Leaf(), native) == dyn
    assert import_value(td, Leaf(), dyn) == Ok(native)


def test_import_shape_mismatch():
    outcome = import_value(FdT(), Leaf(), DBytes(b"zz"))
    assert is_err(outcome) and outcome.code is ErrCode.CONTRACT_FAILURE


def test_import_rejects_non_closure_at_arrow():
    arrow = ArrowT((IntT(),), EitherT(IntT(), ErrT()))
    assert is_err(import_value(arrow, Leaf(), DInt(3)))


def test_check_node_at_an_arrow_without_a_spec_raises():
    arrow, node = ArrowT((IntT(),), EitherT(IntT(), ErrT())), Node(lambda *a: True, Leaf(), Leaf())
    with pytest.raises(ValueError, match="check node at an arrow without a spec"):
        import_value(arrow, node, DClosure(lambda x: ret(DLeft(x))))


# Junk a plugin can hand back at structured types: each is refused in-band,
# with the label of the innermost type that did not match.
_PAIR, _SUM = PairT(IntT(), BytesT()), EitherT(IntT(), ErrT())


@pytest.mark.parametrize(
    "td,dv,why",
    [
        (_PAIR, DInt(1), "import:PairT"),
        (_PAIR, DPair(DInt(1), DInt(2)), "import:BytesT"),
        (_PAIR, DPair(DBytes(b"x"), DBytes(b"y")), "import:IntT"),
        (_SUM, DRight(DInt(4)), "import:ErrT"),
        (_SUM, DLeft(DBytes(b"x")), "import:IntT"),
        (_SUM, DPair(DInt(1), DInt(2)), "import:EitherT"),
        (_SUM, DUnit(), "import:EitherT"),
        (EitherT(IntT(), UnitT()), DRight(DInt(0)), "import:UnitT"),
    ],
    ids=["non-pair", "bad-second", "bad-first", "bad-right", "bad-left", "pair-at-sum", "unit-at-sum", "bad-miss"],
)
def test_import_refuses_structured_junk_in_band(td, dv, why):
    assert import_value(td, Leaf(), dv) == contract_failure(why)


def test_typechecks_shapes():
    assert not is_err(import_value(IntT(), Leaf(), DInt(1)))
    assert is_err(import_value(BytesT(), Leaf(), DInt(1)))
    assert not is_err(import_value(PairT(IntT(), EitherT(UnitT(), ErrT())), Leaf(), DPair(DInt(1), DLeft(DUnit()))))
    assert not is_err(import_value(ArrowT((IntT(),), EitherT(IntT(), ErrT())), Leaf(), DClosure(lambda x: ret(x))))


def test_strip_specs_removes_all():
    stripped = strip_specs(webserver.HANDLER_TYPE)
    assert stripped.spec is None
    assert stripped.doms[2].spec is None


def test_arrow_equality_ignores_the_spec():
    td = ArrowT((IntT(),), EitherT(IntT(), ErrT()))
    specced = ArrowT(td.doms, td.cod, ArrowSpec("f", CheckKind.PRE))
    assert specced == td and hash(specced) == hash(td)
    assert {td: 1}[specced] == 1
    assert ArrowT((IntT(), IntT()), td.cod) != td


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_strip_specs_keeps_the_type(name):
    ctype = BUNDLES[name]().interface.ctype
    assert strip_specs(ctype) == ctype


def test_typecheck_takes_an_n_ary_boundary_type():
    for source in DSL_HANDLER_SOURCES.values():
        typecheck(parse(source), webserver.HANDLER_TYPE)
    # the checker reads every argument of the arrow, not only the first
    with pytest.raises(TypecheckError) as exc:
        typecheck(parse("\\c:fd. 3"), webserver.HANDLER_TYPE)
    assert str(exc.value) == "term.body: has type int, needs bytes -> (bytes -> either unit err) -> either unit err"


def test_shape_rules():
    assert shape_matches(webserver.HANDLER_TYPE, webserver.interface().cks)
    # a Leaf over a specced arrow drops a declared check
    assert not shape_matches(webserver.HANDLER_TYPE, Leaf())
    assert not shape_matches(webserver.HANDLER_TYPE, Node(webserver._handler_ck, Leaf(), Leaf()))
    # a check node requires an arrow with a declared spec
    bare = ArrowT((IntT(),), EitherT(IntT(), ErrT()))
    assert not shape_matches(bare, Node(lambda *a: True, Leaf(), Leaf()))
    assert not shape_matches(IntT(), EmptyNode(Leaf(), Leaf()))


# -- alignment of check trees with types ---------------------------------------
#
# A case is (type, tree, placed, mutants): a tree that lines up with the type
# by construction, the (arrow, node) pairs placed in it in the order
# `collect_specced_arrows` reports them, and every variant of the tree with
# exactly one misplaced node or one Leaf in place of a subtree with a check.


def _ck(*_args):
    return True


def _node(left, right):
    return Node(_ck, left, right)


def _base_case():
    return IntT(), Leaf(), [], [EmptyNode(Leaf(), Leaf())]


def _pair_case(kind, a, b):
    mutants = [EmptyNode(m, b[1]) for m in a[3]] + [EmptyNode(a[1], m) for m in b[3]]
    return kind(a[0], b[0]), EmptyNode(a[1], b[1]), a[2] + b[2], mutants


def _spine(trees, n, noded=None):
    """Argument trees nested to the right; with fewer than `n` trees the
    spine ends in a Leaf.  A Node replaces the spine's `noded`-th link."""
    spine = trees[-1] if len(trees) == n else Leaf()
    for i in reversed(range(min(len(trees), n - 1))):
        spine = (_node if i == noded else EmptyNode)(trees[i], spine)
    return spine


def _arrow_case(specced, args, cod, keep):
    """An arrow over `args`, its spine cut by a Leaf after `keep` of them."""
    n = len(args)
    td = ArrowT(tuple(a[0] for a in args), cod[0], ArrowSpec("f", CheckKind.PRE) if specced else None)
    wrap, swapped = (_node, EmptyNode) if specced else (EmptyNode, _node)
    kept = [a[1] for a in args[:keep]]
    tree = wrap(_spine(kept, n), cod[1])
    placed = [(td, tree)] if specced else []
    placed += [p for a in args[:keep] for p in a[2]] + cod[2]
    mutants = [swapped(tree.left, tree.right)]
    mutants += [wrap(_spine(kept, n, i), cod[1]) for i in range(min(keep, n - 1))]
    for i, a in enumerate(args[:keep]):
        mutants += [wrap(_spine(kept[:i] + [m] + kept[i + 1 :], n), cod[1]) for m in a[3]]
    mutants += [wrap(tree.left, m) for m in cod[3]]
    return td, tree, placed, mutants


@st.composite
def aligned_cases(draw, depth=0):
    kind = draw(st.sampled_from(("base", "pair", "either", "arrow") if depth < 3 else ("base",)))
    if kind == "base":
        case = _base_case()
    elif kind == "arrow":
        n = draw(st.integers(1, 3))
        args = [draw(aligned_cases(depth + 1)) for _ in range(n)]
        cod = draw(aligned_cases(depth + 1))
        # the spine may end in a Leaf only after the last argument with a check
        last_checked = max((i + 1 for i, a in enumerate(args) if a[2]), default=0)
        keep = max(min(draw(st.integers(0, n + 2)), n), last_checked)
        case = _arrow_case(draw(st.booleans()), args, cod, keep)
    else:
        sides = (draw(aligned_cases(depth + 1)), draw(aligned_cases(depth + 1)))
        case = _pair_case(PairT if kind == "pair" else EitherT, *sides)
    if case[2]:  # a Leaf in place of a tree that holds a check drops it
        return (*case[:3], case[3] + [Leaf()])
    if draw(st.integers(0, 5)) == 0:
        return case[0], Leaf(), [], []
    return case


# a checked arrow in the middle argument of an unchecked three-argument arrow
_CHECKED = _arrow_case(True, [_base_case()], _base_case(), 1)
_MIDDLE = _arrow_case(False, [_base_case(), _CHECKED, _base_case()], _base_case(), 3)


@settings(max_examples=300, deadline=None)
@given(aligned_cases())
@example(_MIDDLE)
def test_aligned_trees_match_and_collect_in_order(case):
    td, tree, placed, mutants = case
    assert shape_matches(td, tree)
    assert collect_specced_arrows(td, tree) == placed
    for mutant in mutants:
        assert not shape_matches(td, mutant)


@settings(max_examples=200, deadline=None)
@given(aligned_cases())
def test_the_built_tree_holds_each_declared_check(case):
    td, _tree, placed, _mutants = case
    built = check_tree(td, {"f": _ck} if placed else {})
    assert shape_matches(td, built)
    assert [id(arrow) for arrow, _node in collect_specced_arrows(td, built)] == [id(arrow) for arrow, _node in placed]


def test_shipped_trees_are_the_ones_once_written_by_hand():
    ws, zf, lg = webserver, ziplib, logging_lib
    send = Node(ws._send_ck, Leaf(), Leaf())
    assert ws.interface().cks == Node(ws._handler_ck, EmptyNode(Leaf(), EmptyNode(Leaf(), send)), Leaf())
    zip_file = Node(zf._fd_open_ck, Leaf(), Leaf())
    assert zf.interface().cks == Node(zf._fd_open_ck, Leaf(), EmptyNode(zip_file, Leaf()))
    assert lg.interface().cks == EmptyNode(Node(lg._logger_ck, Leaf(), Leaf()), Leaf())
    assert ws.interface().cks != Node(ws._handler_ck, EmptyNode(Leaf(), EmptyNode(Leaf(), Leaf())), Leaf())


# -- enforcement on exported arrows -----------------------------------------------

export_ok = DLeft(DUnit())


def export_failure(why):
    return DRight(DErr(ErrCode.CONTRACT_FAILURE, why))


def checked(kind, ck, f, label, doms=(BytesT(),)):
    """`f` exported at a `kind`-specced arrow behind `ck`, as linking exports it."""
    td = ArrowT(doms, EitherT(UnitT(), ErrT()), ArrowSpec(label, kind))
    return export_value(td, Node(ck, Leaf(), Leaf()), f).fn


def test_constantly_true_check_accepts():
    wrapped = checked(CheckKind.POST, lambda *a: True, lambda: ret(Ok(())), "x", doms=())
    assert run(wrapped()).result == export_ok


def sendish(client):
    @do
    def send(data):
        outcome = yield call_io(IoOp.WRITE, (client, data))
        return outcome

    return send


def test_enforce_pre_denies_without_calling():
    wrapped = checked(CheckKind.PRE, lambda args, s0, y, s1: False, sendish(1), "send")
    result = run(wrapped(DBytes(b"HTTP/1.1 200 OK\r\n\r\n")))
    assert result.result == export_failure("pre:send")
    assert result.local == ()


def test_enforce_pre_passes_through():
    wrapped = checked(CheckKind.PRE, lambda args, s0, y, s1: True, sendish(1), "send")
    result = run(wrapped(DBytes(b"HTTP/1.1 200 OK\r\n\r\n")))
    assert result.result == export_ok
    assert len(result.local) == 1
    assert result.local[0].op is IoOp.WRITE


def test_enforce_post_replaces_result_on_failure():
    wrapped = checked(CheckKind.POST, lambda args, s0, y, s1: False, lambda: ret(Ok(())), "handler", doms=())
    result = run(wrapped())
    assert result.result == export_failure("post:handler")


def test_enforce_post_trace_equals_inner_trace():
    @do
    def inner():
        yield call_io(IoOp.OPENFILE, ("/temp/a.txt", (), 0))
        return Ok(())

    bare = run(inner())
    wrapped = run(checked(CheckKind.POST, lambda *a: True, inner, "x", doms=())())
    assert wrapped.local == bare.local


# -- boundary wrappers on the shipped handler type ------------------------------


def import_handler(dclosure):
    outcome = import_value(webserver.HANDLER_TYPE, webserver.interface().cks, dclosure)
    assert not is_err(outcome)
    return outcome.value


def world_with_client():
    return make_world(files={"/temp/a.txt": b"x"}, requests=[(1, b"GET / HTTP/1.1\r\n\r\n")])


@do
def with_client(body):
    sock = yield call_io(IoOp.SOCKET, ())
    yield call_io(IoOp.LISTEN, (sock.value, 5))
    client = yield call_io(IoOp.ACCEPT, sock.value)
    yield call_io(IoOp.READ, client.value)
    outcome = yield body(client.value)
    return outcome


def test_imported_handler_passes_valid_send_once():
    def good(dclient, _dreq, send):
        return send.fn(DBytes(b"HTTP/1.1 200 OK\r\n\r\n"))

    strong = import_handler(DClosure(good))
    result = run(
        with_client(lambda c: strong(c, b"GET / HTTP/1.1\r\n\r\n", sendish(c))),
        world_with_client(),
    )
    assert result.result == Ok(())
    assert any(e.op is IoOp.WRITE for e in result.local)


def test_imported_handler_blocks_double_send():
    @do
    def eager(dclient, _dreq, send):
        first = yield send.fn(DBytes(b"HTTP/1.1 200 OK\r\n\r\n"))
        second = yield send.fn(DBytes(b"HTTP/1.1 200 OK\r\n\r\n"))
        return second

    strong = import_handler(DClosure(eager))
    result = run(
        with_client(lambda c: strong(c, b"GET / HTTP/1.1\r\n\r\n", sendish(c))),
        world_with_client(),
    )
    # the second send was refused, but the first one answered the client,
    # so the handler's own result check accepts the error it returned
    assert result.result == contract_failure("pre:send")
    writes = [e for e in result.local if e.op is IoOp.WRITE]
    assert len(writes) == 1


def test_imported_handler_rejects_silent_success():
    strong = import_handler(DClosure(lambda c, r, s: ret(DLeft(DUnit()))))
    result = run(
        with_client(lambda c: strong(c, b"GET / HTTP/1.1\r\n\r\n", sendish(c))),
        world_with_client(),
    )
    assert result.result == contract_failure("post:handler")


def test_imported_handler_passes_own_errors_through():
    strong = import_handler(DClosure(lambda c, r, s: ret(DRight(DErr(ErrCode.ENOENT)))))
    result = run(
        with_client(lambda c: strong(c, b"GET / HTTP/1.1\r\n\r\n", sendish(c))),
        world_with_client(),
    )
    assert result.result == Err(ErrCode.ENOENT)


# -- crossings at a multi-argument arrow ----------------------------------------


def _sender(label):
    return ArrowT((BytesT(),), EitherT(UnitT(), ErrT()), ArrowSpec(label, CheckKind.PRE))


THREE_SENDERS = ArrowT(
    (_sender("first"), _sender("second"), _sender("third")), EitherT(UnitT(), ErrT())
)


@do
def call_each(*senders):
    for i, send in enumerate(senders):
        outcome = yield send.fn(DBytes(b"%d" % i))
        if isinstance(outcome, DRight):
            return outcome
    return outcome


def run_three_senders(cks):
    calls = []

    def native(data):
        calls.append(data)
        return ret(Ok(()))

    strong = import_value(THREE_SENDERS, cks, DClosure(call_each)).value
    return run(strong(native, native, native)), calls


def test_check_on_middle_argument_fires_when_called():
    deny = Node(lambda *a: False, Leaf(), Leaf())
    result, calls = run_three_senders(EmptyNode(EmptyNode(Leaf(), EmptyNode(deny, Leaf())), Leaf()))
    assert result.result == contract_failure("pre:second")
    assert result.local == ()
    assert calls == [b"0"]


def test_leaf_argument_spine_leaves_every_argument_unchecked():
    result, calls = run_three_senders(EmptyNode(Leaf(), Leaf()))
    assert result.result == Ok(())
    assert calls == [b"0", b"1", b"2"]


def test_exported_closure_rejects_ill_typed_argument():
    spec = ArrowSpec("id", CheckKind.PRE)
    arrow = ArrowT((IntT(),), EitherT(IntT(), ErrT()), spec)
    exported = export_value(arrow, Node(lambda *a: True, Leaf(), Leaf()), lambda n: ret(Ok(n)))
    result = run(exported.fn(DBytes(b"not an int")))
    assert result.result == DRight(DErr(ErrCode.CONTRACT_FAILURE, "import:IntT"))


def test_exported_closure_arity_mismatch():
    arrow = ArrowT((IntT(), IntT()), EitherT(IntT(), ErrT()))
    exported = export_value(arrow, Leaf(), lambda a, b: ret(Ok(a + b)))
    result = run(exported.fn(DInt(1)))
    assert isinstance(result.result, DRight)
