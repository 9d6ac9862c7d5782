"""Context language: parsing, typing, translation."""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seclink.contracts import (
    ArrowT,
    BytesT,
    DBytes,
    DClosure,
    DInt,
    DLeft,
    DPair,
    DRight,
    DUnit,
    EitherT,
    ErrT,
    FdT,
    IntT,
    Leaf,
    PairT,
    UnitT,
    import_value,
)
from seclink.ctxdsl import (
    PRIM_TYPES,
    App,
    BytesLit,
    Case,
    CtxExpr,
    Inject,
    IntLit,
    IoCall,
    Lam,
    Let,
    PairE,
    ParseError,
    Proj,
    TypecheckError,
    UnitLit,
    Var,
    _infer,
    _prim_closures,
    _stage,
    curried_view,
    load,
    parse,
    pretty,
    translate,
    typecheck,
)
from seclink.demos import webserver, webserver_bundle
from seclink.demos.harness import link_whole
from seclink.effects import IoOp, evaluate, is_err, ret
from seclink.interp import interpret
from seclink.linker import compile_interface
from seclink.monitor import enforce_policy, stateless_mstate
from seclink.worlds import make_world

HANDLER_T = curried_view(webserver.HANDLER_TYPE)
SEND_T = ArrowT((BytesT(),), EitherT(UnitT(), ErrT()))


# -- parsing -------------------------------------------------------------------


def test_parse_handler_shape():
    expr = parse('\\c:fd. \\r:bytes. \\s:(bytes -> either unit err). inl ()')
    assert expr == Lam(
        "c",
        FdT(),
        Lam("r", BytesT(), Lam("s", SEND_T, Inject("inl", UnitLit()))),
    )


def test_parse_io_call():
    expr = parse("\\u:unit. io Socket ()")
    assert expr == Lam("u", UnitT(), IoCall(IoOp.SOCKET, UnitLit()))


def test_parse_application():
    assert parse("(\\x:int. x) 3") == App(Lam("x", IntT(), Var("x")), IntLit(3))


def test_parse_case_pairs_lets():
    expr = parse('let p = (1, "a") in case inl (fst p) of inl x => x | inr y => snd p')
    assert isinstance(expr, Let)
    assert isinstance(expr.body, Case)
    assert expr.body.scrutinee == Inject("inl", Proj("fst", Var("p")))


def test_parse_string_escapes():
    assert parse('"a\\r\\n\\"b\\\\"') == BytesLit(b'a\r\n"b\\')


@pytest.mark.parametrize(
    "text",
    [
        "\\x. x",  # missing annotation
        "case x of inl y => y",  # missing branch
        "io Frobnicate ()",  # unknown operation
        "io Select ()",  # operation not in the context signature
        "(1, 2",  # unbalanced
        "let x = 1",  # missing in
        "",
        '"€"',  # not a byte
    ],
)
def test_parse_errors_carry_positions(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert "offset" in str(exc.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 $ 2", "at offset 2: unexpected character '$'"),
        ('"a\\qb"', "at offset 0: unknown escape \\q"),
        ("\\x:5. x", "at offset 3: expected a type, found '5'"),
        ("in", "at offset 0: unexpected keyword 'in'"),
        ("x )", "at offset 2: trailing input starting at ')'"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


# -- typing --------------------------------------------------------------------


def test_handler_sources_typecheck():
    from seclink.demos.dsl_handlers import DSL_HANDLER_SOURCES

    for source in DSL_HANDLER_SOURCES.values():
        typecheck(parse(source), HANDLER_T)


def test_typecheck_rejects_wrong_io_arg():
    with pytest.raises(TypecheckError):
        typecheck(parse("\\x:int. io Write x"), ArrowT((IntT(),), EitherT(UnitT(), ErrT())))


def test_typecheck_rejects_unbound():
    with pytest.raises(TypecheckError) as exc:
        typecheck(parse("nope"), IntT())
    assert "unbound" in str(exc.value)


def test_typecheck_rejects_bad_annotation():
    with pytest.raises(TypecheckError):
        typecheck(parse("\\x:int. x"), ArrowT((BytesT(),), BytesT()))


def test_typecheck_branch_disagreement():
    src = "\\e:either int bytes. case e of inl x => inl x | inr y => inr y"
    typecheck(parse(src), ArrowT((EitherT(IntT(), BytesT()),), EitherT(IntT(), BytesT())))
    with pytest.raises(TypecheckError):
        typecheck(parse(src), ArrowT((EitherT(IntT(), BytesT()),), EitherT(BytesT(), IntT())))


def _annotation(text):
    """The type written `text` in the language, read from a lambda's annotation."""
    return parse(f"\\x:{text}. x").ty


# One term per type-error form, with the expected type it is checked against
# and the exact message; the types nest pairs, sums and arrows on both sides.
TYPE_ERRORS = {
    "unbound": (
        "\\f:int -> int. nope",
        "(int -> int) -> int",
        "term.body: unbound variable 'nope'",
    ),
    "function-found": (
        "\\x:int. x",
        "either (int * bytes) err",
        "term: function found where either (int * bytes) err expected",
    ),
    "annotation": (
        "\\g:(int -> int) -> either (int * bytes) err. g",
        "((int -> int) -> either (bytes * int) err) -> unit",
        "term: argument annotated (int -> int) -> either (int * bytes) err,"
        " needs (int -> int) -> either (bytes * int) err",
    ),
    "injection-found": (
        "inl 3",
        "(int -> int) -> int * bytes",
        "term: sum injection found where (int -> int) -> int * bytes expected",
    ),
    "scrutinee-checked": (
        "\\p:int * (bytes -> int). case p of inl x => x | inr y => y",
        "int * (bytes -> int) -> int",
        "term.body: case scrutinee has type int * (bytes -> int), not a sum",
    ),
    "scrutinee-inferred": (
        "\\p:(int * bytes) * fd. let z = case p of inl x => x | inr y => y in 3",
        "(int * bytes) * fd -> int",
        "term.body.bound: case scrutinee has type (int * bytes) * fd, not a sum",
    ),
    "mismatch": (
        "\\f:int -> either (int * bytes) err. f",
        "(int -> either (int * bytes) err) -> int -> either (bytes * int) err",
        "term.body: has type int -> either (int * bytes) err, needs int -> either (bytes * int) err",
    ),
    "not-a-function": (
        "\\p:(int -> int) * bytes. p 3",
        "(int -> int) * bytes -> int",
        "term.body: applied expression has type (int -> int) * bytes, not a function",
    ),
    "not-a-pair": (
        "\\e:either (int * bytes) err. fst e",
        "either (int * bytes) err -> int",
        "term.body: projection from type either (int * bytes) err, not a pair",
    ),
    "branches": (
        "\\e:either (int -> int) ((int -> int) -> bytes). let r = case e of inl f => f | inr g => g in ()",
        "either (int -> int) ((int -> int) -> bytes) -> unit",
        "term.body.bound: branches disagree: int -> int vs (int -> int) -> bytes",
    ),
    "bare-injection": (
        "\\u:unit. let z = inl 3 in u",
        "unit -> unit",
        "term.body.bound: cannot infer the type of a bare sum injection; add context",
    ),
}


@pytest.mark.parametrize("form", sorted(TYPE_ERRORS))
def test_type_error_texts_are_pinned(form):
    source, expected, message = TYPE_ERRORS[form]
    with pytest.raises(TypecheckError) as exc:
        typecheck(parse(source), _annotation(expected))
    assert str(exc.value) == message


def test_pretty_prints_nested_annotations():
    source = (
        "\\f:(int -> int) -> either (int * bytes) err. \\p:(int * bytes) * (fd -> err)."
        " \\s:either (either int unit) (bytes -> int * int). f"
    )
    assert pretty(parse(source)) == source


# -- generated terms: round trips, rejection, translation totality --------------

_NAMES = ("a", "b", "c", "f", "g", "h", "k", "m", "n", "p", "q", "x", "y", "z")


def _types(depth):
    if depth == 0:
        return st.sampled_from([IntT(), BytesT(), UnitT()])
    sub = _types(depth - 1)
    return st.one_of(
        sub,
        st.tuples(sub, sub).map(lambda p: PairT(*p)),
        st.tuples(sub, sub).map(lambda p: EitherT(*p)),
        st.tuples(sub, sub).map(lambda p: ArrowT((p[0],), p[1])),
    )


def _io_result(ty):
    return EitherT(ty, ErrT())


# Effectful forms: each `io` result type with the operations that give it and
# their argument types; the types effectful binders bind and cases split.
_IO_FORMS = {
    _io_result(FdT()): ((IoOp.OPENFILE, BytesT()), (IoOp.SOCKET, UnitT())),
    _io_result(BytesT()): ((IoOp.READ, FdT()),),
    _io_result(UnitT()): ((IoOp.WRITE, PairT(FdT(), BytesT())), (IoOp.CLOSE, FdT())),
}
_BOUND = (IntT(), BytesT(), _io_result(FdT()), _io_result(BytesT()))
_SPLIT = (_io_result(FdT()), _io_result(BytesT()), EitherT(IntT(), BytesT()))
_PRIM_OF = {ArrowT((BytesT(),), BytesT()): ("request_path", "temp_path", "http_ok")}


def _inhabited(ty, env) -> bool:
    """Whether a term of `ty` exists under `env`: fd and err values only
    come from variables (bound by cases over `io` results)."""
    if isinstance(ty, (FdT, ErrT)):
        return ty in env.values()
    if isinstance(ty, PairT):
        return _inhabited(ty.fst, env) and _inhabited(ty.snd, env)
    if isinstance(ty, EitherT):
        return _inhabited(ty.left, env) or _inhabited(ty.right, env)
    return True


def _terms_of(ty, env, depth, effects=False):
    """Strategy for closed terms of the given (inhabited) type under `env`.
    With `effects`, terms may also call `io`, apply functions, and bind,
    split, pair, project or inject effectful parts; binders may shadow."""
    opts = []
    names = [n for n, t in env.items() if t == ty]
    if names:
        opts.append(st.sampled_from(names).map(Var))
    if isinstance(ty, IntT):
        opts.append(st.integers(-99, 99).map(IntLit))
    elif isinstance(ty, BytesT):
        paths = st.sampled_from([b"/a", b"/b"]) if effects else st.nothing()
        opts.append(st.one_of(paths, st.binary(max_size=6)).map(BytesLit))
    elif isinstance(ty, UnitT):
        opts.append(st.just(UnitLit()))
    elif isinstance(ty, PairT):
        opts.append(
            st.tuples(
                _terms_of(ty.fst, env, depth, effects), _terms_of(ty.snd, env, depth, effects)
            ).map(lambda p: PairE(*p))
        )
    elif isinstance(ty, EitherT):
        for side, part in (("inl", ty.left), ("inr", ty.right)):
            if _inhabited(part, env):
                opts.append(_terms_of(part, env, depth, effects).map(lambda e, s=side: Inject(s, e)))
    elif isinstance(ty, ArrowT):
        fresh = next(n for n in _NAMES if n not in env)
        opts.append(
            _terms_of(ty.cod, {**env, fresh: ty.doms[0]}, depth, effects).map(
                lambda body: Lam(fresh, ty.doms[0], body)
            )
        )
        if effects and ty in _PRIM_OF:
            opts.append(st.sampled_from(_PRIM_OF[ty]).map(Var))
    if depth > 0 and not isinstance(ty, ArrowT):
        bindable = st.sampled_from([IntT(), BytesT()])

        def with_let(bound_ty):
            fresh = next(n for n in _NAMES if n not in env)
            return st.tuples(
                _terms_of(bound_ty, env, 0),
                _terms_of(ty, {**env, fresh: bound_ty}, depth - 1, effects),
            ).map(lambda p: Let(fresh, p[0], p[1]))

        opts.append(bindable.flatmap(with_let))
    if effects:
        opts += [
            _terms_of(arg_ty, env, depth, True).map(lambda a, op=op: IoCall(op, a))
            for op, arg_ty in _IO_FORMS.get(ty, ())
            if _inhabited(arg_ty, env)
        ]
    if effects and depth > 0:
        opts += _effectful(ty, env, depth - 1)
    return st.one_of(opts) if opts else st.just(UnitLit())


def _effectful(ty, env, depth):
    """The effectful forms of `_terms_of(ty, env, depth + 1, effects=True)`."""
    sub = lambda t, e=env: _terms_of(t, e, depth, True)

    def inferred(t):  # where the checker infers a type, annotate terms it cannot
        def annotate(e):
            try:
                _infer(e, {**PRIM_TYPES, **env}, "term")
                return e
            except TypecheckError:
                return App(Lam("x", t, Var("x")), e)

        return sub(t).map(annotate)

    # a binder is fresh or shadows a variable; fd and err ones stay visible
    binders = st.sampled_from([n for n in _NAMES if env.get(n) not in (FdT(), ErrT())][:4])

    def let(bound_ty, var):
        return st.tuples(inferred(bound_ty), sub(ty, {**env, var: bound_ty})).map(lambda p: Let(var, *p))

    def app(dom):
        return st.tuples(inferred(ArrowT((dom,), ty)), sub(dom)).map(lambda p: App(*p))

    def case(split, lv, rv):
        left, right = sub(ty, {**env, lv: split.left}), sub(ty, {**env, rv: split.right})
        return st.tuples(inferred(split), left, right).map(lambda p: Case(p[0], lv, p[1], rv, p[2]))

    def proj(other):
        return st.one_of(
            inferred(PairT(ty, other)).map(lambda e: Proj("fst", e)),
            inferred(PairT(other, ty)).map(lambda e: Proj("snd", e)),
        )

    return [
        st.tuples(st.sampled_from(_BOUND), binders).flatmap(lambda p: let(*p)),
        st.sampled_from(_BOUND).flatmap(app),
        st.tuples(st.sampled_from(_SPLIT), binders, binders).flatmap(lambda p: case(*p)),
        st.sampled_from([IntT(), BytesT()]).flatmap(proj),
    ]


typed_terms = _types(1).flatmap(lambda ty: st.tuples(st.just(ty), _terms_of(ty, {}, 1)))
# with `case`, application, injection and `io` among the forms
typed_io_terms = _types(1).flatmap(lambda ty: st.tuples(st.just(ty), _terms_of(ty, {}, 2, effects=True)))


@given(typed_io_terms)
@settings(max_examples=400, deadline=None)
def test_parse_pretty_round_trip(pair):
    _ty, term = pair
    assert parse(pretty(term)) == term


@given(typed_terms)
@settings(max_examples=120, deadline=None)
def test_generated_terms_typecheck(pair):
    ty, term = pair
    typecheck(term, ty)


def _swap_literal(term: CtxExpr):
    """Replace the first type-forced literal with one of another type.

    Let-bound positions are skipped: the binder's type just follows the
    literal, so swapping there can leave the term well typed.
    """
    if isinstance(term, IntLit):
        return BytesLit(b"oops")
    if isinstance(term, BytesLit):
        return IntLit(0)
    if isinstance(term, UnitLit):
        return IntLit(0)
    for field in getattr(term, "__dataclass_fields__", {}):
        if isinstance(term, Let) and field == "bound":
            continue
        child = getattr(term, field)
        if isinstance(child, CtxExpr):
            swapped = _swap_literal(child)
            if swapped is not None:
                return type(term)(**{**{f: getattr(term, f) for f in term.__dataclass_fields__}, field: swapped})
    return None


@given(typed_terms)
@settings(max_examples=120, deadline=None)
def test_literal_mutation_is_rejected(pair):
    ty, term = pair
    mutated = _swap_literal(term)
    assume(mutated is not None)
    with pytest.raises(TypecheckError):
        typecheck(mutated, ty)


# -- translation ----------------------------------------------------------------


def test_translate_base_value():
    ctx = translate(parse("3"), IntT())
    assert ctx(None) == DInt(3)


def test_translate_pure_function_value():
    td = ArrowT((IntT(),), EitherT(IntT(), ErrT()))
    ctx = translate(parse("\\x:int. inl x"), td)
    value = ctx(None)
    assert isinstance(value, DClosure)
    assert not is_err(import_value(td, Leaf(), value))


def test_translate_rejects_toplevel_effects():
    from seclink.ctxdsl import TranslateError
    from seclink.interp import interpret
    from seclink.monitor import enforce_policy, stateless_mstate
    from seclink.worlds import make_world

    td = EitherT(FdT(), ErrT())
    lib = enforce_policy(lambda s, op, a: False, stateless_mstate())
    with pytest.raises(TranslateError):
        translate(parse("io Socket ()"), td)(lib)
    with pytest.raises(TranslateError):
        translate(parse("let f = io Socket () in 3"), IntT())(lib)
    # a pure top-level binding is forced away, leaving the function value
    fn = translate(parse("let k = 3 in \\x:int. inl k"), ArrowT((IntT(),), EitherT(IntT(), ErrT())))(lib)
    assert isinstance(fn, DClosure)
    assert interpret(fn.fn(DInt(1)), make_world(), stateless_mstate()).result == DLeft(DInt(3))


# -- boundary adapters: n-ary arrows as the language's curried ones -------------

_INT_RESULT = EitherT(IntT(), ErrT())
_BINARY = ArrowT((IntT(), IntT()), _INT_RESULT)
_ADD = DClosure(lambda a, b: ret(DLeft(DInt(a.n + b.n))))  # a trusted binary function


def _run(comp, lib=None):
    return interpret(comp, make_world(), lib.desc if lib else stateless_mstate())


def test_context_applies_a_binary_trusted_function():
    ctx = load("\\f:(int -> int -> either int err). f 1 2", ArrowT((_BINARY,), _INT_RESULT))(None)
    assert _run(ctx.fn(_ADD)).result == DLeft(DInt(3))


def test_binary_function_returned_in_a_pair():
    pair = load("(\\x:int. \\y:int. inl y, 7)", PairT(_BINARY, IntT()))(None)
    assert isinstance(pair.fst, DClosure) and pair.snd == DInt(7)
    assert _run(pair.fst.fn(DInt(3), DInt(4))).result == DLeft(DInt(4))


def test_binary_function_returned_in_a_sum():
    value = load("inl (\\x:int. \\y:int. inl y)", EitherT(_BINARY, IntT()))(None)
    assert isinstance(value, DLeft)
    assert _run(value.value.fn(DInt(1), DInt(5))).result == DLeft(DInt(5))


def test_binary_trusted_function_inside_a_pair_or_sum_argument():
    in_pair = "\\p:(int -> int -> either int err) * int. fst p (snd p) 2"
    ctx = load(in_pair, ArrowT((PairT(_BINARY, IntT()),), _INT_RESULT))(None)
    assert _run(ctx.fn(DPair(_ADD, DInt(5)))).result == DLeft(DInt(7))
    in_sum = "\\s:either (int -> int -> either int err) int. case s of inl f => f 1 2 | inr n => inl n"
    ctx = load(in_sum, ArrowT((EitherT(_BINARY, IntT()),), _INT_RESULT))(None)
    assert _run(ctx.fn(DLeft(_ADD))).result == DLeft(DInt(3))
    assert _run(ctx.fn(DRight(DInt(9)))).result == DLeft(DInt(9))
    assert load("inr 9", EitherT(_BINARY, IntT()))(None) == DRight(DInt(9))


def test_effect_between_curried_arguments():
    lib = enforce_policy(lambda s, op, a: True, stateless_mstate())
    fn = load("\\x:int. let s = io Socket () in \\y:int. inl y", _BINARY)(lib)
    run = _run(fn.fn(DInt(1), DInt(2)), lib)
    assert run.result == DLeft(DInt(2))
    assert [e.render() for e in run.local] == ["Ctx Socket () -> Ok(3)"]


def test_curried_view_of_handler_type():
    assert HANDLER_T == ArrowT((FdT(),), ArrowT((BytesT(),), ArrowT((SEND_T,), EitherT(UnitT(), ErrT()))))


# -- staging against the reference evaluator ------------------------------------


def _value_of(comp):
    """The value of a computation that reaches no operation."""
    try:
        next(evaluate(comp))
    except StopIteration as done:
        return done.value
    raise AssertionError("the computation reached an operation")


def _sample(ty):
    """One value of each type, to apply functions to."""
    if isinstance(ty, PairT):
        return DPair(_sample(ty.fst), _sample(ty.snd))
    if isinstance(ty, EitherT):
        return DLeft(_sample(ty.left))
    if isinstance(ty, ArrowT):
        return DClosure(lambda _: ret(_sample(ty.cod)))
    return {IntT: DInt(7), BytesT: DBytes(b"ab"), UnitT: DUnit()}[type(ty)]


def _same(ty, a, b) -> bool:
    """Equal values of type `ty`; functions are compared on a sample argument."""
    if isinstance(ty, ArrowT):
        arg = _sample(ty.doms[0])
        return _same(ty.cod, _value_of(a.fn(arg)), _value_of(b.fn(arg)))
    if isinstance(ty, PairT):
        return _same(ty.fst, a.fst, b.fst) and _same(ty.snd, a.snd, b.snd)
    if isinstance(ty, EitherT):
        side = ty.left if isinstance(a, DLeft) else ty.right
        return type(a) is type(b) and _same(side, a.value, b.value)
    return a == b


@given(typed_terms)
@settings(max_examples=200, deadline=None)
def test_staged_value_equals_reference(pair):
    ty, term = pair
    pure, code, post = _stage(term)
    assert pure and not post  # these terms have no `io` and no application
    assert _same(ty, code(None, None), _value_of(oracles._eval(term, _prim_closures(), None)))


_DATA_TYPES = (
    IntT(),
    BytesT(),
    *_IO_FORMS,
    PairT(_io_result(BytesT()), IntT()),
    EitherT(IntT(), BytesT()),
)
effectful_terms = st.sampled_from(_DATA_TYPES).flatmap(
    lambda ty: st.tuples(st.just(ty), _terms_of(ty, {"u": UnitT()}, 2, effects=True))
)


@given(effectful_terms)
@settings(max_examples=150, deadline=None)
def test_staged_effects_equal_reference(pair):
    ty, body = pair
    term, ctype = Lam("u", UnitT(), body), ArrowT((UnitT(),), ty)
    lib = enforce_policy(lambda s, op, arg: True, stateless_mstate())
    world = make_world(files={"/a": b"A", "/b": b"BB"})

    def run(translator):
        done = interpret(translator(term, ctype)(lib).fn(DUnit()), world, lib.desc)
        return done.local, done.result

    assert run(translate) == run(oracles.reference_translate)


def _webserver_run(bundle, factory, world):
    prog = bundle.prog_for_budget(world.max_iterations)
    run = interpret(link_whole(bundle, factory, prog=prog), world, bundle.interface.mstate)
    return run.local, run.result


def _generated_handlers(seed: int) -> dict[str, str]:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import GENERATED, generated_dsl_handler
    finally:
        sys.path.pop(0)
    rng = random.Random(seed)
    out = {}
    for (low, high), rereads in GENERATED:
        depth = rng.randint(low, high)
        out[f"gen-d{depth}-r{rereads}"] = generated_dsl_handler(rereads, depth)
    return out


def test_staged_handlers_trace_equal_to_reference():
    bundle = webserver_bundle()
    ctype = compile_interface(bundle.interface).ctype
    sources = {**bundle.dsl_sources, **_generated_handlers(5)}
    req = b"GET /index.html HTTP/1.1\r\n\r\n"
    worlds = bundle.worlds + [
        make_world(
            files={"/temp/index.html": b"<h1>hi</h1>"},
            requests=[(i, req if i % 3 else b"junk") for i in range(12)],
            max_iterations=12,
        )
    ]
    compared = 0
    for name, source in sources.items():
        staged = translate(parse(source), ctype)
        reference = oracles.reference_translate(parse(source), ctype)
        for world in worlds:
            got = _webserver_run(bundle, staged, world)
            want = _webserver_run(bundle, reference, world)
            assert got == want, (name, world)
            compared += len(got[0])
    assert compared > 500


UNIT_TO = lambda cod: ArrowT((UnitT(),), cod)
OPEN_RESULT = EitherT(FdT(), ErrT())
# Terms whose two effectful parts each open a file: the events must come in
# source order, exactly as the reference evaluator orders them.
EFFECT_ORDER = {
    "app": (
        '\\u:unit. (case io Openfile "/a" of inl f => (\\x:bytes. x) | inr e => (\\x:bytes. "e"))'
        ' (case io Openfile "/b" of inl g => "ok" | inr e => "err")',
        UNIT_TO(BytesT()),
        ["/a", "/b"],
    ),
    "pair": (
        '\\u:unit. (io Openfile "/a", io Openfile "/b")',
        UNIT_TO(PairT(OPEN_RESULT, OPEN_RESULT)),
        ["/a", "/b"],
    ),
    "let": (
        '\\u:unit. let x = io Openfile "/a" in io Openfile "/b"',
        UNIT_TO(OPEN_RESULT),
        ["/a", "/b"],
    ),
    "case": (
        '\\u:unit. case io Openfile "/a" of inl f => io Openfile "/b" | inr e => io Openfile "/c"',
        UNIT_TO(OPEN_RESULT),
        ["/a", "/b"],
    ),
    "pure-fn-effectful-arg": (
        '\\u:unit. let k = (\\x:either fd err. x) in k (io Openfile "/b")',
        UNIT_TO(OPEN_RESULT),
        ["/b"],
    ),
}


@pytest.mark.parametrize("name", sorted(EFFECT_ORDER))
def test_effect_order_matches_reference(name):
    source, ctype, paths = EFFECT_ORDER[name]
    lib = enforce_policy(lambda s, op, arg: True, stateless_mstate())
    world = make_world(files={"/a": b"A", "/b": b"B", "/c": b"C"})

    def run(translator):
        fn = translator(parse(source), ctype)(lib)
        done = interpret(fn.fn(DUnit()), world, lib.desc)
        return done.local, done.result

    (local, result), want = run(translate), run(oracles.reference_translate)
    assert [e.arg[0] for e in local] == paths
    assert (local, result) == want


def test_trees_stay_reinterpretable():
    # one built tree run on two worlds: each run returns a closure over the
    # bytes it read, which the other run must not overwrite
    source = (
        '\\u:unit. case io Openfile "/a" of inl f => (case io Read f of '
        "inl d => inl (\\x:unit. d) | inr e => inr e) | inr e => inr e"
    )
    ctype = UNIT_TO(EitherT(UNIT_TO(BytesT()), ErrT()))
    lib = enforce_policy(lambda s, op, arg: True, stateless_mstate())
    fn = translate(parse(source), ctype)(lib)
    comp = fn.fn(DUnit())
    worlds = [make_world(files={"/a": b"first"}), make_world(files={"/a": b"second"})]
    runs = [interpret(comp, world, lib.desc) for world in worlds]
    read = lambda run: _value_of(run.result.value.fn(DUnit()))
    for run, world in zip(runs, worlds):
        fresh = interpret(fn.fn(DUnit()), world, lib.desc)
        assert run.local == fresh.local and read(run) == read(fresh)
    assert [read(run) for run in runs] == [DBytes(b"first"), DBytes(b"second")]


def test_deep_pure_terms_run_as_deep_as_they_parse():
    # a pure `let` body or `case` branch runs in the frame of its binder, so
    # staged code nests no deeper than the parser and type checker do
    n = 500
    lets = "\\u:unit. " + "".join(f"let a{i} = {i} in " for i in range(n)) + f"a{n - 1}"
    fn = translate(parse(lets), ArrowT((UnitT(),), IntT()))(None)
    assert _value_of(fn.fn(DUnit())) == DInt(n - 1)
    cases = "\\e:either int int. " + "case e of inl x => " * n + "x" + " | inr y => y" * n
    fn = translate(parse(cases), ArrowT((EitherT(IntT(), IntT()),), IntT()))(None)
    assert _value_of(fn.fn(DLeft(DInt(4)))) == DInt(4)
    # `load` turns running out of stack while parsing, checking or staging
    # into a ParseError, and the deepest chain it accepts still runs
    chain = lambda n: "\\u:unit. " + "".join(f"let a{i} = {i} in " for i in range(n)) + f"a{n - 1}"
    td, accepted, rejected = ArrowT((UnitT(),), IntT()), n, 4 * sys.getrecursionlimit()
    with pytest.raises(ParseError, match="nested too deeply"):
        load(chain(rejected), td)
    while rejected - accepted > 1:
        mid = (accepted + rejected) // 2
        try:
            load(chain(mid), td)
            accepted = mid
        except ParseError:
            rejected = mid
    fn = load(chain(accepted), td)(None)
    assert interpret(fn.fn(DUnit()), make_world(), stateless_mstate()).result == DInt(accepted - 1)


def test_typecheck_is_linear_in_nested_binders():
    # one environment cell and one path cell per binder; the path is joined
    # only when an error is raised
    def best_of_5(k):
        term = parse("\\u:unit. " + "".join(f"let a{i} = {i} in " for i in range(k)) + f"a{k - 1}")
        td, times = ArrowT((UnitT(),), IntT()), []
        for _ in range(5):
            start = time.perf_counter()
            typecheck(term, td)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_of_5(800) < 8 * best_of_5(200)
