"""Context language: parsing, typing, translation."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seclink.contracts import ArrowT, DClosure, DInt, DLeft, EitherT, ErrT, FdT, IntT, Leaf, import_value
from seclink.ctxdsl import (
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
    TArrow,
    TBytes,
    TEither,
    TErr,
    TFd,
    TInt,
    TPair,
    TUnit,
    TypecheckError,
    UnitLit,
    Var,
    curried_view,
    parse,
    pretty,
    translate,
    typecheck,
)
from seclink.demos import webserver
from seclink.effects import IoOp, is_err

HANDLER_T = curried_view(webserver.HANDLER_TYPE)
SEND_T = TArrow(TBytes(), TEither(TUnit(), TErr()))


# -- parsing -------------------------------------------------------------------


def test_parse_handler_shape():
    expr = parse('\\c:fd. \\r:bytes. \\s:(bytes -> either unit err). inl ()')
    assert expr == Lam(
        "c",
        TFd(),
        Lam("r", TBytes(), Lam("s", SEND_T, Inject("inl", UnitLit()))),
    )


def test_parse_io_call():
    expr = parse("\\u:unit. io Socket ()")
    assert expr == Lam("u", TUnit(), IoCall(IoOp.SOCKET, UnitLit()))


def test_parse_application():
    assert parse("(\\x:int. x) 3") == App(Lam("x", TInt(), Var("x")), IntLit(3))


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
    ],
)
def test_parse_errors_carry_positions(text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert "offset" in str(exc.value)


# -- typing --------------------------------------------------------------------


def test_handler_sources_typecheck():
    from seclink.demos.dsl_handlers import DSL_HANDLER_SOURCES

    for source in DSL_HANDLER_SOURCES.values():
        typecheck(parse(source), HANDLER_T)


def test_typecheck_rejects_wrong_io_arg():
    with pytest.raises(TypecheckError):
        typecheck(parse("\\x:int. io Write x"), TArrow(TInt(), TEither(TUnit(), TErr())))


def test_typecheck_rejects_unbound():
    with pytest.raises(TypecheckError) as exc:
        typecheck(parse("nope"), TInt())
    assert "unbound" in str(exc.value)


def test_typecheck_rejects_bad_annotation():
    with pytest.raises(TypecheckError):
        typecheck(parse("\\x:int. x"), TArrow(TBytes(), TBytes()))


def test_typecheck_branch_disagreement():
    src = "\\e:either int bytes. case e of inl x => inl x | inr y => inr y"
    typecheck(parse(src), TArrow(TEither(TInt(), TBytes()), TEither(TInt(), TBytes())))
    with pytest.raises(TypecheckError):
        typecheck(parse(src), TArrow(TEither(TInt(), TBytes()), TEither(TBytes(), TInt())))


# -- generated terms: round trips, rejection, translation totality --------------

_NAMES = ("a", "b", "c", "f", "g")


def _types(depth):
    if depth == 0:
        return st.sampled_from([TInt(), TBytes(), TUnit()])
    sub = _types(depth - 1)
    return st.one_of(
        sub,
        st.tuples(sub, sub).map(lambda p: TPair(*p)),
        st.tuples(sub, sub).map(lambda p: TEither(*p)),
        st.tuples(sub, sub).map(lambda p: TArrow(*p)),
    )


def _terms_of(ty, env, depth):
    """Strategy for closed terms of the given type under `env`."""
    opts = []
    names = [n for n, t in env.items() if t == ty]
    if names:
        opts.append(st.sampled_from(names).map(Var))
    if isinstance(ty, TInt):
        opts.append(st.integers(-99, 99).map(IntLit))
    elif isinstance(ty, TBytes):
        opts.append(st.binary(max_size=6).map(BytesLit))
    elif isinstance(ty, TUnit):
        opts.append(st.just(UnitLit()))
    elif isinstance(ty, TPair):
        opts.append(
            st.tuples(
                _terms_of(ty.fst, env, depth), _terms_of(ty.snd, env, depth)
            ).map(lambda p: PairE(*p))
        )
    elif isinstance(ty, TEither):
        opts.append(_terms_of(ty.left, env, depth).map(lambda e: Inject("inl", e)))
        opts.append(_terms_of(ty.right, env, depth).map(lambda e: Inject("inr", e)))
    elif isinstance(ty, TArrow):
        fresh = next(n for n in _NAMES if n not in env)
        opts.append(
            _terms_of(ty.cod, {**env, fresh: ty.dom}, depth).map(
                lambda body: Lam(fresh, ty.dom, body)
            )
        )
    if depth > 0 and not isinstance(ty, TArrow):
        bindable = st.sampled_from([TInt(), TBytes()])

        def with_let(bound_ty):
            fresh = next(n for n in _NAMES if n not in env)
            return st.tuples(
                _terms_of(bound_ty, env, 0),
                _terms_of(ty, {**env, fresh: bound_ty}, depth - 1),
            ).map(lambda p: Let(fresh, p[0], p[1]))

        opts.append(bindable.flatmap(with_let))
    return st.one_of(opts) if opts else st.just(UnitLit())


typed_terms = _types(1).flatmap(lambda ty: st.tuples(st.just(ty), _terms_of(ty, {}, 1)))


@given(typed_terms)
@settings(max_examples=120, deadline=None)
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


def test_curried_view_of_handler_type():
    assert HANDLER_T == TArrow(TFd(), TArrow(TBytes(), TArrow(SEND_T, TEither(TUnit(), TErr()))))
