"""Deeply embedded context language: a simply-typed lambda calculus.

Untrusted plugins can be written as source text in a small typed language
instead of as host closures.  The language has base types (unit, int,
bytes, fd, err), pairs, sums, unary functions, a handful of pure byte
helpers, and one effect form `io OP e` that routes through the secure IO
library supplied at link time.  There is no recursion, so every typed term
terminates, and a term reaches IO only through that library.

Its types are the boundary's spec-free `contracts.TypeDesc`s with unary
arrows.  `parse` builds the AST.  `translate` checks it against the boundary
type it must inhabit and stages it, compiling it to closures, in one
bidirectional walk (`typecheck` is that walk, keeping only its verdict), and
produces a target context whose runtime behaviour matches a hand-written one
event for event.  `IO_SIG` declares each op in one row, which the parser and
the walk read.  The walk resolves each variable to its index in an immutable
cons-list environment as it passes the binders, and fuses the pure steps
that follow an effect into one loop, so the cost of a read does not grow
with the `let`s around it.  Where the boundary type has functions of two or
more arguments, `translate` also stages, once per type, the adapter that
uncurries the context's value for them, so a link walks no type.

Concrete syntax::

    \\x:T. e                     abstraction        T ::= unit | int | bytes
    e1 e2                        application             | fd | err | T * T
    (e1, e2)    fst e    snd e   pairs                   | either T T | T -> T
    inl e | inr e                sum injections
    case e of inl x => e1 | inr y => e2
    let x = e1 in e2
    io Openfile e                secure IO call
    123  "bytes\\r\\n"  ()        literals
    concat, request_path, temp_path, http_ok   pure helpers
"""

from __future__ import annotations

import re

from . import httputil
from .contracts import (
    ArrowT,
    BytesT,
    DBytes,
    DClosure,
    DErr,
    DFd,
    DInt,
    DLeft,
    DPair,
    DRight,
    DUnit,
    DynValue,
    EitherT,
    ErrT,
    FdT,
    IntT,
    PairT,
    TypeDesc,
    UnitT,
    components,
)
from .effects import Bind, IoOp, Ret, evaluate, is_err, record, ret
from .monitor import SecureIoLib

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def curried_view(td: TypeDesc) -> TypeDesc:
    """The boundary type as this language sees it: multi-argument
    functions become chains of unary ones, and specs are dropped.  A
    function of no arguments has no such view: the language has no thunks."""
    if isinstance(td, ArrowT):
        if not td.doms:
            raise TypecheckError(f"nullary arrow to {tystr(td.cod)}: the language has no thunks")
        out = curried_view(td.cod)
        for dom in reversed(td.doms):
            out = ArrowT((curried_view(dom),), out)
        return out
    if isinstance(td, (PairT, EitherT)):
        return type(td)(*map(curried_view, components(td)))
    return td


def tystr(td: TypeDesc) -> str:
    """A type in the language's syntax; an n-ary arrow prints as its curried view."""
    if isinstance(td, ArrowT):
        return " -> ".join([*map(_atomstr, td.doms), tystr(td.cod)])
    if isinstance(td, PairT):
        return f"{_atomstr(td.fst)} * {_atomstr(td.snd)}"
    if isinstance(td, EitherT):
        return f"either {_atomstr(td.left)} {_atomstr(td.right)}"
    return _NAME_OF_TYPE[td]


def _atomstr(td: TypeDesc) -> str:
    return f"({tystr(td)})" if isinstance(td, (PairT, EitherT, ArrowT)) else tystr(td)


# One row per op a context may call: the argument type, the success-result
# type (results come wrapped in `either _ err`), the library argument of a
# language value, and the language value of a successful result.
IO_SIG: dict[IoOp, tuple] = {
    IoOp.OPENFILE: (BytesT(), FdT(), lambda dv: (dv.data.decode("latin-1"), (), 0), DFd),
    IoOp.READ: (FdT(), BytesT(), lambda dv: dv.fd, DBytes),
    IoOp.WRITE: (PairT(FdT(), BytesT()), UnitT(), lambda dv: (dv.fst.fd, dv.snd.data), lambda _: DUnit()),
    IoOp.CLOSE: (FdT(), UnitT(), lambda dv: dv.fd, lambda _: DUnit()),
    IoOp.SOCKET: (UnitT(), FdT(), lambda dv: (), DFd),
}

PRIM_TYPES: dict[str, TypeDesc] = {
    "concat": ArrowT((BytesT(),), ArrowT((BytesT(),), BytesT())),
    "request_path": ArrowT((BytesT(),), BytesT()),
    "temp_path": ArrowT((BytesT(),), BytesT()),
    "http_ok": ArrowT((BytesT(),), BytesT()),
}

# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------


class CtxExpr:
    __slots__ = ()


@record
class Var(CtxExpr):
    name: str


@record
class Lam(CtxExpr):
    var: str
    ty: TypeDesc
    body: CtxExpr


@record
class App(CtxExpr):
    fn: CtxExpr
    arg: CtxExpr


@record
class IntLit(CtxExpr):
    value: int


@record
class BytesLit(CtxExpr):
    value: bytes


@record
class UnitLit(CtxExpr):
    pass


@record
class PairE(CtxExpr):
    fst: CtxExpr
    snd: CtxExpr


@record
class Proj(CtxExpr):
    side: str  # "fst" | "snd"
    expr: CtxExpr


@record
class Inject(CtxExpr):
    side: str  # "inl" | "inr"
    expr: CtxExpr


@record
class Case(CtxExpr):
    scrutinee: CtxExpr
    left_var: str
    left_body: CtxExpr
    right_var: str
    right_body: CtxExpr


@record
class Let(CtxExpr):
    var: str
    bound: CtxExpr
    body: CtxExpr


@record
class IoCall(CtxExpr):
    op: IoOp
    arg: CtxExpr


class ParseError(ValueError):
    def __init__(self, pos: int, message: str):
        super().__init__(f"at offset {pos}: {message}")
        self.pos = pos


class TypecheckError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>-?\d+)
  | (?P<str>"(?:\\.|[^"\\])*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>->|=>|[\\:.(),|=*])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"let", "in", "case", "of", "inl", "inr", "io", "fst", "snd"}
_TYPE_NAMES = {"unit": UnitT(), "int": IntT(), "bytes": BytesT(), "fd": FdT(), "err": ErrT()}
_NAME_OF_TYPE = {t: name for name, t in _TYPE_NAMES.items()}
_ESCAPES = {"n": b"\n", "r": b"\r", "t": b"\t", '"': b'"', "\\": b"\\"}


@record
class _Token:
    kind: str  # "int" | "str" | "ident" | "sym" | "eof"
    text: str
    pos: int


def _lex(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(pos, f"unexpected character {text[pos]!r}")
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _unescape(raw: str, pos: int) -> bytes:
    out = bytearray()
    body = raw[1:-1]
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            i += 1
            esc = body[i]
            if esc not in _ESCAPES:
                raise ParseError(pos, f"unknown escape \\{esc}")
            out += _ESCAPES[esc]
        elif ord(c) > 0xFF:
            raise ParseError(pos, f"{c!r} is not a byte; literals hold latin-1 characters")
        else:
            out.append(ord(c))
        i += 1
    return bytes(out)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(tok.pos, f"expected {want!r}, found {tok.text or 'end of input'!r}")
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    # -- types --------------------------------------------------------

    def type_(self) -> TypeDesc:
        left = self.type_prod()
        if self.at_sym("->"):
            self.next()
            return ArrowT((left,), self.type_())
        return left

    def type_prod(self) -> TypeDesc:
        left = self.type_atom()
        while self.at_sym("*"):
            self.next()
            left = PairT(left, self.type_atom())
        return left

    def type_atom(self) -> TypeDesc:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            inner = self.type_()
            self.expect("sym", ")")
            return inner
        if tok.kind == "ident":
            self.next()
            if tok.text in _TYPE_NAMES:
                return _TYPE_NAMES[tok.text]
            if tok.text == "either":
                return EitherT(self.type_atom(), self.type_atom())
        raise ParseError(tok.pos, f"expected a type, found {tok.text!r}")

    # -- expressions --------------------------------------------------

    def expr(self) -> CtxExpr:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "\\":
            self.next()
            var = self.expect("ident").text
            self.expect("sym", ":")
            ty = self.type_()
            self.expect("sym", ".")
            return Lam(var, ty, self.expr())
        if self.at_kw("let"):
            self.next()
            var = self.expect("ident").text
            self.expect("sym", "=")
            bound = self.expr()
            self.expect("ident", "in")
            return Let(var, bound, self.expr())
        if self.at_kw("case"):
            self.next()
            scrutinee = self.expr()
            self.expect("ident", "of")
            self.expect("ident", "inl")
            lv = self.expect("ident").text
            self.expect("sym", "=>")
            lb = self.expr()
            self.expect("sym", "|")
            self.expect("ident", "inr")
            rv = self.expect("ident").text
            self.expect("sym", "=>")
            rb = self.expr()
            return Case(scrutinee, lv, lb, rv, rb)
        return self.application()

    def application(self) -> CtxExpr:
        expr = self.unit_expr()
        while self._starts_unit():
            expr = App(expr, self.unit_expr())
        return expr

    def _starts_unit(self) -> bool:
        tok = self.peek()
        if tok.kind in ("int", "str"):
            return True
        if tok.kind == "sym" and tok.text == "(":
            return True
        if tok.kind == "ident" and tok.text not in ("in", "of"):
            return True
        return False

    def unit_expr(self) -> CtxExpr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return IntLit(int(tok.text))
        if tok.kind == "str":
            self.next()
            return BytesLit(_unescape(tok.text, tok.pos))
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            if self.at_sym(")"):
                self.next()
                return UnitLit()
            first = self.expr()
            if self.at_sym(","):
                self.next()
                second = self.expr()
                self.expect("sym", ")")
                return PairE(first, second)
            self.expect("sym", ")")
            return first
        if tok.kind == "ident":
            if tok.text in ("fst", "snd"):
                self.next()
                return Proj(tok.text, self.unit_expr())
            if tok.text in ("inl", "inr"):
                self.next()
                return Inject(tok.text, self.unit_expr())
            if tok.text == "io":
                self.next()
                op_tok = self.expect("ident")
                try:
                    op = IoOp(op_tok.text)
                except ValueError:
                    raise ParseError(op_tok.pos, f"unknown IO operation {op_tok.text!r}") from None
                if op not in IO_SIG:
                    raise ParseError(op_tok.pos, f"operation {op.value} not callable from contexts")
                return IoCall(op, self.unit_expr())
            if tok.text in _KEYWORDS:
                raise ParseError(tok.pos, f"unexpected keyword {tok.text!r}")
            self.next()
            return Var(tok.text)
        raise ParseError(tok.pos, f"expected an expression, found {tok.text or 'end of input'!r}")


def parse(text: str) -> CtxExpr:
    parser = _Parser(_lex(text))
    expr = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(tok.pos, f"trailing input starting at {tok.text!r}")
    return expr


# ---------------------------------------------------------------------------
# Typing and staging
# ---------------------------------------------------------------------------


class TranslateError(ValueError):
    pass


def _prim_closures() -> dict[str, DynValue]:
    def unary(fn):
        return DClosure(lambda a: ret(DBytes(fn(a.data))))

    concat = DClosure(lambda a: ret(DClosure(lambda b: ret(DBytes(a.data + b.data)))))
    return {
        "concat": concat,
        "request_path": unary(httputil.request_path),
        "temp_path": unary(httputil.temp_path),
        "http_ok": unary(httputil.http_ok),
    }


_PRIMS = _prim_closures()  # stateless closures, shared by every staged term


def typecheck(expr: CtxExpr, expected: TypeDesc) -> None:
    """Check a closed term against the type it must inhabit, as this
    language sees it (`curried_view`)."""
    _elab(expr, PRIM_TYPES, "term", curried_view(expected))


def _fail(path, message: str):
    segments = []
    while type(path) is tuple:
        segment, path = path
        segments.append(segment)
    raise TypecheckError(f"{path}{''.join(reversed(segments))}: {message}")


_LITERALS = {IntLit: (IntT(), DInt), BytesLit: (BytesT(), DBytes), UnitLit: (UnitT(), None)}


def _run(post, v, env, lib):
    for step in post:
        v = step(v, env, lib)
    return v


def _then(staged, k, k_pure: bool):
    """Stage "evaluate `staged`, then `k(value, env, lib)`", where `k` gives a
    value if `k_pure` and a computation otherwise.  A pure `k` after an
    effectful term joins its post steps; only an effectful one costs a `Bind`."""
    pure, code, post = staged
    if pure:
        return k_pure, lambda env, lib: k(code(env, lib), env, lib), ()
    if k_pure:
        return False, code, post + (k,)
    return False, lambda env, lib: Bind(code(env, lib), lambda v: k(_run(post, v, env, lib), env, lib)), ()


def _comp(staged):
    """The code of a staged term as code that builds its whole computation,
    post steps included: what a binder runs under its extended environment."""
    pure, code, post = staged
    if pure:
        return lambda env, lib: Ret(code(env, lib))
    if post:
        return lambda env, lib: Bind(code(env, lib), lambda v: Ret(_run(post, v, env, lib)))
    return code


def _read(i: int):
    """Code reading the value `i` cells into the environment."""
    if i == 0:
        return lambda env, lib: env[0]

    def walk(env, lib):
        for _ in range(i):
            env = env[1]
        return env[0]

    return walk


def _elab(expr: CtxExpr, scope, path, expected: TypeDesc | None = None):
    """Type `expr`, checked against `expected` if given, and stage it, in one
    walk: `(type, (pure, code, post))`.

    Checking and synthesis are two modes of one judgement.  A function, an
    injection, or a pair against a pair type is checked part by part; `let`
    and `case` pass the expectation to their bodies; any other form is
    compared with it at the end.  A binder or a step down costs one immutable
    cell, so the walk is linear in nested binders: `scope` is cells
    `(name, type, rest)` ending in a dict of the outermost names (the
    helpers), and `path` cells `(".segment", parent)` ending in the root's
    name, joined only into an error's text.

    Staged code runs on environments of cells `(value, rest)`, one for each
    cell of `scope`, so a variable is read at the index its walk counted and
    a helper is a constant.  A pure term (no `io`, no application) has
    `code(env, lib)` return its value and no `post`; any other has it return
    a computation, with its effects in source order, whose value the pure
    steps `post` finish, each `step(v, env, lib)`."""
    if isinstance(expr, Lam):
        if expected is not None:
            if not isinstance(expected, ArrowT):
                _fail(path, f"function found where {tystr(expected)} expected")
            if expr.ty != expected.doms[0]:
                _fail(path, f"argument annotated {tystr(expr.ty)}, needs {tystr(expected.doms[0])}")
        cod = None if expected is None else expected.cod
        cod, staged = _elab(expr.body, (expr.var, expr.ty, scope), (".body", path), cod)
        body = _comp(staged)
        return ArrowT((expr.ty,), cod), (True, lambda env, lib: DClosure(lambda dv: body((dv, env), lib)), ())
    if isinstance(expr, Inject):
        if expected is None:
            _fail(path, "cannot infer the type of a bare sum injection; add context")
        if not isinstance(expected, EitherT):
            _fail(path, f"sum injection found where {tystr(expected)} expected")
        side, wrap = (expected.left, DLeft) if expr.side == "inl" else (expected.right, DRight)
        staged = _elab(expr.expr, scope, ("." + expr.side, path), side)[1]
        return expected, _then(staged, lambda v, env, lib: wrap(v), True)
    if isinstance(expr, Let):
        bound_t, bound = _elab(expr.bound, scope, (".bound", path))
        body_t, body = _elab(expr.body, (expr.var, bound_t, scope), (".body", path), expected)
        body_pure, bc = body[0], body[1] if body[0] else _comp(body)
        if bound[0]:  # one frame per nested binding, no deeper than the parser goes
            return body_t, (body_pure, lambda env, lib: bc((bound[1](env, lib), env), lib), ())
        return body_t, _then(bound, lambda v, env, lib: bc((v, env), lib), body_pure)
    if isinstance(expr, Case):
        split, scrutinee = _elab(expr.scrutinee, scope, (".scrutinee", path))
        if not isinstance(split, EitherT):
            _fail(path, f"case scrutinee has type {tystr(split)}, not a sum")
        left_t, left = _elab(expr.left_body, (expr.left_var, split.left, scope), (".inl", path), expected)
        right_scope = (expr.right_var, split.right, scope)
        right_t, right = _elab(expr.right_body, right_scope, (".inr", path), expected)
        if left_t != right_t:
            _fail(path, f"branches disagree: {tystr(left_t)} vs {tystr(right_t)}")
        pure = left[0] and right[0]
        lc, rc = (left[1], right[1]) if pure else (_comp(left), _comp(right))
        sp, sc = scrutinee[0], scrutinee[1]

        def case(env, lib, v=None):  # reads a pure scrutinee itself: one frame per nested case
            if sp:
                v = sc(env, lib)
            return lc((v.value, env), lib) if isinstance(v, DLeft) else rc((v.value, env), lib)

        staged = (pure, case, ()) if sp else _then(scrutinee, lambda v, env, lib: case(env, lib, v), pure)
        return left_t, staged
    if type(expr) in _LITERALS:
        actual, kind = _LITERALS[type(expr)]
        value = kind(expr.value) if kind else DUnit()
        staged = True, lambda env, lib: value, ()
    elif isinstance(expr, Var):
        cell, i = scope, 0
        while type(cell) is tuple and cell[0] != expr.name:
            cell, i = cell[2], i + 1
        if type(cell) is tuple:
            actual, staged = cell[1], (True, _read(i), ())
        elif expr.name in cell:
            prim = _PRIMS[expr.name]
            actual, staged = cell[expr.name], (True, lambda env, lib: prim, ())
        else:
            _fail(path, f"unbound variable {expr.name!r}")
    elif isinstance(expr, App):
        fn_t, fn = _elab(expr.fn, scope, (".fn", path))
        if not isinstance(fn_t, ArrowT):
            _fail(path, f"applied expression has type {tystr(fn_t)}, not a function")
        arg = _elab(expr.arg, scope, (".arg", path), fn_t.doms[0])[1]
        actual = fn_t.cod
        if fn[0]:  # a pure function position reads the same after the argument's effects
            staged = _then(arg, lambda a, env, lib: fn[1](env, lib).fn(a), False)
        elif arg[0]:
            staged = _then(fn, lambda f, env, lib: f.fn(arg[1](env, lib)), False)
        else:
            ac = _comp(arg)
            staged = _then(fn, lambda f, env, lib: Bind(ac(env, lib), f.fn), False)
    elif isinstance(expr, PairE):  # against a pair type, checked part by part
        parts = (expected.fst, expected.snd) if isinstance(expected, PairT) else (None, None)
        fst_t, fst = _elab(expr.fst, scope, (".fst", path), parts[0])
        snd_t, snd = _elab(expr.snd, scope, (".snd", path), parts[1])
        actual = PairT(fst_t, snd_t)
        if snd[0]:
            staged = _then(fst, lambda a, env, lib: DPair(a, snd[1](env, lib)), True)
        elif fst[0]:
            staged = _then(snd, lambda b, env, lib: DPair(fst[1](env, lib), b), True)
        else:
            sc = _comp(snd)
            staged = _then(fst, lambda a, env, lib: Bind(sc(env, lib), lambda b: Ret(DPair(a, b))), False)
    elif isinstance(expr, Proj):
        pair_t, pair = _elab(expr.expr, scope, ("." + expr.side, path))
        if not isinstance(pair_t, PairT):
            _fail(path, f"projection from type {tystr(pair_t)}, not a pair")
        first = expr.side == "fst"
        actual = pair_t.fst if first else pair_t.snd
        staged = _then(pair, lambda p, env, lib: p.fst if first else p.snd, True)
    elif isinstance(expr, IoCall):
        op, (arg_t, ok_t, to_arg, of_ok) = expr.op, IO_SIG[expr.op]
        arg = _elab(expr.arg, scope, (".arg", path), arg_t)[1]
        actual = EitherT(ok_t, ErrT())
        call = lambda dv, env, lib: lib.call(op, to_arg(dv))
        done = lambda r, env, lib: DRight(DErr(r.code, r.why)) if is_err(r) else DLeft(of_ok(r.value))
        staged = False, _then(arg, call, False)[1], (done,)
    else:
        raise TypeError(f"unknown expression {expr!r}")
    if expected is not None and actual != expected:
        _fail(path, f"has type {tystr(actual)}, needs {tystr(expected)}")
    return actual, staged


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------


def _adapter(td: TypeDesc, out: bool):
    """Stage the shaping of a value of boundary type `td`: for the boundary
    if `out` (uncurry the language's functions), for language code if not
    (curry the boundary's).  None where that is the identity: no arrow of two
    or more arguments sits in `td`."""
    if isinstance(td, ArrowT):
        doms, cod, n = [_adapter(dom, not out) for dom in td.doms], _adapter(td.cod, out), len(td.doms)
        if doms == [None] and cod is None:
            return None
        if out:

            def adapt(v):
                def fn(*args, m=Ret(v), i=0):
                    # apply the curried value to `args[i:]`: a step that returns a
                    # `Ret` is consumed in place (bind (return f) k = k f)
                    while i < n:
                        if type(m) is not Ret:
                            return Bind(m, lambda f: fn(*args, m=Ret(f), i=i))
                        m = m.value.fn(args[i] if doms[i] is None else doms[i](args[i]))
                        i += 1
                    return m if cod is None else Bind(m, lambda r: Ret(cod(r)))

                return DClosure(fn)

        else:

            def adapt(v):
                def chain(collected):
                    if len(collected) < n:
                        return Ret(DClosure(lambda arg: chain(collected + [arg])))
                    m = v.fn(*(a if dom is None else dom(a) for a, dom in zip(collected, doms)))
                    return m if cod is None else Bind(m, lambda r: Ret(cod(r)))

                return DClosure(lambda arg: chain([arg]))

        return adapt
    parts = [_adapter(part, out) for part in components(td)]
    if not any(parts):
        return None
    a, b = (part or (lambda v: v) for part in parts)
    if isinstance(td, PairT):
        return lambda v: DPair(a(v.fst), b(v.snd))
    return lambda v: DLeft(a(v.value)) if isinstance(v, DLeft) else DRight(b(v.value))


def translate(expr: CtxExpr, ctype: TypeDesc):
    """Typed source text to target context.  Total on typed terms.  The term
    is typed and staged once, here, and so is the adapter that shapes its
    value to `ctype`; each link only runs the staged code."""
    code = _comp(_elab(expr, PRIM_TYPES, "term", curried_view(ctype))[1])
    adapt = _adapter(ctype, True)

    def target_ctx(lib: SecureIoLib) -> DynValue:
        # A context is a value: it may not reach an operation call.
        try:
            next(evaluate(code(None, lib)))
        except StopIteration as done:
            return done.value if adapt is None else adapt(done.value)
        raise TranslateError("a context must be a value; effects belong inside its functions")

    return target_ctx


def load(text: str, ctype: TypeDesc):
    """`translate` of source text; a term too deep to parse or to type and stage is a `ParseError`."""
    try:
        return translate(parse(text), ctype)
    except RecursionError:
        raise ParseError(0, "term nested too deeply") from None


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------


def pretty(expr: CtxExpr) -> str:
    return _pp(expr, 0)


def _pp(expr: CtxExpr, level: int) -> str:
    # level 0: any form; 1: application operands; 2: atoms only
    if isinstance(expr, Lam):
        return _wrap(f"\\{expr.var}:{tystr(expr.ty)}. {_pp(expr.body, 0)}", level > 0)
    if isinstance(expr, Let):
        return _wrap(f"let {expr.var} = {_pp(expr.bound, 0)} in {_pp(expr.body, 0)}", level > 0)
    if isinstance(expr, Case):
        return _wrap(
            f"case {_pp(expr.scrutinee, 0)} of inl {expr.left_var} => {_pp(expr.left_body, 0)}"
            f" | inr {expr.right_var} => {_pp(expr.right_body, 0)}",
            level > 0,
        )
    if isinstance(expr, App):
        return _wrap(f"{_pp(expr.fn, 1)} {_pp(expr.arg, 2)}", level > 1)
    if isinstance(expr, (Proj, Inject)):
        return _wrap(f"{expr.side} {_pp(expr.expr, 2)}", level > 1)
    if isinstance(expr, IoCall):
        return _wrap(f"io {expr.op.value} {_pp(expr.arg, 2)}", level > 1)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, BytesLit):
        return '"' + _escape(expr.value) + '"'
    if isinstance(expr, UnitLit):
        return "()"
    if isinstance(expr, PairE):
        return f"({_pp(expr.fst, 0)}, {_pp(expr.snd, 0)})"
    raise TypeError(f"unknown expression {expr!r}")


def _wrap(text: str, needed: bool) -> str:
    return f"({text})" if needed else text


_UNESCAPES = {raw[0]: "\\" + esc for esc, raw in _ESCAPES.items()}


def _escape(data: bytes) -> str:
    return "".join(_UNESCAPES.get(b, chr(b)) for b in data)  # chr(b) is the latin-1 character
