"""Independent oracles the implementation is judged against.

These deliberately avoid the shapes of the shipped code: the response
oracle quantifies over read positions instead of folding an accumulator.
"""

from __future__ import annotations

import functools
import random

from seclink.contracts import (
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
    TypeDesc,
)
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
    Proj,
    TranslateError,
    UnitLit,
    Var,
    _adapter,
    _prim_closures,
    curried_view,
    typecheck,
)
from seclink.contracts import ArrowT, BytesT, EitherT, ErrT, FdT, IntT, PairT, UnitT
from seclink.contracts import _BASE_SHAPES, CheckKind, CheckTree, Node, subtrees
from seclink.effects import Bind, Call, Caller, Comp, Err, ErrCode, Event, IoOp, Ok, Ret, bind, contract_failure
from seclink.effects import evaluate, get_mstate, is_err, is_ok, ret
from seclink.monitor import MStateDesc, SecureIoLib, replay
from seclink.validate import _BYTES, _FDS, _PATHS, _RESULTS


def response_oracle(lt) -> bool:
    """Every successful trusted-side read at position i has a write to the
    same descriptor at some position j > i."""
    events = list(lt)
    for i, e in enumerate(events):
        if e.op is IoOp.READ and e.caller is Caller.PROG and is_ok(e.result):
            fd = e.arg
            if not any(
                later.op is IoOp.WRITE and later.arg[0] == fd for later in events[i + 1 :]
            ):
                return False
    return True


def reference_enforced_locally(policy_spec, h, lt) -> bool:
    """`traces.enforced_locally` as it was: one fresh tuple per event, so a
    fold is quadratic in the trace length."""
    hist = list(h)
    for e in lt:
        if not policy_spec(tuple(hist), e.caller, e.op, e.arg):
            return False
        hist.insert(0, e)
    return True


# ---------------------------------------------------------------------------
# Reference evaluation core: `effects.evaluate` and `@do` before `Do` nodes,
# kept as written.  A `@do` call builds `Bind(Ret(None), …)`, and each step
# of its generator allocates a `Bind` and a `partial` of `_advance`.
# ---------------------------------------------------------------------------


def reference_evaluate(comp: Comp):
    """Run `comp` as a generator: it yields each `Call` node, is sent that
    call's result, and returns the computation's value.  A node that is not
    a computation raises `TypeError`.  It knows no boundary marks, so each
    call it yields is the program's (`None`: no policy decides it).
    """
    frames = []
    cur = comp
    while True:
        if isinstance(cur, Bind):
            frames.append(cur.f)
            cur = cur.m
            continue
        if isinstance(cur, Ret):
            value = cur.value
        elif isinstance(cur, Call):
            value = yield cur, None
        else:
            raise TypeError(f"not a computation: {cur!r}")
        if not frames:
            return value
        cur = frames.pop()(value)


def _advance(gen, value) -> Comp:
    # One step of a `@do` body: the generator is the frame's state.
    try:
        step = gen.send(value)
    except StopIteration as stop:
        return Ret(stop.value)
    return Bind(step, functools.partial(_advance, gen))


def reference_do(fn):
    """Generator notation for computations.

    The decorated generator function yields computations and receives their
    results; its return value becomes the result of the whole computation.
    Each interpretation instantiates a fresh generator, so the built tree
    stays reinterpretable as long as the generator body is pure.
    """

    @functools.wraps(fn)
    def build(*args, **kwargs) -> Comp:
        return Bind(Ret(None), lambda _: _advance(fn(*args, **kwargs), None))

    return build


# ---------------------------------------------------------------------------
# Reference evaluator of the context language: the tree-walking `_eval` the
# staged compiler in `seclink.ctxdsl` replaced, kept as written.  It builds
# a computation for every subterm, pure or not.
# ---------------------------------------------------------------------------


def _io_arg(op: IoOp, dv: DynValue):
    if op is IoOp.OPENFILE:
        return (dv.data.decode("latin-1"), (), 0)
    if op is IoOp.WRITE:
        return (dv.fst.fd, dv.snd.data)
    if op in (IoOp.READ, IoOp.CLOSE):
        return dv.fd
    if op is IoOp.SOCKET:
        return ()
    raise TranslateError(f"operation {op.value} not callable from contexts")


def _io_result(op: IoOp, result) -> DynValue:
    if is_err(result):
        return DRight(DErr(result.code, result.why))
    if op in (IoOp.OPENFILE, IoOp.SOCKET):
        return DLeft(DFd(result.value))
    if op is IoOp.READ:
        return DLeft(DBytes(result.value))
    return DLeft(DUnit())


def _eval(expr: CtxExpr, env: dict, lib: SecureIoLib) -> Comp:
    if isinstance(expr, Var):
        return ret(env[expr.name])
    if isinstance(expr, IntLit):
        return ret(DInt(expr.value))
    if isinstance(expr, BytesLit):
        return ret(DBytes(expr.value))
    if isinstance(expr, UnitLit):
        return ret(DUnit())
    if isinstance(expr, Lam):
        return ret(DClosure(lambda dv: _eval(expr.body, {**env, expr.var: dv}, lib)))
    if isinstance(expr, App):
        return bind(
            _eval(expr.fn, env, lib),
            lambda fn: bind(_eval(expr.arg, env, lib), lambda arg: fn.fn(arg)),
        )
    if isinstance(expr, PairE):
        return bind(
            _eval(expr.fst, env, lib),
            lambda a: bind(_eval(expr.snd, env, lib), lambda b: ret(DPair(a, b))),
        )
    if isinstance(expr, Proj):
        return bind(
            _eval(expr.expr, env, lib),
            lambda p: ret(p.fst if expr.side == "fst" else p.snd),
        )
    if isinstance(expr, Inject):
        wrap = DLeft if expr.side == "inl" else DRight
        return bind(_eval(expr.expr, env, lib), lambda v: ret(wrap(v)))
    if isinstance(expr, Case):
        def branch(v):
            if isinstance(v, DLeft):
                return _eval(expr.left_body, {**env, expr.left_var: v.value}, lib)
            return _eval(expr.right_body, {**env, expr.right_var: v.value}, lib)

        return bind(_eval(expr.scrutinee, env, lib), branch)
    if isinstance(expr, Let):
        return bind(
            _eval(expr.bound, env, lib),
            lambda v: _eval(expr.body, {**env, expr.var: v}, lib),
        )
    if isinstance(expr, IoCall):
        return bind(
            _eval(expr.arg, env, lib),
            lambda dv: bind(lib.call(expr.op, _io_arg(expr.op, dv)), lambda r: ret(_io_result(expr.op, r))),
        )
    raise TypeError(f"unknown expression {expr!r}")


def reference_translate(expr: CtxExpr, ctype: TypeDesc):
    """`ctxdsl.translate` on the reference evaluator."""
    typecheck(expr, curried_view(ctype))
    adapt = _adapter(ctype, True) or (lambda v: v)

    def target_ctx(lib: SecureIoLib) -> DynValue:
        try:
            next(evaluate(_eval(expr, _prim_closures(), lib)))
        except StopIteration as done:
            return adapt(done.value)
        raise TranslateError("a context must be a value; effects belong inside its functions")

    return target_ctx


# ---------------------------------------------------------------------------
# Reference sampler: `validate.SampleSpace` before draw trees, kept as
# written.  Each sample is built from `rng.choice` calls, with an `Ok` and
# an `Err` made for every result draw; `states_for` replays the history
# twice, and a function argument is a fresh lambda.
# ---------------------------------------------------------------------------


class ReferenceSampleSpace:
    """Draws histories, local traces, arguments and results that collide
    often enough to exercise every implication's hypotheses."""

    def __init__(self, rng: random.Random, policy_spec, desc: MStateDesc):
        self.rng = rng
        self.policy_spec = policy_spec
        self.desc = desc

    def random_event(self) -> Event:
        rng = self.rng
        op = rng.choice((IoOp.OPENFILE, IoOp.READ, IoOp.WRITE, IoOp.CLOSE, IoOp.SOCKET, IoOp.ACCEPT))
        caller = rng.choice((Caller.PROG, Caller.CTX))
        if op is IoOp.OPENFILE:
            arg = (rng.choice(_PATHS), (), 0)
            result = rng.choice((Ok(rng.choice(_FDS)), Err(ErrCode.ENOENT)))
        elif op is IoOp.READ:
            arg = rng.choice(_FDS)
            result = rng.choice((Ok(rng.choice(_BYTES)), Err(ErrCode.EBADF)))
        elif op is IoOp.WRITE:
            arg = (rng.choice(_FDS), rng.choice(_BYTES))
            result = rng.choice((Ok(()), Err(ErrCode.EBADF)))
        elif op in (IoOp.SOCKET, IoOp.ACCEPT):
            arg = () if op is IoOp.SOCKET else rng.choice(_FDS)
            result = Ok(rng.choice(_FDS))
        else:
            arg = rng.choice(_FDS)
            result = rng.choice((Ok(()), Err(ErrCode.EBADF)))
        return Event(caller, op, arg, result)

    def history_events(self) -> list[Event]:
        """Chronological prefix; biased to end in a successful read so that
        response-style pre-conditions are reachable."""
        events = [self.random_event() for _ in range(self.rng.randrange(0, 8))]
        if self.rng.random() < 0.6:
            events.append(
                Event(Caller.PROG, IoOp.READ, self.rng.choice(_FDS), Ok(self.rng.choice(_BYTES)))
            )
        return events

    def compliant_event(self, h: tuple) -> Event | None:
        candidates = []
        rng = self.rng
        for _ in range(6):
            e = self.random_event()
            if self.policy_spec(h, e.caller, e.op, e.arg):
                candidates.append(e)
        path = (rng.choice([p for p in _PATHS if p.startswith("/temp")]), (), 0)
        for extra in (
            Event(Caller.CTX, IoOp.OPENFILE, path, Ok(rng.choice(_FDS))),
            Event(Caller.PROG, IoOp.WRITE, (rng.choice(_FDS), rng.choice(_BYTES)), Ok(())),
        ):
            if self.policy_spec(h, extra.caller, extra.op, extra.arg):
                candidates.append(extra)
        return rng.choice(candidates) if candidates else None

    def local_events(self, h_events: list[Event], *, compliant: bool) -> list[Event]:
        n = self.rng.randrange(0, 5)
        if not compliant:
            return [self.random_event() for _ in range(n)]
        out: list[Event] = []
        hist = tuple(reversed(h_events))
        for _ in range(n):
            e = self.compliant_event(hist)
            if e is None:
                break
            out.append(e)
            hist = (e,) + hist
        return out

    def args_for(self, doms) -> tuple:
        return tuple(self._arg(d) for d in doms)

    def _arg(self, td):
        rng = self.rng
        if isinstance(td, FdT):
            return rng.choice(_FDS)
        if isinstance(td, BytesT):
            return rng.choice(_BYTES)
        if isinstance(td, IntT):
            return rng.randrange(-2, 10)
        if isinstance(td, UnitT):
            return ()
        if isinstance(td, ArrowT):
            return lambda *args: ret(contract_failure("sampled closure"))
        if isinstance(td, PairT):
            return (self._arg(td.fst), self._arg(td.snd))
        if isinstance(td, EitherT):
            return Ok(self._arg(td.left)) if rng.random() < 0.5 else contract_failure("sampled")
        return ()

    def result(self):
        r = self.rng.choice(_RESULTS)
        return r

    def states_for(self, h_events: list[Event], lt_events: list[Event]):
        s0 = replay(self.desc, h_events)
        s1 = replay(self.desc, h_events + lt_events)
        return s0, s1


# ---------------------------------------------------------------------------
# Reference contracts: `contracts.export_value` / `import_value` and the
# enforcement combinators before staged projections, kept as written.  Each
# crossing walks the type and its check tree, and each export of a function
# rebuilds its check wrapper.
# ---------------------------------------------------------------------------


def reference_export_value(td: TypeDesc, cks: CheckTree, value) -> DynValue:
    """Strong to dynamic.  Total; functions become guarded closures."""
    base = _BASE_SHAPES.get(type(td))
    if base is not None:
        return base[1](value)
    if isinstance(td, PairT):
        fst_tree, snd_tree = subtrees(td, cks)
        return DPair(
            reference_export_value(td.fst, fst_tree, value[0]),
            reference_export_value(td.snd, snd_tree, value[1]),
        )
    if isinstance(td, EitherT):
        left_tree, right_tree = subtrees(td, cks)
        if isinstance(value, Ok):
            return DLeft(reference_export_value(td.left, left_tree, value.value))
        payload = value if isinstance(td.right, ErrT) else value.code
        return DRight(reference_export_value(td.right, right_tree, payload))
    if isinstance(td, ArrowT):
        return _ref_export_arrow(td, cks, value)
    raise TypeError(f"unknown type descriptor {td!r}")


def reference_import_value(td: TypeDesc, cks: CheckTree, dv: DynValue):
    """Dynamic to strong: `Ok(value)` or a contract failure on mismatch."""
    base = _BASE_SHAPES.get(type(td))
    if base is not None:
        if not isinstance(dv, base[0]):
            return contract_failure(f"import:{type(td).__name__}")
        return Ok(base[2](dv))
    if isinstance(td, PairT):
        if not isinstance(dv, DPair):
            return contract_failure("import:PairT")
        fst_tree, snd_tree = subtrees(td, cks)
        fst = reference_import_value(td.fst, fst_tree, dv.fst)
        if is_err(fst):
            return fst
        snd = reference_import_value(td.snd, snd_tree, dv.snd)
        if is_err(snd):
            return snd
        return Ok((fst.value, snd.value))
    if isinstance(td, EitherT):
        left_tree, right_tree = subtrees(td, cks)
        if isinstance(dv, DLeft):
            inner = reference_import_value(td.left, left_tree, dv.value)
            return Ok(Ok(inner.value)) if not is_err(inner) else inner
        if isinstance(dv, DRight):
            inner = reference_import_value(td.right, right_tree, dv.value)
            if is_err(inner):
                return inner
            return Ok(inner.value if isinstance(inner.value, Err) else Err(inner.value))
        return contract_failure("import:EitherT")
    if isinstance(td, ArrowT):
        if not isinstance(dv, DClosure):
            return contract_failure(f"import:arrow:{_ref_label(td)}")
        return Ok(_ref_import_arrow(td, cks, dv))
    raise TypeError(f"unknown type descriptor {td!r}")


def _ref_label(td: ArrowT) -> str:
    return td.spec.label if td.spec is not None else "fn"


def _ref_dyn_failure(e: Err) -> DynValue:
    return DRight(DErr(e.code, e.why))


def _ref_export_arrow(td: ArrowT, cks: CheckTree, f) -> DClosure:
    *arg_trees, cod_tree = subtrees(td, cks)
    guarded, doms, cod = _ref_apply_node(td, cks, f), td.doms, td.cod

    def fn(*dyn_args):
        if len(dyn_args) != len(doms):
            return Ret(_ref_dyn_failure(contract_failure(f"import:arity:{_ref_label(td)}")))
        natives = []
        for dom, tree, da in zip(doms, arg_trees, dyn_args):
            imported = reference_import_value(dom, tree, da)
            if is_err(imported):
                return Ret(_ref_dyn_failure(imported))
            natives.append(imported.value)
        return Bind(guarded(*natives), lambda result: Ret(reference_export_value(cod, cod_tree, result)))

    return DClosure(fn)


def _ref_import_arrow(td: ArrowT, cks: CheckTree, dclo: DClosure):
    *arg_trees, cod_tree = subtrees(td, cks)
    doms, cod = td.doms, td.cod

    def enter(*natives):
        dyn_args = [reference_export_value(dom, tree, x) for dom, tree, x in zip(doms, arg_trees, natives)]
        return Bind(dclo.fn(*dyn_args), imported)

    def imported(dyn_result):
        outcome = reference_import_value(cod, cod_tree, dyn_result)
        return Ret(outcome.value if not is_err(outcome) else outcome)

    return _ref_apply_node(td, cks, enter)


def _ref_apply_node(td: ArrowT, cks: CheckTree, f):
    if not isinstance(cks, Node):
        start = lambda args: f(*args)
        return lambda *args: Bind(Ret(args), start)
    if td.spec is None:
        raise ValueError("check node at an arrow without a spec")
    if td.spec.kind is CheckKind.PRE:
        return _ref_enforce_pre(cks.ck, f, _ref_label(td))
    return _ref_enforce_post(cks.ck, f, _ref_label(td))


_REF_READ = get_mstate()


def _ref_enforce_pre(ck, f, label):
    failure = Ret(contract_failure(f"pre:{label}"))

    def wrapped(*args):
        before = lambda s0: Bind(_REF_READ, lambda s1: f(*args) if ck(args, s0, (), s1) else failure)
        return Bind(_REF_READ, before)

    return wrapped


def _ref_enforce_post(ck, f, label):
    failure = Ret(contract_failure(f"post:{label}"))

    def wrapped(*args):
        def before(s0):
            judge = lambda y: Bind(_REF_READ, lambda s1: Ret(y) if ck(args, s0, y, s1) else failure)
            return Bind(f(*args), judge)

        return Bind(_REF_READ, before)

    return wrapped
