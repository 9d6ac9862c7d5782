"""Computation combinators and the interpreter's core contract."""

from __future__ import annotations

import inspect
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_do, reference_evaluate
from seclink import interp
from seclink.contracts import ArrowT, DClosure, EitherT, ErrT, Leaf, UnitT, import_value
from seclink.effects import Caller, Err, ErrCode, IoOp, Ok, bind, call_io, do, evaluate, get_mstate, ret
from seclink.effects import _trusted, guard
from seclink.interp import interpret
from seclink.monitor import stateless_mstate, webserver_mstate
from seclink.worlds import make_world


def run(comp, world, desc=None):
    return interpret(comp, world, desc or webserver_mstate())


def observe(comp, worlds):
    """(result, local trace) per world; the behavioural equality used for
    the algebraic laws."""
    desc = webserver_mstate()
    return [(r.result, r.local) for r in (interpret(comp, w, desc) for w in worlds)]


# -- small computation grammar for law tests --------------------------------


class Boom(Exception):
    """Raised on purpose by generated programs."""


def comp_from_plan(plan, do_=do):
    """A computation from a list of steps (data, so hypothesis can shrink
    it), written with the `@do` notation `do_`.

    Steps: "open", "read" and "state" run one operation in a `@do` body that
    then yields the rest; "rets" yields three `ret`s first; "bind" puts the
    rest under a plain `bind` chain; "nest" runs it under two more `@do`
    calls; "junk" hands the loop a non-computation; ("body", k) is a `@do`
    body and ("cont", k) a `bind` continuation that raises after k reads.
    """
    if not plan:
        return ret(0)
    head, *rest = plan
    if head == "bind":
        return bind(bind(comp_from_plan(rest, do_), lambda x: ret(x + 1)), lambda x: ret(2 * x))
    if head == "junk":
        return bind(ret(0), lambda _: 42)
    if head == "nest":

        @do_
        def inner(n):
            r = yield comp_from_plan(rest, do_)
            return r * n

        @do_
        def outer(n):
            r = yield inner(n)
            return r + 1

        return outer(3)
    if isinstance(head, tuple):
        where, k = head

        def boom(_):
            raise Boom(where, k)

        @do_
        def reads():
            for _ in range(k):
                yield call_io(IoOp.READ, 3)
            if where == "body":
                raise Boom(where, k)
            return 0

        return bind(reads(), boom) if where == "cont" else reads()

    @do_
    def step():
        acc = 0
        if head == "open":
            r = yield call_io(IoOp.OPENFILE, ("/temp/a.txt", (), 0))
            acc = r.value if isinstance(r, Ok) else -1
        elif head == "state":
            s = yield get_mstate()
            acc = len(s.ctx_opened)
        elif head == "rets":
            for i in range(3):
                acc += yield ret(i)
        else:
            r = yield call_io(IoOp.READ, 3)
            acc = len(r.value) if isinstance(r, Ok) else -2
        rest_result = yield comp_from_plan(rest, do_)
        return acc + rest_result

    return step()


plans = st.lists(st.sampled_from(["open", "state", "read"]), max_size=4)


def some_worlds():
    return [
        make_world(files={"/temp/a.txt": b"alpha"}),
        make_world(files={}),
    ]


@given(plans)
@settings(max_examples=40, deadline=None)
def test_monad_left_identity(plan):
    f = lambda x: comp_from_plan(plan)
    worlds = some_worlds()
    assert observe(bind(ret(3), f), worlds) == observe(f(3), worlds)


@given(plans)
@settings(max_examples=40, deadline=None)
def test_monad_right_identity(plan):
    m = comp_from_plan(plan)
    worlds = some_worlds()
    assert observe(bind(m, ret), worlds) == observe(m, worlds)


@given(plans, plans, plans)
@settings(max_examples=40, deadline=None)
def test_monad_associativity(p1, p2, p3):
    m = comp_from_plan(p1)
    f = lambda x: comp_from_plan(p2)
    g = lambda x: comp_from_plan(p3)
    worlds = some_worlds()
    lhs = bind(bind(m, f), g)
    rhs = bind(m, lambda x: bind(f(x), g))
    assert observe(lhs, worlds) == observe(rhs, worlds)


# -- interpreter basics ------------------------------------------------------


def test_ret_is_pure(small_world):
    result = run(ret(5), small_world)
    assert result.result == 5
    assert result.local == ()


def test_unit_ret(small_world):
    result = run(ret(()), small_world)
    assert result.result == ()
    assert result.local == ()


def test_bind_records_one_event_per_call(small_world):
    comp = bind(call_io(IoOp.OPENFILE, ("/temp/a.txt", (), 0)), ret)
    result = run(comp, small_world)
    assert result.result == Ok(3)
    assert len(result.local) == 1
    event = result.local[0]
    assert (event.caller, event.op, event.result) == (Caller.PROG, IoOp.OPENFILE, Ok(3))


def test_call_io_records_errors_in_band(small_world):
    comp = call_io(IoOp.READ, 99)
    result = run(comp, small_world)
    assert result.result == Err(ErrCode.EBADF)
    assert len(result.local) == 1
    assert result.local[0].result == Err(ErrCode.EBADF)


def test_write_after_close_fails(small_world):
    @do
    def prog():
        fd = yield call_io(IoOp.OPENFILE, ("/temp/a.txt", (), 0))
        yield call_io(IoOp.CLOSE, fd.value)
        outcome = yield call_io(IoOp.WRITE, (fd.value, b"x"))
        return outcome

    assert run(prog(), small_world).result == Err(ErrCode.EBADF)


def test_get_mstate_records_no_event(small_world):
    comp = bind(get_mstate(), lambda s1: bind(get_mstate(), lambda s2: ret((s1, s2))))
    result = run(comp, small_world)
    assert result.local == ()
    s1, s2 = result.result
    assert s1 == s2


def test_get_mstate_tracks_updates(small_world):
    @do
    def prog():
        fd = yield guard(call_io(IoOp.OPENFILE, ("/temp/a.txt", (), 0)))
        state = yield get_mstate()
        return fd.value, state

    fd, state = run(prog(), small_world).result
    assert fd in state.ctx_opened


def test_interpret_deterministic(small_world):
    @do
    def prog():
        fd = yield call_io(IoOp.OPENFILE, ("/temp/a.txt", (), 0))
        data = yield call_io(IoOp.READ, fd.value)
        return data

    comp = prog()
    first = run(comp, small_world)
    second = run(comp, small_world)
    assert (first.result, first.local) == (second.result, second.local)
    # the caller's world is untouched
    assert small_world.next_fd == 3


def test_local_trace_chronological_and_history_reversed(small_world):
    @do
    def prog():
        fd = yield call_io(IoOp.OPENFILE, ("/temp/a.txt", (), 0))
        yield call_io(IoOp.CLOSE, fd.value)
        return 0

    result = run(prog(), small_world)
    assert [e.op for e in result.local] == [IoOp.OPENFILE, IoOp.CLOSE]
    assert result.history == tuple(reversed(result.local))


def test_seed_history_extends(small_world):
    @do
    def prog():
        yield call_io(IoOp.OPENFILE, ("/temp/a.txt", (), 0))
        return 0

    first = run(prog(), small_world)
    seeded = interpret(prog(), small_world, stateless_mstate(), seed_history=first.local)
    assert seeded.history == tuple(reversed(seeded.local)) + first.history


def test_bare_call_at_top_level_is_a_program_call(small_world):
    done = run(call_io(IoOp.OPENFILE, ("/temp/a.txt", (), 0)), small_world)
    assert [(e.caller, e.op) for e in done.local] == [(Caller.PROG, IoOp.OPENFILE)]
    assert done.ctx_events == done.monitored_calls == 0


def test_bare_call_under_an_import_guard_is_a_decided_context_call(small_world):
    # the same node, built by a context the program imported and called
    seen = []

    def policy(state, op, arg):
        seen.append((op, arg))
        return True

    node = call_io(IoOp.OPENFILE, ("/temp/a.txt", (), 0))
    ctx = import_value(ArrowT((), EitherT(UnitT(), ErrT())), Leaf(), DClosure(lambda: node)).value
    done = run(_trusted(bind(ctx(), ret), policy), small_world)  # the policy in force, as linking puts it
    assert [(e.caller, e.op) for e in done.local] == [(Caller.CTX, IoOp.OPENFILE)]
    assert seen == [(IoOp.OPENFILE, ("/temp/a.txt", (), 0))]
    assert done.ctx_events == done.monitored_calls == 1


def test_do_reuses_fresh_generators():
    calls = []

    @do
    def prog():
        calls.append(1)
        r = yield ret(1)
        return r + 1

    comp = prog()
    w = make_world()
    assert run(comp, w).result == 2
    assert run(comp, w).result == 2
    assert len(calls) == 2


# -- the evaluation core: explicit stack, O(1) per operation ------------------


def test_deep_do_nest_runs_without_recursion_error():
    depth = 10**5

    @do
    def nest(n):
        if n == 0:
            r = yield call_io(IoOp.READ, 99)
            return r
        r = yield nest(n - 1)
        return r

    result = run(nest(depth), make_world())
    assert result.result == Err(ErrCode.EBADF)
    assert len(result.local) == 1


def test_long_left_nested_bind_chain_runs_without_recursion_error():
    length = 10**5
    comp = bind(call_io(IoOp.READ, 99), lambda r: ret(0))
    for _ in range(length):
        comp = bind(comp, lambda x: ret(x + 1))
    result = run(comp, make_world())
    assert result.result == length
    assert len(result.local) == 1


def resume_stack_depth(nesting):
    """Python stack depth at which the innermost `@do` body resumes after an
    IO op, under `nesting` levels of `@do`."""
    depths = []

    @do
    def nest(n):
        if n == 1:
            yield call_io(IoOp.READ, 99)
            depths.append(len(inspect.stack(0)))
            return 0
        r = yield nest(n - 1)
        return r

    run(nest(nesting), make_world())
    return depths[0]


def test_resume_depth_does_not_grow_with_nesting():
    assert resume_stack_depth(40) == resume_stack_depth(1)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: bind(42, ret), id="bind-of-non-computation"),
        pytest.param(lambda: do(lambda: (yield 42))(), id="do-body-yields-non-computation"),
        pytest.param(lambda: bind(ret(1), lambda x: 42), id="continuation-returns-non-computation"),
    ],
)
def test_non_computations_raise_type_error(build, small_world):
    with pytest.raises(TypeError):
        run(build(), small_world)


def test_do_body_exception_propagates_unchanged(small_world):
    # This body is trusted code outside any contract boundary, so its
    # exception escapes `interpret` as it was raised; plugin containment
    # only turns failures of untrusted code into in-band ones.
    boom = ZeroDivisionError("handler bug")

    @do
    def body():
        yield call_io(IoOp.READ, 99)
        raise boom

    @do
    def outer(n):
        if n == 0:
            r = yield body()
            return r
        r = yield outer(n - 1)
        return r

    with pytest.raises(ZeroDivisionError) as raised:
        run(bind(outer(3), ret), small_world)
    assert raised.value is boom


# -- the evaluation core against the reference core ---------------------------


core_plans = st.lists(
    st.one_of(
        st.sampled_from(["open", "read", "state", "rets", "bind", "nest", "junk"]),
        st.tuples(st.sampled_from(["body", "cont"]), st.integers(0, 3)),
    ),
    max_size=8,
)


def core_outcome(comp, world, evaluate_):
    """(result, local trace, audit) of one run on `evaluate_`, or what it raised."""
    with mock.patch.object(interp, "evaluate", evaluate_):
        try:
            done = interpret(comp, world, webserver_mstate())
        except Exception as exc:
            return ("raised", type(exc), exc.args)
        return (done.result, done.local, done.audit_ok)


@given(core_plans)
@settings(max_examples=150, deadline=None)
def test_evaluate_agrees_with_reference_core(plan):
    comp = comp_from_plan(plan)
    reference = comp_from_plan(plan, reference_do)
    for world in some_worlds():
        expected = core_outcome(reference, world, reference_evaluate)
        # twice: each run instantiates fresh `@do` generators
        assert core_outcome(comp, world, evaluate) == expected
        assert core_outcome(comp, world, evaluate) == expected
