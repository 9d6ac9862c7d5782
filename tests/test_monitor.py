"""Monitor-state descriptors, policies, and the secure IO library."""

from __future__ import annotations

import functools
import gc
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_trace
from seclink.demos import webserver
from seclink.effects import Caller, Event, IoOp, Ok, call_io, do, is_contract_failure, is_ok
from seclink.interp import interpret
from seclink.monitor import (
    History,
    Written,
    enforce_policy,
    full_trace_mstate,
    last_event_mstate,
    replay,
    stateless_mstate,
    webserver_mstate,
)
from seclink.traces import did_not_respond, is_opened_by_ctx, wrote_to
from seclink.worlds import make_world

ALL_DESCS = [webserver_mstate(), full_trace_mstate(), last_event_mstate(), stateless_mstate()]


@pytest.mark.parametrize("desc", ALL_DESCS, ids=lambda d: d.name)
def test_initial_state_abstracts_empty(desc):
    assert desc.abstracts(desc.init, ())


@pytest.mark.parametrize("desc", ALL_DESCS, ids=lambda d: d.name)
def test_update_preserves_abstraction(desc):
    rng = random.Random(7)
    for _ in range(300):
        events = random_trace(rng, 12)
        state = desc.init
        history = ()
        for e in events:
            assert desc.abstracts(state, history)
            state = desc.upd(state, e)
            history = (e,) + history
        assert desc.abstracts(state, history)


def test_webserver_state_matches_trace_oracles():
    # both the state and the abstraction fold's components, on every prefix
    desc = webserver_mstate()
    rng = random.Random(11)
    for _ in range(200):
        events = random_trace(rng, 14)
        state = desc.init
        owner, written, responded = desc.alpha_init
        history = ()
        for e in events:
            state = desc.upd(state, e)
            owner, written, responded = desc.alpha_step((owner, written, responded), e)
            history = (e,) + history
            for fd in range(1, 9):
                assert (fd in state.ctx_opened) == is_opened_by_ctx(fd, history)
                assert (owner.get(fd) is Caller.CTX) == is_opened_by_ctx(fd, history)
                assert (fd in state.written) == (fd in written) == wrote_to(fd, history)
            assert state.responded == responded == (not did_not_respond(history))


FILLER = Event(Caller.PROG, IoOp.SOCKET, (), Ok(3))


def _altered(e: Event) -> Event:
    return replace(e, caller=Caller.CTX if e.caller is Caller.PROG else Caller.PROG)


def _perturbed(name, state, history):
    """States that differ from the faithful `state` in one observable place."""
    if name == "webserver":
        # `written` perturbations are carriers, so only the content can make them fail
        carrier = lambda fds: functools.reduce(Written.add, fds, Written())
        out = [replace(state, responded=not state.responded)]
        for part, build in (("ctx_opened", tuple), ("written", carrier)):
            fds = tuple(getattr(state, part))
            out.append(replace(state, **{part: build(fds + (99,))}))
            if fds:
                out.append(replace(state, **{part: build(fds[1:])}))
                out.append(replace(state, **{part: build(fds[1:] + (99,))}))  # one member swapped
        return out
    if name == "full-trace":
        # carriers of the right type, so only the content can make them fail
        events = list(reversed(history))
        desc = full_trace_mstate()
        dropped = [replay(desc, events[:i] + events[i + 1 :]) for i in range(len(events))]
        altered = [
            replay(desc, events[:i] + [_altered(events[i])] + events[i + 1 :])
            for i in range(len(events))
        ]
        wrong_owner = History(state.event, state.rest, {**state.owner, 99: Caller.CTX})
        return dropped + altered + [wrong_owner]
    if name == "last-event":
        return [_altered(history[0]), None] if history else [_altered(FILLER)]
    return [(), 0, FILLER]


@pytest.mark.parametrize("desc", ALL_DESCS, ids=lambda d: d.name)
def test_perturbed_states_do_not_abstract(desc):
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        events = random_trace(rng, 12)
        history = tuple(reversed(events))
        state = replay(desc, events)
        assert desc.abstracts(state, history)
        for wrong in _perturbed(desc.name, state, history):
            assert not desc.abstracts(wrong, history), (wrong, history)
            checked += 1
    assert checked >= 200


def test_replace_rederives_a_derived_abstracts_and_keeps_an_explicit_one():
    desc = webserver_mstate()
    assert desc.abstracts(desc.init, ())
    never = replace(desc, agree=lambda s, a: False)
    assert not never.abstracts(never.init, ())
    assert replace(never, agree=desc.agree).abstracts(desc.init, ())
    explicit = lambda s, h: "explicit"
    kept = replace(replace(desc, abstracts=explicit), agree=lambda s, a: False)
    assert kept.abstracts is explicit
    assert replace(kept, abstracts=None).abstracts(kept.init, ()) is False


def test_webserver_upd_examples():
    desc = webserver_mstate()
    opened = desc.upd(desc.init, Event(Caller.CTX, IoOp.OPENFILE, ("/temp/a", (), 0), Ok(5)))
    assert opened.ctx_opened == (5,)
    closed = desc.upd(opened, Event(Caller.CTX, IoOp.CLOSE, 5, Ok(())))
    assert closed.ctx_opened == ()
    written = desc.upd(desc.init, Event(Caller.PROG, IoOp.WRITE, (4, b"r"), Ok(())))
    assert 4 in written.written and written.responded


def test_policy_soundness_against_spec():
    # acceptance of the state-level policy implies the trace-level policy
    # on every replayed history
    rng = random.Random(13)
    desc = webserver_mstate()
    probes = [
        (IoOp.OPENFILE, ("/temp/a.txt", (), 0)),
        (IoOp.OPENFILE, ("/etc/passwd", (), 0)),
        (IoOp.READ, 5),
        (IoOp.CLOSE, 5),
        (IoOp.WRITE, (5, b"x")),
        (IoOp.SOCKET, ()),
    ]
    for _ in range(400):
        events = random_trace(rng, 12)
        h = tuple(reversed(events))
        state = replay(desc, events)
        for op, arg in probes:
            if webserver.policy(state, op, arg):
                assert webserver.policy_spec(h, Caller.CTX, op, arg)


def make_lib():
    return enforce_policy(webserver.policy, webserver_mstate())


def test_denied_call_leaves_everything_unchanged():
    lib = make_lib()
    world = make_world(files={"/temp/a.txt": b"x"})
    run = interpret(lib.call(IoOp.OPENFILE, ("/etc/passwd", (), 0)), world, lib.desc)
    assert is_contract_failure(run.result)
    assert run.result.why == "policy:Openfile"
    assert run.local == ()
    assert run.mstate == lib.desc.init


def test_allowed_call_records_one_ctx_event():
    lib = make_lib()
    world = make_world(files={"/temp/a.txt": b"x"})
    run = interpret(lib.call(IoOp.OPENFILE, ("/temp/a.txt", (), 0)), world, lib.desc)
    assert is_ok(run.result)
    assert len(run.local) == 1
    assert run.local[0].caller is Caller.CTX
    assert run.audit_ok


def test_atomicity_on_random_seeded_states():
    rng = random.Random(17)
    lib = make_lib()
    probes = [
        (IoOp.OPENFILE, ("/temp/a.txt", (), 0)),
        (IoOp.OPENFILE, ("/nope/x", (), 0)),
        (IoOp.READ, 4),
        (IoOp.CLOSE, 4),
        (IoOp.WRITE, (4, b"x")),
        (IoOp.SOCKET, ()),
    ]
    world = make_world(files={"/temp/a.txt": b"x"})
    for _ in range(150):
        seed = random_trace(rng, 10)
        before = replay(lib.desc, seed)
        op, arg = probes[rng.randrange(len(probes))]
        run = interpret(lib.call(op, arg), world, lib.desc, seed_history=tuple(seed))
        if is_contract_failure(run.result):
            assert run.local == ()
            assert run.mstate == before
        else:
            assert len(run.local) == 1
            assert run.local[0].caller is Caller.CTX
            assert (run.local[0].op, run.local[0].arg) == (op, arg)


def test_replay_folds_from_init():
    rng = random.Random(23)
    events = random_trace(rng, 8)
    desc = full_trace_mstate()
    assert replay(desc, events) == tuple(reversed(events))


def test_full_trace_run_of_1e5_events():
    # iteration, comparison and deallocation of the carrier use no recursion
    @do
    def reads(n):
        for _ in range(n):
            yield call_io(IoOp.READ, 99)
        return n

    run = interpret(reads(10**5), make_world(), full_trace_mstate(), check=True)
    assert len(run.mstate) == len(run.local) == 10**5
    assert run.mstate == tuple(reversed(run.local))
    del run
    gc.collect()


def test_history_compares_to_sequences_only_and_reprs_its_events():
    run = interpret(call_io(IoOp.READ, 99), make_world(), full_trace_mstate())
    history, (event,) = run.mstate, run.local
    assert history == (event,) and history == [event] and history != ()
    assert history.__eq__(42) is NotImplemented and history != 42
    assert repr(history) == f"History({event!r},)" and repr(History()) == "History()"


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)), max_size=60))
@settings(max_examples=300, deadline=None)
def test_written_versions_behave_as_immutable_sets(steps):
    # each step adds a descriptor to an earlier version (a fork unless it is
    # the newest one); every version must keep exactly its own members
    versions, models = [Written()], [frozenset()]
    for pick, fd in steps:
        i = pick % len(versions)
        versions.append(versions[i].add(fd))
        models.append(models[i] | {fd})
    for version, model in zip(versions, models):
        assert set(version) == model and version.length == len(model)
        assert all((fd in version) == (fd in model) for fd in range(6))
        assert version == functools.reduce(Written.add, sorted(model), Written())
