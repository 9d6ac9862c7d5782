"""Deterministic interpreter: the handler that runs a computation tree
against a world.  It drives `effects.evaluate`, which runs binds and `@do`
bodies itself, and answers each call it yields: a state read with the
monitor state, an IO call with one `worlds.step`.  A contract check is two
such reads around one call of its predicate, with no event of its own.

Alongside the world it maintains ghost state: the events of this run and
the monitor-state value, updated on every recorded event.  In check mode
(the default) it advances the abstraction fold beside the state and asserts
that they agree: for the seeded history, after every event and at every
state read.  It also audits the capability discipline: every context-tagged
IO call must come through the secure library.  It trusts each call's caller
and monitor tags, which a host closure can forge either way (see `effects`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import worlds
from .effects import (
    GET_MSTATE,
    Caller,
    Comp,
    Event,
    IoOp,
    Trace,
    evaluate,
)
from .monitor import MStateDesc, abstraction, replay


class CapabilityError(AssertionError):
    """A context-tagged IO call bypassed the secure library."""


class GhostInvariantError(AssertionError):
    """The monitor state stopped abstracting the history."""


@dataclass
class RunResult:
    result: object
    world: worlds.World
    local: Trace  # chronological events of this run
    history: Trace  # reverse-chronological, includes any seeded history
    mstate: object
    ctx_events: int
    monitored_calls: int

    @property
    def audit_ok(self) -> bool:
        return self.ctx_events == self.monitored_calls


def interpret(
    comp: Comp,
    world: worlds.World,
    desc: MStateDesc,
    *,
    seed_history: tuple[Event, ...] = (),
    check: bool = True,
) -> RunResult:
    """Run `comp` to completion.  Pure in (comp, world, desc, seed_history).

    `seed_history` is a chronological event prefix replayed through the
    state-update function before the run starts; it lets tests probe
    mid-execution configurations.
    """
    w = world.clone()
    local: list[Event] = []
    state = replay(desc, seed_history)
    ctx_events = 0
    monitored_calls = 0

    alpha = abstraction(desc, seed_history) if check else None
    # hoisted out of the per-event path
    ctx, canon_arg, step = Caller.CTX, worlds.canon_arg, worlds.step
    upd, alpha_step, agree = desc.upd, desc.alpha_step, desc.agree
    if check and not agree(state, alpha):
        raise GhostInvariantError("seeded state does not abstract seeded history")

    core = evaluate(comp)
    value = None
    while True:
        try:
            cur = core.send(value)
        except StopIteration as done:
            return RunResult(
                result=done.value,
                world=w,
                local=tuple(local),
                history=tuple(reversed(local)) + tuple(reversed(seed_history)),
                mstate=state,
                ctx_events=ctx_events,
                monitored_calls=monitored_calls,
            )

        op = cur.op
        if op is GET_MSTATE:
            if check and not agree(state, alpha):
                raise GhostInvariantError("state does not abstract history at state read")
            value = state
            continue

        if not isinstance(op, IoOp):
            raise TypeError(f"unknown operation {op!r}")
        caller = cur.caller
        if caller is ctx:
            if check and not cur.via_monitor:
                raise CapabilityError(
                    f"unmediated context call: {op.value} {cur.arg!r}"
                )
            ctx_events += 1
        if cur.via_monitor:
            monitored_calls += 1

        arg = canon_arg(op, cur.arg)
        value = step(w, caller, op, arg)
        event = Event(caller, op, arg, value)
        local.append(event)
        state = upd(state, event)
        if check:
            alpha = alpha_step(alpha, event)
            if not agree(state, alpha):
                raise GhostInvariantError(
                    f"state update broke the abstraction after {event.render()}"
                )
