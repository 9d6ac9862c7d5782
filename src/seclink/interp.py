"""Deterministic interpreter: the handler that runs a computation tree
against a world.  It drives `effects.evaluate`, which runs binds, `@do`
bodies and boundary marks itself, and answers each call it yields: a state
read with the monitor state, an IO call with one `worlds.step`.  A contract
check is two such reads around one call of its predicate, with no event of
its own.  A call reached under a guard is the context's: its argument is
canonicalised once, a malformed one fails in-band, and the policies in force
decide it right before the step.  Any other call is the program's.

Alongside the world it maintains ghost state: the events of this run and
the monitor-state value, updated on every recorded event.  In check mode
(the default) it advances the abstraction fold beside the state and asserts
that they agree: for the seeded history, after every event, and at each
state read and policy decision.  The audit fails only where a context event
had no policy in force to decide it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import worlds
from .effects import GET_MSTATE, Caller, Comp, Event, IoOp, Trace, contract_failure, evaluate
from .monitor import MStateDesc, abstraction, replay


class GhostInvariantError(AssertionError):
    """The monitor state stopped abstracting the history."""


def _allows(policies, state, op, arg) -> bool:  # a loop: a generator expression costs more
    for decide in policies:
        if not decide(state, op, arg):
            return False
    return True


@dataclass
class RunResult:
    result: object
    world: worlds.World
    local: Trace  # chronological events of this run
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
    # hoisted out of the per-event path; read per run, so a wrapped `step` is seen
    prog, ctx, canon, step = Caller.PROG, Caller.CTX, worlds._CANON, worlds.step
    upd, alpha_step, agree = desc.upd, desc.alpha_step, desc.agree
    if check and not agree(state, alpha):
        raise GhostInvariantError("seeded state does not abstract seeded history")

    core = evaluate(comp)
    value = None
    while True:
        try:
            cur, decided = core.send(value)
        except StopIteration as done:
            return RunResult(
                result=done.value,
                world=w,
                local=tuple(local),
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

        try:
            arg = canon[op](cur.arg)
        except (TypeError, ValueError, OverflowError):
            if decided is not None:
                value = contract_failure("ctx:junk")
                continue
            if type(op) is not IoOp:  # the program's own malformed call is a bug
                raise TypeError(f"unknown operation {op!r}") from None
            raise
        if decided is not None:
            if decided:
                if check and not agree(state, alpha):
                    raise GhostInvariantError("state does not abstract history at policy decision")
                if not _allows(decided, state, op, arg):
                    value = contract_failure(f"policy:{op.value}")
                    continue
                monitored_calls += 1
            ctx_events += 1

        caller = prog if decided is None else ctx
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
