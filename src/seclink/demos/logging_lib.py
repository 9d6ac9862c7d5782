"""Logging library scenario: the untrusted side has initial control.

A context with initial control is a context at a higher-order type.  Here
it has type `logger -> int`: the trusted program applies it to a logger
that writes its argument to the console, and the contracts on the way in
export the logger to it, guarded by the logger's check.  The policy forces
an alternation: the untrusted context can perform an IO operation only
when the immediately preceding event is a console log of that operation's
name, and the logger itself refuses to log twice in a row (its call
contract requires the previous event to be the context's).  The monitor
state is only the last event.
"""

from __future__ import annotations

from ..contracts import (
    ArrowSpec,
    ArrowT,
    BytesT,
    CheckKind,
    DBytes,
    DClosure,
    DInt,
    DRight,
    EitherT,
    EmptyNode,
    ErrT,
    IntT,
    Leaf,
    Node,
    UnitT,
)
from ..effects import Caller, Event, IoOp, Ok, bind, call_io, do, is_err, is_ok, ret
from ..linker import SourceInterface
from ..monitor import SecureIoLib, last_event_mstate
from ..traces import enforced_locally
from ..worlds import STDOUT_FD


def op_log_line(op: IoOp) -> bytes:
    return op.value.encode("ascii") + b"\n"


def _expected_log(op: IoOp) -> Event:
    return Event(Caller.PROG, IoOp.WRITE, (STDOUT_FD, op_log_line(op)), Ok(()))


def policy_spec(h, caller, op, arg) -> bool:
    if caller is Caller.CTX:
        return len(h) > 0 and h[0] == _expected_log(op)
    if op is IoOp.WRITE:
        return len(h) == 0 or h[0].caller is Caller.CTX
    return False


def policy(s: Event | None, op: IoOp, arg) -> bool:
    return s == _expected_log(op)


def _logger_ck(args, s0: Event | None, _y, _s1) -> bool:
    # Refuse a log that does not immediately precede a context operation.
    return s0 is None or s0.caller is Caller.CTX


def _logger_pre(args, h) -> bool:
    return len(h) == 0 or h[0].caller is Caller.CTX


def _logger_post(args, h, r, lt) -> bool:
    if is_err(r) and len(lt) == 0:
        return True
    return (
        len(lt) == 1
        and lt[0].caller is Caller.PROG
        and lt[0].op is IoOp.WRITE
        and lt[0].arg == (STDOUT_FD, args[0])
        and lt[0].result == r
    )


LOGGER_TYPE = ArrowT(
    (BytesT(),),
    EitherT(UnitT(), ErrT()),
    ArrowSpec("logger", CheckKind.PRE, pre=_logger_pre, post=_logger_post),
)


def interface() -> SourceInterface:
    return SourceInterface(
        label="logging",
        ctype=ArrowT((LOGGER_TYPE,), IntT()),
        policy_spec=policy_spec,
        policy=policy,
        cks=EmptyNode(Node(_logger_ck, Leaf(), Leaf()), Leaf()),
        # the whole trace, the logger's own writes included
        whole_run_post=lambda h, _r, lt: enforced_locally(policy_spec, h, lt),
        mstate=last_event_mstate(),
    )


@do
def logger(message: bytes):
    result = yield call_io(Caller.PROG, IoOp.WRITE, (STDOUT_FD, message))
    return result


def prog(ctx):
    """The trusted program: hand the logger to the context."""
    return ctx(logger)


# ---------------------------------------------------------------------------
# Untrusted contexts (they have initial control)
# ---------------------------------------------------------------------------


def _logged(lib: SecureIoLib, log, op: IoOp, arg):
    """Log the operation's name, then perform it; counts as one step."""

    @do
    def run():
        ack = yield log.fn(DBytes(op_log_line(op)))
        step = yield lib.call(op, arg)
        return step

    return run()


def ctx_well_behaved(lib: SecureIoLib, log):
    """Logs before every operation: open, read, close a served file."""

    @do
    def run():
        done = 0
        opened = yield _logged(lib, log, IoOp.OPENFILE, ("/temp/notes.txt", (), 0))
        if is_ok(opened):
            done += 1
            fd = opened.value
            data = yield _logged(lib, log, IoOp.READ, fd)
            if is_ok(data):
                done += 1
            closed = yield _logged(lib, log, IoOp.CLOSE, fd)
            if is_ok(closed):
                done += 1
        return done

    return run()


def ctx_skips_logging(lib: SecureIoLib, _log):
    """Tries IO without logging; the monitor denies every attempt."""

    @do
    def run():
        first = yield lib.call(IoOp.OPENFILE, ("/temp/notes.txt", (), 0))
        second = yield lib.call(IoOp.SOCKET, ())
        return int(is_ok(first)) + int(is_ok(second))

    return run()


def ctx_double_logs(lib: SecureIoLib, log):
    """Logs twice in a row; the logger's contract refuses the second."""

    @do
    def run():
        yield log.fn(DBytes(op_log_line(IoOp.OPENFILE)))
        again = yield log.fn(DBytes(op_log_line(IoOp.OPENFILE)))
        opened = yield lib.call(IoOp.OPENFILE, ("/temp/notes.txt", (), 0))
        if isinstance(again, DRight) and is_ok(opened):
            return 1
        return 0

    return run()


def ctx_mislabels(lib: SecureIoLib, log):
    """Logs one operation but performs another; the monitor denies it."""

    @do
    def run():
        yield log.fn(DBytes(op_log_line(IoOp.READ)))
        opened = yield lib.call(IoOp.OPENFILE, ("/temp/notes.txt", (), 0))
        return int(is_ok(opened))

    return run()


def ctx_idle(_lib: SecureIoLib, _log):
    return ret(0)


def _lifted(ctx):
    """A context written as `(lib, log) -> computation of an int`, as a
    target context of type `logger -> int`."""

    def target_ctx(lib: SecureIoLib):
        return DClosure(lambda log: bind(ctx(lib, log), lambda n: ret(DInt(n))))

    return target_ctx


CONTEXTS = {
    "well-behaved": _lifted(ctx_well_behaved),
    "skips-logging": _lifted(ctx_skips_logging),
    "double-logs": _lifted(ctx_double_logs),
    "mislabels": _lifted(ctx_mislabels),
    "idle": _lifted(ctx_idle),
}
