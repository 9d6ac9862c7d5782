"""Web server scenario: a trusted server linked with untrusted request handlers.

The server accepts scripted clients, reads and validates each request, and
dispatches to the handler together with a send callback that writes the
response.  The handler's obligations are split between mechanisms:

- answering the client (or returning an error) is judged by a result
  contract when the handler returns;
- calling send at most once per request, with a valid response, is guarded
  by send's call contract;
- touching only its own files under /temp, and never writing directly, is
  enforced by the reference monitor on every IO call.

The shipped adversarial handlers each probe exactly one mechanism.
"""

from __future__ import annotations

from ..contracts import (
    ArrowSpec,
    ArrowT,
    BytesT,
    CheckKind,
    DBytes,
    DClosure,
    DErr,
    DLeft,
    DRight,
    DUnit,
    EitherT,
    EmptyNode,
    ErrT,
    FdT,
    Leaf,
    Node,
    UnitT,
)
from ..effects import Caller, IoOp, call_io, do, is_err, is_ok, ret
from ..httputil import (
    http_error,
    http_ok,
    request_path,
    temp_path,
    valid_http_request,
    valid_http_response,
)
from ..linker import SourceInterface
from ..monitor import SecureIoLib, WebServerState, webserver_mstate
from ..traces import (
    did_not_respond,
    every_request_gets_a_response,
    in_folder,
    is_opened_by_ctx,
    wrote_to,
)

SERVED_FOLDER = "/temp"
DEFAULT_REQUEST_BUDGET = 16

# Hoisted (see the note in `effects`).
_PROG, _CTX = Caller.PROG, Caller.CTX
_OPENFILE, _READ, _WRITE, _CLOSE = IoOp.OPENFILE, IoOp.READ, IoOp.WRITE, IoOp.CLOSE
_ACCEPT, _SELECT = IoOp.ACCEPT, IoOp.SELECT


def policy_spec(h, caller, op, arg) -> bool:
    """Allowed events while the handler runs: the handler may open, read
    and close its own files under the served folder; only the trusted side
    may write."""
    if caller is _CTX:
        if op is _OPENFILE:
            return in_folder(arg[0], SERVED_FOLDER)
        if op is _READ or op is _CLOSE:
            return is_opened_by_ctx(arg, h)
        return False
    return op is _WRITE


def policy(s: WebServerState, op: IoOp, arg) -> bool:
    if op is _OPENFILE:
        return in_folder(arg[0], SERVED_FOLDER)
    if op is _READ or op is _CLOSE:
        return arg in s.ctx_opened
    return False


def allow_all_in_tmp_spec(h, caller, op, arg) -> bool:
    """Laxer variant of `policy_spec`: the handler may also write to descriptors it opened."""
    return caller is _CTX and op is _WRITE and is_opened_by_ctx(arg[0], h) or policy_spec(h, caller, op, arg)


def allow_all_in_tmp_policy(s: WebServerState, op: IoOp, arg) -> bool:
    return op is _WRITE and arg[0] in s.ctx_opened or policy(s, op, arg)


def _handler_ck(args, s0: WebServerState, r, s1: WebServerState) -> bool:
    # Error results pass: the disjunctive obligation accepts an error in
    # place of a response.
    client = args[0]
    return is_err(r) or (client not in s0.written and client in s1.written)


def _send_ck(args, s0: WebServerState, _y, _s1) -> bool:
    return not s0.responded and valid_http_response(args[0])


def _handler_pre(args, h) -> bool:
    return did_not_respond(h)


def _handler_post(args, h, r, lt) -> bool:
    return wrote_to(args[0], lt) or is_err(r)


def _send_pre(args, h) -> bool:
    return valid_http_response(args[0]) and did_not_respond(h)


def _send_post(args, h, r, lt) -> bool:
    if is_err(r) and len(lt) == 0:
        return True
    return (
        len(lt) == 1
        and lt[0].caller is Caller.PROG
        and lt[0].op is IoOp.WRITE
        and lt[0].arg[1] == args[0]
        and lt[0].result == r
    )


SEND_TYPE = ArrowT(
    (BytesT(),),
    EitherT(UnitT(), ErrT()),
    ArrowSpec("send", CheckKind.PRE, pre=_send_pre, post=_send_post),
)

HANDLER_TYPE = ArrowT(
    (FdT(), BytesT(), SEND_TYPE),
    EitherT(UnitT(), ErrT()),
    ArrowSpec("handler", CheckKind.POST, pre=_handler_pre, post=_handler_post),
)


def handler_cks() -> Node:
    return Node(
        _handler_ck,
        EmptyNode(Leaf(), EmptyNode(Leaf(), Node(_send_ck, Leaf(), Leaf()))),
        Leaf(),
    )


def whole_run_post(_h, _result, lt) -> bool:
    return every_request_gets_a_response(lt)


def interface() -> SourceInterface:
    return SourceInterface(
        label="webserver",
        ctype=HANDLER_TYPE,
        policy_spec=policy_spec,
        policy=policy,
        cks=handler_cks(),
        whole_run_post=whole_run_post,
        mstate=webserver_mstate(),
    )


# ---------------------------------------------------------------------------
# The trusted server
# ---------------------------------------------------------------------------


def _send_to(client: int):
    return lambda response: call_io(_PROG, _WRITE, (client, response))


def make_server_prog(budget: int = DEFAULT_REQUEST_BUDGET):
    """Server as a function of the (strong) handler; returns the number of
    requests it answered."""

    @do
    def server(handler):
        sock = yield call_io(_PROG, IoOp.SOCKET, ())
        sock = sock.value
        yield call_io(_PROG, IoOp.SETSOCKOPT, (sock, "SO_REUSEADDR", True))
        yield call_io(_PROG, IoOp.BIND, (sock, "0.0.0.0", 3000))
        yield call_io(_PROG, IoOp.LISTEN, (sock, 5))
        yield call_io(_PROG, IoOp.SETNONBLOCK, sock)
        served = 0
        for _ in range(budget):
            accepted = yield call_io(_PROG, _ACCEPT, sock)
            if is_err(accepted):
                break
            client = accepted.value
            ready = yield call_io(_PROG, _SELECT, (client,))
            if is_ok(ready):
                request = yield call_io(_PROG, _READ, client)
                if is_ok(request):
                    if valid_http_request(request.value):
                        outcome = yield handler(client, request.value, _send_to(client))
                        if is_err(outcome):
                            yield call_io(_PROG, _WRITE, (client, http_error(400)))
                    else:
                        yield call_io(_PROG, _WRITE, (client, http_error(400)))
                    served += 1
            yield call_io(_PROG, _CLOSE, client)
        yield call_io(_PROG, _CLOSE, sock)
        return served

    return server


# ---------------------------------------------------------------------------
# Hand-written target handlers
# ---------------------------------------------------------------------------


def adversarial_handler1(_lib: SecureIoLib) -> DClosure:
    """Claims success without ever answering the client."""

    def run(_client, _req, _send):
        return ret(DLeft(DUnit()))

    return DClosure(run)


def adversarial_handler2(_lib: SecureIoLib) -> DClosure:
    """Answers with bytes that are not a valid HTTP response."""

    @do
    def run(_client, _req, send):
        result = yield send.fn(DBytes(b"hello"))
        return result

    return DClosure(run)


def adversarial_handler3(lib: SecureIoLib) -> DClosure:
    """Tries to open a file outside the served folder."""

    @do
    def run(_client, _req, _send):
        result = yield lib.call(IoOp.OPENFILE, ("/etc/passwd", (), 0))
        return _as_dyn_result(result)

    return DClosure(run)


def adversarial_handler4(lib: SecureIoLib) -> DClosure:
    """Tries to write to the client directly, bypassing send."""

    @do
    def run(client, _req, _send):
        result = yield lib.call(IoOp.WRITE, (client.fd, b"hello"))
        return _as_dyn_result(result)

    return DClosure(run)


def adversarial_handler5(lib: SecureIoLib) -> DClosure:
    """Tries an IO operation outside the authorised set."""

    @do
    def run(_client, _req, _send):
        result = yield lib.call(IoOp.SOCKET, ())
        return _as_dyn_result(result)

    return DClosure(run)


def benign_handler(lib: SecureIoLib) -> DClosure:
    """Serves the requested file from the served folder via send."""

    @do
    def run(_client, req, send):
        path = temp_path(request_path(req.data))
        opened = yield lib.call(IoOp.OPENFILE, (path.decode("latin-1"), (), 0))
        if is_err(opened):
            return DRight(DErr(opened.code, opened.why))
        data = yield lib.call(IoOp.READ, opened.value)
        if is_err(data):
            return DRight(DErr(data.code, data.why))
        yield lib.call(IoOp.CLOSE, opened.value)
        result = yield send.fn(DBytes(http_ok(data.value)))
        return result

    return DClosure(run)


def _as_dyn_result(result):
    if is_err(result):
        return DRight(DErr(result.code, result.why))
    return DLeft(DUnit())


HANDLERS = {
    "adv1": adversarial_handler1,
    "adv2": adversarial_handler2,
    "adv3": adversarial_handler3,
    "adv4": adversarial_handler4,
    "adv5": adversarial_handler5,
    "benign": benign_handler,
}

# Which enforcement mechanism stops each handler (None: none fires).
EXPECTED_MECHANISM = {
    "adv1": "post:handler",
    "adv2": "pre:send",
    "adv3": "policy:Openfile",
    "adv4": "policy:Write",
    "adv5": "policy:Socket",
    "benign": None,
}
