"""Secure linking of trusted IO programs with untrusted plugin code.

Trusted code and untrusted code meet at a typed boundary.  Crossing values
are wrapped in higher-order contracts, and all IO from the untrusted side
goes through a reference monitor enforcing a state-level policy, so that
whole-run trace properties verified for the trusted side survive linking
with arbitrary plugins.
"""

from .effects import (
    GET_MSTATE,
    Caller,
    Comp,
    Err,
    ErrCode,
    Event,
    IoOp,
    Ok,
    bind,
    contract_failure,
    do,
    is_contract_failure,
    is_err,
    is_ok,
    ret,
)
from .interp import GhostInvariantError, RunResult, interpret
from .monitor import (
    MStateDesc,
    SecureIoLib,
    enforce_policy,
    full_trace_mstate,
    last_event_mstate,
    replay,
    stateless_mstate,
    webserver_mstate,
)
from .traces import (
    beh,
    did_not_respond,
    enforced_locally,
    every_request_gets_a_response,
    in_folder,
    is_open,
    is_opened_by_ctx,
    satisfies,
    wrote_to,
)
from .worlds import World, dump_scenario, load_scenario, make_world, render_trace

__all__ = [
    "GET_MSTATE",
    "Caller",
    "Comp",
    "Err",
    "ErrCode",
    "Event",
    "GhostInvariantError",
    "IoOp",
    "MStateDesc",
    "Ok",
    "RunResult",
    "SecureIoLib",
    "World",
    "beh",
    "bind",
    "contract_failure",
    "did_not_respond",
    "do",
    "dump_scenario",
    "enforce_policy",
    "enforced_locally",
    "every_request_gets_a_response",
    "full_trace_mstate",
    "in_folder",
    "interpret",
    "is_contract_failure",
    "is_err",
    "is_ok",
    "is_open",
    "is_opened_by_ctx",
    "last_event_mstate",
    "load_scenario",
    "make_world",
    "ret",
    "render_trace",
    "replay",
    "satisfies",
    "stateless_mstate",
    "webserver_mstate",
    "wrote_to",
]
