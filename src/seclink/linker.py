"""Interfaces, compilation, linking, and back-translation.

A source interface fixes everything the two sides agree on: the context's
strong type with its contract declarations, the trace-level specification
and the state-level policy that enforces it, the check tree, the whole-run
post-condition, and the monitor state.  Compiling erases the contract
declarations from the published type; linking supplies the secure IO
library and the effectful checks.

A context with initial control is a context at a higher-order type: it
takes the trusted program's library as its argument (say `logger -> int`),
and the program only applies it.  The imported context exports that
argument through the contracts, so the check tree's node for the library
guards every call the context makes into it.  One linking path serves both
orders of control.

Back-translation turns a dynamic context into a strong one by partially
applying import; linking the result with the program reproduces, trace for
trace, the run of the compiled program against the original context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .contracts import (
    CheckTree,
    DynValue,
    TypeDesc,
    import_value,
    make_checks_eff,
    shape_matches,
    strip_specs,
)
from .effects import Comp, Ret, is_err
from .monitor import MStateDesc, Policy, SecureIoLib, enforce_policy
from .traces import PolicySpec, PostCond

# Exit code of a whole program whose context failed to import outright.
LINK_FAILURE_EXIT = -1

SourceProg = Callable[[Any], Comp]  # strong context value -> whole computation
TargetProg = Callable[[DynValue], Comp]
TargetCtx = Callable[[SecureIoLib], DynValue]
SourceCtx = Callable[[SecureIoLib, CheckTree], Any]  # -> Ok(strong value) | Err


@dataclass(frozen=True, eq=False)
class SourceInterface:
    label: str
    ctype: TypeDesc
    policy_spec: PolicySpec
    policy: Policy
    cks: CheckTree
    whole_run_post: PostCond
    mstate: MStateDesc

    def __post_init__(self):
        if not shape_matches(self.ctype, self.cks):
            raise ValueError(f"{self.label}: check tree does not match the context type")


@dataclass(frozen=True, eq=False)
class TargetInterface:
    label: str
    ctype: TypeDesc
    policy_spec: PolicySpec
    policy: Policy
    mstate: MStateDesc


def compile_interface(iface: SourceInterface) -> TargetInterface:
    return TargetInterface(
        label=iface.label,
        ctype=strip_specs(iface.ctype),
        policy_spec=iface.policy_spec,
        policy=iface.policy,
        mstate=iface.mstate,
    )


def compile_prog(iface: SourceInterface, prog: SourceProg) -> TargetProg:
    """Wrap the program so it imports its context through the contracts."""
    eff_cks = make_checks_eff(iface.cks)

    def target_prog(dyn_ctx: DynValue) -> Comp:
        imported = import_value(iface.ctype, eff_cks, dyn_ctx)
        if is_err(imported):
            return Ret(LINK_FAILURE_EXIT)
        return prog(imported.value)

    return target_prog


def link_target(iface: TargetInterface, prog: TargetProg, ctx: TargetCtx) -> Comp:
    lib = enforce_policy(iface.policy, iface.mstate)
    return prog(ctx(lib))


def link_source(iface: SourceInterface, prog: SourceProg, ctx: SourceCtx):
    """Source-level linking: the context receives the secure library and
    the effectful checks, aligning its capabilities with a target context.
    Returns the interface post-condition with the whole computation."""
    lib = enforce_policy(iface.policy, iface.mstate)
    strong = ctx(lib, make_checks_eff(iface.cks))
    if is_err(strong):
        return iface.whole_run_post, Ret(LINK_FAILURE_EXIT)
    return iface.whole_run_post, prog(strong.value)


def back_translate_ctx(iface: SourceInterface, ctx: TargetCtx) -> SourceCtx:
    def source_ctx(lib: SecureIoLib, eff_cks: CheckTree):
        return import_value(iface.ctype, eff_cks, ctx(lib))

    return source_ctx


# Kept only so that bench/tracing.py, which wraps these names, still finds them.
compile_prog_dual = compile_prog
link_target_dual = link_target
