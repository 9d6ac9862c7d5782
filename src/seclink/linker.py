"""Interfaces, compilation, linking, and back-translation.

A source interface fixes everything the two sides agree on: the context's
strong type with its contract declarations, the trace-level specification
and the state-level policy that enforces it, the check tree, the whole-run
post-condition, and the monitor state.  Compiling erases the contract
declarations from the published type; linking supplies the secure IO
library and the check tree, and puts the library's policy in force around
the program, so it decides each call the context makes.  Both compiling and
the program's import of its context depend on the interface alone, so an
interface stages them once, when it is built, and every link reuses them.

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

from typing import Any, Callable

from .contracts import CheckTree, DynValue, TypeDesc, _importer, errors_fit
from .contracts import shape_matches, strip_specs
from .effects import Comp, Ret, _trusted, is_err, record
from .monitor import MStateDesc, Policy, SecureIoLib, enforce_policy
from .traces import PolicySpec, PostCond

# Exit code of a whole program whose context failed to import outright.
LINK_FAILURE_EXIT = -1

# Strings: `typing` caches a subscripted alias, and with it this whole import.
SourceProg = "Callable[[Any], Comp]"  # strong context value -> whole computation
TargetProg = "Callable[[DynValue], Comp]"
TargetCtx = "Callable[[SecureIoLib], DynValue]"
SourceCtx = "Callable[[SecureIoLib, CheckTree], Any]"  # (library, check tree) -> Ok(strong value) | Err


class _Staged:
    """What an interface stages when it is built, outside its fields: the
    program's importer of the context and the compiled interface.  `replace`
    builds a new interface, which stages again."""

    __slots__ = ("importer", "target")


@record(eq=False)
class SourceInterface(_Staged):
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
        if not errors_fit(self.ctype):
            raise ValueError(f"{self.label}: a sum's error side must be a base type")
        object.__setattr__(self, "importer", _importer(self.ctype, self.cks))
        target = TargetInterface(self.label, strip_specs(self.ctype), self.policy_spec, self.policy, self.mstate)
        object.__setattr__(self, "target", target)


@record(eq=False)
class TargetInterface:
    label: str
    ctype: TypeDesc
    policy_spec: PolicySpec
    policy: Policy
    mstate: MStateDesc


def compile_interface(iface: SourceInterface) -> TargetInterface:
    """Compiling reads nothing but the interface, so the interface holds its
    compiled form, built with it."""
    return iface.target


def compile_prog(iface: SourceInterface, prog: SourceProg) -> TargetProg:
    """Wrap the program so it imports its context through the contracts."""
    def target_prog(dyn_ctx: DynValue) -> Comp:
        imported = iface.importer(dyn_ctx)
        if is_err(imported):
            return Ret(LINK_FAILURE_EXIT)
        return prog(imported.value)

    return target_prog


def instantiate_ctx(ctx: TargetCtx, lib: SecureIoLib) -> DynValue | None:
    """The context for `lib`, or None, which fails to import, if the context's factory raises."""
    try:
        return ctx(lib)
    except Exception:
        return None


def link_target(iface: TargetInterface, prog: TargetProg, ctx: TargetCtx) -> Comp:
    lib = enforce_policy(iface.policy, iface.mstate)
    return _trusted(prog(instantiate_ctx(ctx, lib)), lib.policy)


def link_source(iface: SourceInterface, prog: SourceProg, ctx: SourceCtx):
    """Source-level linking: the context receives the secure library and
    the check tree, aligning its capabilities with a target context.
    Returns the interface post-condition with the whole computation."""
    lib = enforce_policy(iface.policy, iface.mstate)
    strong = ctx(lib, iface.cks)
    if is_err(strong):
        return iface.whole_run_post, Ret(LINK_FAILURE_EXIT)
    return iface.whole_run_post, _trusted(prog(strong.value), lib.policy)


def back_translate_ctx(iface: SourceInterface, ctx: TargetCtx) -> SourceCtx:
    def source_ctx(lib: SecureIoLib, cks: CheckTree):  # stages anew only for a tree not the interface's
        return (iface.importer if cks is iface.cks else _importer(iface.ctype, cks))(instantiate_ctx(ctx, lib))

    return source_ctx


# Kept only so that bench/tracing.py, which wraps these names, still finds them.
compile_prog_dual = compile_prog
link_target_dual = link_target
