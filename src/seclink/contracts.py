"""Higher-order contracts across the trusted/untrusted boundary.

Values cross the boundary in a dynamic representation described by runtime
type descriptors.  `export_value` turns a strongly-typed native value into
its dynamic form; `import_value` goes the other way and can fail.  At
function types the two are mutually recursive: an exported function imports
its arguments and exports its result, an imported function exports its
arguments and imports its result, so wrappers accumulate at each crossing.

Checks are boolean predicates over two monitor-state snapshots.  They are
arranged in a tree mirroring the type: a `Node` sits at a function type
carrying a spec, an `EmptyNode` descends through structure, and a `Leaf`
closes a subtree with nothing to check.  Whether a node's check guards the
call (a pre-condition) or judges its outcome (a post-condition) is declared
by the function type's spec.

How a tree lines up with a type is written once, in `subtrees`: a node's
left child goes with a pair's first side, a sum's left side, or an arrow's
arguments, and its right child with the other side or the codomain.  An
arrow's argument trees nest to the right in `EmptyNode`s, one per argument
but the last: at `ArrowT((a, b, c), d)` the left child is
`EmptyNode(ta, EmptyNode(tb, tc))`.  A `Leaf` anywhere, in that spine too,
closes everything below it.  Every walk over a type and its tree recurses
over `zip(components(td), subtrees(td, tree))`.

All boundary function types return error-inclusive sums, so a failed check
is reported in-band as a contract failure and execution can recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from .effects import (
    Comp,
    Err,
    Ok,
    Ret,
    bind,
    contract_failure,
    do,
    get_mstate,
    is_err,
)

# ---------------------------------------------------------------------------
# Runtime type descriptors
# ---------------------------------------------------------------------------


class TypeDesc:
    __slots__ = ()


@dataclass(frozen=True)
class UnitT(TypeDesc):
    pass


@dataclass(frozen=True)
class IntT(TypeDesc):
    pass


@dataclass(frozen=True)
class BytesT(TypeDesc):
    pass


@dataclass(frozen=True)
class FdT(TypeDesc):
    pass


@dataclass(frozen=True)
class ErrT(TypeDesc):
    pass


@dataclass(frozen=True)
class PairT(TypeDesc):
    fst: TypeDesc
    snd: TypeDesc


@dataclass(frozen=True)
class EitherT(TypeDesc):
    left: TypeDesc
    right: TypeDesc


def option_t(payload: TypeDesc) -> EitherT:
    """Options are sums with a unit miss case on the error side."""
    return EitherT(payload, UnitT())


class CheckKind(Enum):
    PRE = "pre"
    POST = "post"


@dataclass(frozen=True, eq=False)
class ArrowSpec:
    """Declared contract of a boundary function.

    `kind` says how the check-tree node at this arrow is enforced: a PRE
    check guards the call, a POST check judges the result.  `pre`/`post`
    are the trace-level obligations the check stands in for; they are never
    executed on the hot path, only by the constraint-validation suite.
    """

    label: str
    kind: CheckKind
    pre: Callable[[tuple, tuple], bool] | None = None  # (args, history)
    post: Callable[[tuple, tuple, Any, tuple], bool] | None = None  # (args, h, r, lt)


@dataclass(frozen=True, eq=False)
class ArrowT(TypeDesc):
    doms: tuple[TypeDesc, ...]
    cod: TypeDesc
    spec: ArrowSpec | None = None


def strip_specs(td: TypeDesc) -> TypeDesc:
    """Erase contract declarations, keeping only the type structure."""
    if isinstance(td, ArrowT):
        return ArrowT(tuple(strip_specs(d) for d in td.doms), strip_specs(td.cod), None)
    if isinstance(td, PairT):
        return PairT(strip_specs(td.fst), strip_specs(td.snd))
    if isinstance(td, EitherT):
        return EitherT(strip_specs(td.left), strip_specs(td.right))
    return td


# ---------------------------------------------------------------------------
# Dynamic values
# ---------------------------------------------------------------------------


class DynValue:
    __slots__ = ()


@dataclass(frozen=True)
class DUnit(DynValue):
    pass


@dataclass(frozen=True)
class DInt(DynValue):
    n: int


@dataclass(frozen=True)
class DBytes(DynValue):
    data: bytes


@dataclass(frozen=True)
class DFd(DynValue):
    fd: int


@dataclass(frozen=True)
class DErr(DynValue):
    code: Any
    why: str | None = None


@dataclass(frozen=True)
class DPair(DynValue):
    fst: DynValue
    snd: DynValue


@dataclass(frozen=True)
class DLeft(DynValue):
    value: DynValue


@dataclass(frozen=True)
class DRight(DynValue):
    value: DynValue


@dataclass(frozen=True, eq=False)
class DClosure(DynValue):
    """Boundary function: takes dynamic values, computes a dynamic value."""

    fn: Callable[..., Comp]


_BASE_SHAPES = {UnitT: DUnit, IntT: DInt, BytesT: DBytes, FdT: DFd, ErrT: DErr}


# ---------------------------------------------------------------------------
# Check trees and effectful checks
# ---------------------------------------------------------------------------

# (x, state-before, y, state-after) -> verdict
Check = Callable[[Any, Any, Any, Any], bool]


class CheckTree:
    __slots__ = ()


@dataclass(frozen=True)
class Leaf(CheckTree):
    pass


@dataclass(frozen=True, eq=False)
class EmptyNode(CheckTree):
    left: CheckTree
    right: CheckTree


@dataclass(frozen=True, eq=False)
class Node(CheckTree):
    ck: Check
    left: CheckTree
    right: CheckTree


@dataclass(frozen=True, eq=False)
class EffCheck:
    """Two-phase stateful check.

    Phase one snapshots the monitor state before a call and hands back the
    second phase, which snapshots the state after and decides the verdict.
    Neither phase records events.
    """

    phase1: Callable[[Any], Comp]


def make_check_eff(ck: Check) -> EffCheck:
    def phase1(x):
        def got_before(s0):
            def phase2(y):
                return bind(get_mstate(), lambda s1: Ret((s1, bool(ck(x, s0, y, s1)))))

            return Ret((s0, phase2))

        return bind(get_mstate(), got_before)

    return EffCheck(phase1)


def make_checks_eff(tree: CheckTree) -> CheckTree:
    """Lift every check in the tree to its two-phase effectful form."""
    if isinstance(tree, Leaf):
        return tree
    if isinstance(tree, EmptyNode):
        return EmptyNode(make_checks_eff(tree.left), make_checks_eff(tree.right))
    if isinstance(tree, Node):
        return Node(make_check_eff(tree.ck), make_checks_eff(tree.left), make_checks_eff(tree.right))
    raise TypeError(f"not a check tree: {tree!r}")


def components(td: TypeDesc) -> tuple[TypeDesc, ...]:
    """An arrow's domains then its codomain, a pair's or sum's two sides."""
    if isinstance(td, ArrowT):
        return (*td.doms, td.cod)
    if isinstance(td, PairT):
        return (td.fst, td.snd)
    if isinstance(td, EitherT):
        return (td.left, td.right)
    return ()


def subtrees(td: TypeDesc, tree: CheckTree) -> tuple[CheckTree, ...] | None:
    """The subtree for each of `components(td)` by the rule in the module
    docstring, or None if the tree does not line up with the type."""
    if isinstance(tree, Leaf):
        return (tree,) * len(components(td))
    if not isinstance(tree, (Node, EmptyNode)):
        raise TypeError(f"not a check tree: {tree!r}")
    if isinstance(td, ArrowT):
        spine, args = tree.left, []
        for _ in td.doms[1:]:
            if isinstance(spine, Leaf):
                break
            if not isinstance(spine, EmptyNode):
                return None
            args.append(spine.left)
            spine = spine.right
        args += [spine] * (len(td.doms) - len(args))
        return (*args, tree.right)
    if isinstance(td, (PairT, EitherT)):
        return (tree.left, tree.right)
    return None


def shape_matches(td: TypeDesc, tree: CheckTree) -> bool:
    """A tree instruments a type when it lines up with it and, short of a
    `Leaf`, holds a `Node` exactly where the type is an arrow with a spec."""
    if isinstance(tree, Leaf):
        return True
    subs = subtrees(td, tree)
    specced = isinstance(td, ArrowT) and td.spec is not None
    return (
        subs is not None
        and isinstance(tree, Node) == specced
        and all(shape_matches(c, t) for c, t in zip(components(td), subs))
    )


# ---------------------------------------------------------------------------
# Enforcement combinators
# ---------------------------------------------------------------------------


def enforce_pre(eff_ck: EffCheck, f: Callable[..., Comp], label: str) -> Callable[..., Comp]:
    """Guard `f` behind the check; denial returns a contract failure with
    no events and without calling `f`."""

    @do
    def wrapped(*args):
        _s0, phase2 = yield eff_ck.phase1(args)
        _s1, verdict = yield phase2(())
        if not verdict:
            return contract_failure(f"pre:{label}")
        result = yield f(*args)
        return result

    return wrapped


def enforce_post(eff_ck: EffCheck, f: Callable[..., Comp], label: str) -> Callable[..., Comp]:
    """Run `f`, then judge its result between the two state snapshots; a
    failed verdict replaces the result with a contract failure."""

    @do
    def wrapped(*args):
        _s0, phase2 = yield eff_ck.phase1(args)
        result = yield f(*args)
        _s1, verdict = yield phase2(result)
        if not verdict:
            return contract_failure(f"post:{label}")
        return result

    return wrapped


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------


def export_value(td: TypeDesc, cks: CheckTree, value) -> DynValue:
    """Strong to dynamic.  Total; functions become guarded closures."""
    if isinstance(td, UnitT):
        return DUnit()
    if isinstance(td, IntT):
        return DInt(value)
    if isinstance(td, BytesT):
        return DBytes(value)
    if isinstance(td, FdT):
        return DFd(value)
    if isinstance(td, ErrT):
        return DErr(value.code, value.why)
    if isinstance(td, PairT):
        fst_tree, snd_tree = subtrees(td, cks)
        return DPair(
            export_value(td.fst, fst_tree, value[0]),
            export_value(td.snd, snd_tree, value[1]),
        )
    if isinstance(td, EitherT):
        left_tree, right_tree = subtrees(td, cks)
        if isinstance(value, Ok):
            return DLeft(export_value(td.left, left_tree, value.value))
        payload = value if isinstance(td.right, ErrT) else value.code
        return DRight(export_value(td.right, right_tree, payload))
    if isinstance(td, ArrowT):
        return _export_arrow(td, cks, value)
    raise TypeError(f"unknown type descriptor {td!r}")


def import_value(td: TypeDesc, cks: CheckTree, dv: DynValue):
    """Dynamic to strong: `Ok(value)` or a contract failure on mismatch."""
    for base, shape in _BASE_SHAPES.items():
        if isinstance(td, base):
            if not isinstance(dv, shape):
                return contract_failure(f"import:{base.__name__}")
            if isinstance(dv, DUnit):
                return Ok(())
            if isinstance(dv, DErr):
                return Ok(Err(dv.code, dv.why))
            if isinstance(dv, DInt):
                return Ok(dv.n)
            if isinstance(dv, DBytes):
                return Ok(dv.data)
            return Ok(dv.fd)
    if isinstance(td, PairT):
        if not isinstance(dv, DPair):
            return contract_failure("import:PairT")
        fst_tree, snd_tree = subtrees(td, cks)
        fst = import_value(td.fst, fst_tree, dv.fst)
        if is_err(fst):
            return fst
        snd = import_value(td.snd, snd_tree, dv.snd)
        if is_err(snd):
            return snd
        return Ok((fst.value, snd.value))
    if isinstance(td, EitherT):
        left_tree, right_tree = subtrees(td, cks)
        if isinstance(dv, DLeft):
            inner = import_value(td.left, left_tree, dv.value)
            return Ok(Ok(inner.value)) if not is_err(inner) else inner
        if isinstance(dv, DRight):
            inner = import_value(td.right, right_tree, dv.value)
            if is_err(inner):
                return inner
            payload = inner.value
            return Ok(payload if isinstance(payload, Err) else Err(payload))
        return contract_failure("import:EitherT")
    if isinstance(td, ArrowT):
        if not isinstance(dv, DClosure):
            return contract_failure(f"import:arrow:{_label(td)}")
        return Ok(_import_arrow(td, cks, dv))
    raise TypeError(f"unknown type descriptor {td!r}")


def _label(td: ArrowT) -> str:
    return td.spec.label if td.spec is not None else "fn"


def _dyn_failure(e: Err) -> DynValue:
    return DRight(DErr(e.code, e.why))


def _export_arrow(td: ArrowT, cks: CheckTree, f: Callable[..., Comp]) -> DClosure:
    *arg_trees, cod_tree = subtrees(td, cks)
    guarded = _apply_node(td, cks, f)

    @do
    def fn(*dyn_args):
        if len(dyn_args) != len(td.doms):
            return _dyn_failure(contract_failure(f"import:arity:{_label(td)}"))
        natives = []
        for dom, tree, da in zip(td.doms, arg_trees, dyn_args):
            imported = import_value(dom, tree, da)
            if is_err(imported):
                return _dyn_failure(imported)
            natives.append(imported.value)
        result = yield guarded(*natives)
        return export_value(td.cod, cod_tree, result)

    return DClosure(fn)


def _import_arrow(td: ArrowT, cks: CheckTree, dclo: DClosure) -> Callable[..., Comp]:
    *arg_trees, cod_tree = subtrees(td, cks)

    @do
    def adapter(*natives):
        dyn_args = [
            export_value(dom, tree, x) for dom, tree, x in zip(td.doms, arg_trees, natives)
        ]
        dyn_result = yield dclo.fn(*dyn_args)
        imported = import_value(td.cod, cod_tree, dyn_result)
        # A result that fails to import is an in-band contract failure: the
        # codomain includes errors by construction.
        return imported.value if not is_err(imported) else imported

    return _apply_node(td, cks, adapter)


def _apply_node(td: ArrowT, cks: CheckTree, f: Callable[..., Comp]) -> Callable[..., Comp]:
    if not isinstance(cks, Node):
        return f
    if td.spec is None:
        raise ValueError("check node at an arrow without a spec")
    eff_ck = cks.ck if isinstance(cks.ck, EffCheck) else make_check_eff(cks.ck)
    if td.spec.kind is CheckKind.PRE:
        return enforce_pre(eff_ck, f, _label(td))
    return enforce_post(eff_ck, f, _label(td))
