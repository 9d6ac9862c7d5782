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
by the function type's spec.  Enforcing a check reads the state twice and
calls the predicate once; `EffCheck.phase1` is its source-level form.

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

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from .effects import (
    Bind,
    Comp,
    Err,
    Ok,
    Ret,
    contract_failure,
    get_mstate,
    is_err,
    record,
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


@dataclass(frozen=True)
class ArrowT(TypeDesc):
    """A function type.  Equality and hashing are structural: the spec is a
    declaration about the arrow, not part of its type."""

    doms: tuple[TypeDesc, ...]
    cod: TypeDesc
    spec: ArrowSpec | None = field(default=None, compare=False)


def strip_specs(td: TypeDesc) -> TypeDesc:
    """Erase contract declarations, keeping only the type structure."""
    if isinstance(td, ArrowT):
        *doms, cod = map(strip_specs, components(td))
        return ArrowT(tuple(doms), cod)
    if isinstance(td, (PairT, EitherT)):
        return type(td)(*map(strip_specs, components(td)))
    return td


# ---------------------------------------------------------------------------
# Dynamic values
# ---------------------------------------------------------------------------


class DynValue:
    __slots__ = ()


@record
class DUnit(DynValue):
    pass


@record
class DInt(DynValue):
    n: int


@record
class DBytes(DynValue):
    data: bytes


@record
class DFd(DynValue):
    fd: int


@record
class DErr(DynValue):
    code: Any
    why: str | None = None


@record
class DPair(DynValue):
    fst: DynValue
    snd: DynValue


@record
class DLeft(DynValue):
    value: DynValue


@record
class DRight(DynValue):
    value: DynValue


@record(eq=False)
class DClosure(DynValue):
    """Boundary function: takes dynamic values, computes a dynamic value."""

    fn: Callable[..., Comp]


# base type -> (its dynamic shape, native to dynamic, dynamic to native)
_BASE_SHAPES = {
    UnitT: (DUnit, lambda v: DUnit(), lambda dv: ()),
    IntT: (DInt, DInt, lambda dv: dv.n),
    BytesT: (DBytes, DBytes, lambda dv: dv.data),
    FdT: (DFd, DFd, lambda dv: dv.fd),
    ErrT: (DErr, lambda v: DErr(v.code, v.why), lambda dv: Err(dv.code, dv.why)),
}


# ---------------------------------------------------------------------------
# Check trees and effectful checks
# ---------------------------------------------------------------------------

# (x, state-before, y, state-after) -> verdict
Check = Callable[[Any, Any, Any, Any], bool]

# One state-read node serves every check: each time the loop reaches it is a read.
_READ = get_mstate()


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
    """A check as linking hands it out.  Enforcement calls `ck` once between
    two state reads; `phase1` is the form a source context may run: it reads
    the state and returns the second phase, which reads it again and decides."""

    ck: Check

    def phase1(self, x) -> Comp:
        def got_before(s0):
            phase2 = lambda y: Bind(_READ, lambda s1: Ret((s1, bool(self.ck(x, s0, y, s1)))))
            return Ret((s0, phase2))

        return Bind(_READ, got_before)


make_check_eff = EffCheck


def make_checks_eff(tree: CheckTree) -> CheckTree:
    """Lift every check in the tree to its two-phase effectful form."""
    if isinstance(tree, Leaf):
        return tree
    if isinstance(tree, EmptyNode):
        return EmptyNode(make_checks_eff(tree.left), make_checks_eff(tree.right))
    if isinstance(tree, Node):
        return Node(EffCheck(tree.ck), make_checks_eff(tree.left), make_checks_eff(tree.right))
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
    """Guard `f` behind the check, read with nothing in between: denial
    returns a contract failure with no events and without calling `f`."""
    ck, failure = eff_ck.ck, Ret(contract_failure(f"pre:{label}"))

    def wrapped(*args):
        before = lambda s0: Bind(_READ, lambda s1: f(*args) if ck(args, s0, (), s1) else failure)
        return Bind(_READ, before)

    return wrapped


def enforce_post(eff_ck: EffCheck, f: Callable[..., Comp], label: str) -> Callable[..., Comp]:
    """Run `f`, then judge its result between the two state snapshots; a
    failed verdict replaces the result with a contract failure."""
    ck, failure = eff_ck.ck, Ret(contract_failure(f"post:{label}"))

    def wrapped(*args):
        def before(s0):
            judge = lambda y: Bind(_READ, lambda s1: Ret(y) if ck(args, s0, y, s1) else failure)
            return Bind(f(*args), judge)

        return Bind(_READ, before)

    return wrapped


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------


def export_value(td: TypeDesc, cks: CheckTree, value) -> DynValue:
    """Strong to dynamic.  Total; functions become guarded closures."""
    base = _BASE_SHAPES.get(type(td))
    if base is not None:
        return base[1](value)
    if isinstance(td, PairT):
        fst_tree, snd_tree = subtrees(td, cks)
        return DPair(export_value(td.fst, fst_tree, value[0]), export_value(td.snd, snd_tree, value[1]))
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
    base = _BASE_SHAPES.get(type(td))
    if base is not None:
        if not isinstance(dv, base[0]):
            return contract_failure(f"import:{type(td).__name__}")
        return Ok(base[2](dv))
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
            return Ok(inner.value if isinstance(inner.value, Err) else Err(inner.value))
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
    """The context's call enters trusted code at one point: `f`, behind `_apply_node`."""
    *arg_trees, cod_tree = subtrees(td, cks)
    guarded, doms, cod = _apply_node(td, cks, f), td.doms, td.cod

    def fn(*dyn_args):
        if len(dyn_args) != len(doms):
            return Ret(_dyn_failure(contract_failure(f"import:arity:{_label(td)}")))
        natives = []
        for dom, tree, da in zip(doms, arg_trees, dyn_args):
            imported = import_value(dom, tree, da)
            if is_err(imported):
                return Ret(_dyn_failure(imported))
            natives.append(imported.value)
        return Bind(guarded(*natives), lambda result: Ret(export_value(cod, cod_tree, result)))

    return DClosure(fn)


def _import_arrow(td: ArrowT, cks: CheckTree, dclo: DClosure) -> Callable[..., Comp]:
    """Trusted code's call enters the context at one point: `enter`, behind `_apply_node`."""
    *arg_trees, cod_tree = subtrees(td, cks)
    doms, cod = td.doms, td.cod

    def enter(*natives):
        dyn_args = [export_value(dom, tree, x) for dom, tree, x in zip(doms, arg_trees, natives)]
        return Bind(dclo.fn(*dyn_args), imported)

    def imported(dyn_result):  # failing to import is in-band: codomains include errors
        outcome = import_value(cod, cod_tree, dyn_result)
        return Ret(outcome.value if not is_err(outcome) else outcome)

    return _apply_node(td, cks, enter)


def _apply_node(td: ArrowT, cks: CheckTree, f: Callable[..., Comp]) -> Callable[..., Comp]:
    """`f` behind the check, or one step: run once the loop reaches a call, not when it is built."""
    if not isinstance(cks, Node):
        start = lambda args: f(*args)
        return lambda *args: Bind(Ret(args), start)
    if td.spec is None:
        raise ValueError("check node at an arrow without a spec")
    eff_ck = cks.ck if isinstance(cks.ck, EffCheck) else EffCheck(cks.ck)
    if td.spec.kind is CheckKind.PRE:
        return enforce_pre(eff_ck, f, _label(td))
    return enforce_post(eff_ck, f, _label(td))
