"""Higher-order contracts across the trusted/untrusted boundary.

Values cross the boundary in a dynamic representation described by runtime
type descriptors.  `export_value` turns a strongly-typed native value into
its dynamic form; `import_value` goes the other way and can fail.  At
function types the two are mutually recursive: an exported function imports
its arguments and exports its result, an imported function exports its
arguments and imports its result, so wrappers accumulate at each crossing.
Both are staged: `_exporter` / `_importer` walk a (type, check tree) pair
once and return a projection that crossings apply, so nothing is walked per
crossing.  The linker stages an interface's boundary once, when the
interface is built, and keeps it there; one export of the web server's
`send` callback then allocates two closures.

Checks are boolean predicates over two monitor-state snapshots.  They are
arranged in a tree mirroring the type: a `Node` sits at a function type
carrying a spec, an `EmptyNode` descends through structure, and a `Leaf`
closes a subtree with nothing to check.  The spec declares whether the check
guards the call (PRE) or judges its outcome (POST).  Every call at an arrow,
exported or imported, is one `Do` node running `_checked`: PRE reads the
state twice, asks the check, then calls; POST reads, calls, reads, judges.

How a tree lines up with a type is written once, in `subtrees`: a node's
left child goes with a pair's first side, a sum's left side, or an arrow's
arguments, and its right child with the other side or the codomain.  An
arrow's argument trees nest to the right in `EmptyNode`s, one per argument
but the last: at `ArrowT((a, b, c), d)` the left child is
`EmptyNode(ta, EmptyNode(tb, tc))`.  A `Leaf`, in that spine too, is a
`Leaf` at every component below it.  Every walk over a type and its tree
recurses over `zip(components(td), subtrees(td, tree))`.  An interface's
tree holds every check its type declares, so it follows from the type and
one check per spec label: `check_tree` builds it, `shape_matches` checks it.

All boundary function types return error-inclusive sums, so a failed check
is reported in-band as a contract failure and execution can recover.
"""

from __future__ import annotations

from dataclasses import field
from enum import Enum
from typing import Any, Callable

from .effects import Bind, Comp, Do, Err, Ok, Ret, _trusted, contract_failure, get_mstate, guard, record

# ---------------------------------------------------------------------------
# Runtime type descriptors
# ---------------------------------------------------------------------------


class TypeDesc:
    __slots__ = ()


@record
class UnitT(TypeDesc):
    pass


@record
class IntT(TypeDesc):
    pass


@record
class BytesT(TypeDesc):
    pass


@record
class FdT(TypeDesc):
    pass


@record
class ErrT(TypeDesc):
    pass


@record
class PairT(TypeDesc):
    fst: TypeDesc
    snd: TypeDesc


@record
class EitherT(TypeDesc):
    left: TypeDesc
    right: TypeDesc


class CheckKind(Enum):
    PRE = "pre"
    POST = "post"


@record(eq=False)
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


@record
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


def _base_importer(t: type, shape: type, native: Callable) -> Callable[[DynValue], Any]:
    return lambda dv: Ok(native(dv)) if isinstance(dv, shape) else contract_failure(f"import:{t.__name__}")


# base type -> its importer; built once, since a base type has no tree to stage
_BASE_IMPORTERS = {t: _base_importer(t, shape, native) for t, (shape, _, native) in _BASE_SHAPES.items()}


# ---------------------------------------------------------------------------
# Check trees
# ---------------------------------------------------------------------------

# (x, state-before, y, state-after) -> verdict
Check = Callable[[Any, Any, Any, Any], bool]

# One state-read node serves every check: each time the loop reaches it is a read.
_READ = get_mstate()


class CheckTree:
    __slots__ = ()


@record
class Leaf(CheckTree):
    pass


@record
class EmptyNode(CheckTree):
    left: CheckTree
    right: CheckTree


@record
class Node(CheckTree):
    ck: Check
    left: CheckTree
    right: CheckTree


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
    """A tree instruments a type when it lines up with it and holds a `Node`
    exactly where the type is an arrow with a spec, so a `Leaf` fits only
    where no spec sits at or below it.  `check_tree` builds such a tree."""
    subs = subtrees(td, tree)
    specced = isinstance(td, ArrowT) and td.spec is not None
    return subs is not None and isinstance(tree, Node) == specced and all(map(shape_matches, components(td), subs))


def check_tree(td: TypeDesc, checks: dict[str, Check]) -> CheckTree:
    """The smallest tree `shape_matches` accepts: `checks[label]` at each arrow
    whose spec carries that label, a `Leaf` wherever no spec sits at or below.
    A spec with no check, or a check no spec names, is a `ValueError`."""
    labels = set()

    def join(left: CheckTree, right: CheckTree) -> CheckTree:
        return Leaf() if isinstance(left, Leaf) and isinstance(right, Leaf) else EmptyNode(left, right)

    def grow(td: TypeDesc) -> CheckTree:
        *args, cod = [grow(c) for c in components(td)] or [Leaf()]
        left = args.pop() if args else Leaf()
        while args:  # an arrow's argument trees nest to the right
            left = join(args.pop(), left)
        if getattr(td, "spec", None) is None:
            return join(left, cod)
        labels.add(td.spec.label)
        return Node(checks.get(td.spec.label), left, cod)

    tree = grow(td)
    if labels != checks.keys():
        raise ValueError(f"checks for {sorted(checks)}, but the specs are labelled {sorted(labels)}")
    return tree


def errors_fit(td: TypeDesc) -> bool:
    """Each sum in `td` has a base error side, which a contract failure fits."""
    fits = not isinstance(td, EitherT) or type(td.right) in _BASE_SHAPES
    return fits and all(map(errors_fit, components(td)))


# ---------------------------------------------------------------------------
# Enforcement combinators, staged once per arrow and applied to each `f`
# ---------------------------------------------------------------------------


def _checked(ck: Check | None, pre: bool, failure: Err | None, f: Callable[..., Comp], args: tuple):
    """One call at an arrow, in the order the module docstring gives; a PRE
    check that says no fails without calling `f`, and with no check it only calls `f`."""
    if ck is None:
        return (yield f(*args))
    s0 = yield _READ
    if pre:
        s1 = yield _READ
        return (yield f(*args)) if ck(args, s0, (), s1) else failure
    y = yield f(*args)
    s1 = yield _READ
    return y if ck(args, s0, y, s1) else failure


def _guard(td: ArrowT, cks: CheckTree) -> Callable[[Callable[..., Comp]], Callable[..., Comp]]:
    """Stages the arrow's check, its kind and its failure once; each call is
    a `Do` node of `_checked`, so `f` starts only when the loop reaches it."""
    if not isinstance(cks, Node):
        ck, pre, failure = None, False, None
    elif td.spec is None:
        raise ValueError("check node at an arrow without a spec")
    else:
        ck, kind = cks.ck, td.spec.kind
        pre, failure = kind is CheckKind.PRE, contract_failure(f"{kind.value}:{_label(td)}")
    return lambda f: lambda *args: Do(_checked, (ck, pre, failure, f, args))


# ---------------------------------------------------------------------------
# Export / import: projections staged per (type, check tree)
# ---------------------------------------------------------------------------


def export_value(td: TypeDesc, cks: CheckTree, value) -> DynValue:
    """Strong to dynamic.  Total; functions become guarded closures."""
    return _exporter(td, cks)(value)


def import_value(td: TypeDesc, cks: CheckTree, dv: DynValue):
    """Dynamic to strong: `Ok(value)` or a contract failure on mismatch.
    Stages on each call; linking applies the importer its interface staged."""
    return _importer(td, cks)(dv)


def _exporter(td: TypeDesc, cks: CheckTree) -> Callable[[Any], DynValue]:
    base = _BASE_SHAPES.get(type(td))
    if base is not None:
        return base[1]
    if isinstance(td, ArrowT):
        return _export_arrow(td, cks)
    if not isinstance(td, (PairT, EitherT)):
        raise TypeError(f"unknown type descriptor {td!r}")
    first, second = map(_exporter, components(td), subtrees(td, cks))
    if isinstance(td, PairT):
        return lambda v: DPair(first(v[0]), second(v[1]))
    whole = isinstance(td.right, ErrT)  # the error side carries the whole `Err`, or its code
    return lambda v: DLeft(first(v.value)) if isinstance(v, Ok) else DRight(second(v if whole else v.code))


def _importer(td: TypeDesc, cks: CheckTree) -> Callable[[DynValue], Any]:
    base = _BASE_IMPORTERS.get(type(td))
    if base is not None:
        return base
    if isinstance(td, ArrowT):
        exporters, imported, behind_check = _arrow_import(td, cks)
        why = f"import:arrow:{_label(td)}"

        def arrow(f):  # looks `_import_arrow` up at each import, so replacing it takes effect
            if not isinstance(f, DClosure):
                return contract_failure(why)
            return Ok(behind_check(_import_arrow(exporters, imported, f)))

        return arrow
    if not isinstance(td, (PairT, EitherT)):
        raise TypeError(f"unknown type descriptor {td!r}")
    first, second = map(_importer, components(td), subtrees(td, cks))
    why = f"import:{type(td).__name__}"

    def pair(dv):
        if not isinstance(dv, DPair):
            return contract_failure(why)
        fst = first(dv.fst)
        if isinstance(fst, Err):
            return fst
        snd = second(dv.snd)
        return snd if isinstance(snd, Err) else Ok((fst.value, snd.value))

    def either(dv):
        if isinstance(dv, DLeft):
            inner = first(dv.value)
            return inner if isinstance(inner, Err) else Ok(Ok(inner.value))
        if not isinstance(dv, DRight):
            return contract_failure(why)
        inner = second(dv.value)
        if isinstance(inner, Err):
            return inner
        return Ok(inner.value if isinstance(inner.value, Err) else Err(inner.value))

    return pair if isinstance(td, PairT) else either


def _label(td: ArrowT) -> str:
    return td.spec.label if td.spec is not None else "fn"


def _dyn_failure(e: Err) -> DynValue:
    return DRight(DErr(e.code, e.why))


def _export_arrow(td: ArrowT, cks: CheckTree) -> Callable[[Callable[..., Comp]], DClosure]:
    """The context's call enters trusted code at one point: `f`, behind the
    check, run under a trusted mark."""
    *arg_trees, cod_tree = subtrees(td, cks)
    importers, export_cod = tuple(map(_importer, td.doms, arg_trees)), _exporter(td.cod, cod_tree)
    behind_check, exported = _guard(td, cks), lambda result: Ret(export_cod(result))
    arity = f"import:arity:{_label(td)}"

    def export(f):
        guarded = behind_check(f)

        def fn(*dyn_args):
            if len(dyn_args) != len(importers):
                return Ret(_dyn_failure(contract_failure(arity)))
            natives = []
            for imp, da in zip(importers, dyn_args):
                imported = imp(da)
                if isinstance(imported, Err):
                    return Ret(_dyn_failure(imported))
                natives.append(imported.value)
            return Bind(_trusted(guarded(*natives)), exported)

        return DClosure(fn)

    return export


def _import_arrow(exporters: tuple, imported: Callable, dclo: DClosure) -> Callable[..., Comp]:
    """Trusted code's call enters the context at one point: `enter`, which
    the importer puts behind the check.  The context's computation runs
    under a guard; importing its result does not."""

    def enter(*natives):
        return Bind(guard(dclo.fn(*[export(x) for export, x in zip(exporters, natives)])), imported)

    return enter


def _arrow_import(td: ArrowT, cks: CheckTree):
    """The arrow's own part of an import: exporters, result import, guard."""
    *arg_trees, cod_tree = subtrees(td, cks)
    exporters, import_cod = tuple(map(_exporter, td.doms, arg_trees)), _importer(td.cod, cod_tree)

    def imported(dyn_result):  # failing to import is in-band: codomains include errors
        outcome = import_cod(dyn_result)
        return Ret(outcome if isinstance(outcome, Err) else outcome.value)

    return exporters, imported, _guard(td, cks)
