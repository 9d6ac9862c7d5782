"""Randomized validation of a bundle's contract constraints.

A bundle is sound when its state-level checks stand in for its trace-level
obligations.  Four implications tie them together; which pair applies to a
check depends on whether it guards calls or judges results:

- guard checks: acceptance implies the declared pre-condition over every
  history the captured states abstract, and the declared post-condition
  keeps the local trace within the policy specification;
- result checks: acceptance (with states replayed from the history and the
  extended history) implies the declared post-condition, and a substituted
  contract failure satisfies it too, provided the policy was enforced
  locally.

Nothing here is proven; the suite searches for counterexamples over
generated samples and reports the ones it finds, along with how often each
implication's hypotheses were actually exercised.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from .contracts import ArrowSpec, ArrowT, CheckKind, CheckTree, EitherT, Node, PairT, TypeDesc
from .contracts import BytesT, FdT, IntT, components, subtrees
from .effects import Caller, Err, ErrCode, Event, IoOp, Ok, contract_failure, ret
from .httputil import http_ok
from .monitor import MStateDesc, replay
from .traces import enforced_locally


@dataclass
class Counterexample:
    arrow: str
    constraint: str
    detail: str


@dataclass
class ValidationReport:
    counterexamples: list[Counterexample] = field(default_factory=list)
    # per (arrow, constraint): how many samples satisfied the hypotheses
    exercised: dict[tuple[str, str], int] = field(default_factory=dict)
    samples: int = 0

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def render_text(self) -> str:
        lines = [f"samples per constraint: {self.samples}"]
        for (arrow, constraint), count in sorted(self.exercised.items()):
            lines.append(f"  {arrow}/{constraint}: {count} non-vacuous samples")
        if self.ok:
            lines.append("no counterexamples")
        for cex in self.counterexamples[:10]:
            lines.append(f"  COUNTEREXAMPLE {cex.arrow}/{cex.constraint}: {cex.detail}")
        return "\n".join(lines)


def collect_specced_arrows(td: TypeDesc, cks: CheckTree) -> list[tuple[ArrowT, Node]]:
    """All (arrow, check node) pairs in a tree that lines up with the type:
    the outermost first, then each component's, left to right."""
    out = [(td, cks)] if isinstance(cks, Node) else []
    for comp, tree in zip(components(td), subtrees(td, cks)):
        out += collect_specced_arrows(comp, tree)
    return out


# ---------------------------------------------------------------------------
# Sample generation
# ---------------------------------------------------------------------------

_PATHS = ("/temp/a.txt", "/temp/b.txt", "/temp/notes.txt", "/etc/passwd", "/var/log")
_FDS = (1, 3, 4, 5, 6)
_BYTES = (
    b"",
    b"hello",
    b"GET /a.txt HTTP/1.1\r\n\r\n",
    b"HTTP/1.1 200 OK\r\n\r\n",
    http_ok(b"x"),
    b"Openfile\n",
    b"Read\n",
)
_RESULTS = (Ok(()), Err(ErrCode.EBADF), contract_failure("sampled"), Err(ErrCode.ENOENT))


@functools.cache
def _draw_trees():
    """Nested tuples, one level per draw in the order `SampleSpace` draws, with
    the sample at each leaf: a random event (op, caller, the op's own draws),
    a history's last read (fd, bytes), and `compliant_event`'s extras (temp
    path, open fd, write fd, bytes; a list, so a walk stops on it)."""

    def by_op(c):
        def both(op, arg, ok, err):
            return Event(c, op, arg, ok), Event(c, op, arg, err)

        enoent, ebadf = Err(ErrCode.ENOENT), Err(ErrCode.EBADF)
        return (
            tuple(tuple(both(IoOp.OPENFILE, (p, (), 0), Ok(fd), enoent) for fd in _FDS) for p in _PATHS),
            tuple(tuple(both(IoOp.READ, fd, Ok(b), ebadf) for b in _BYTES) for fd in _FDS),
            tuple(tuple(both(IoOp.WRITE, (fd, b), Ok(()), ebadf) for b in _BYTES) for fd in _FDS),
            tuple(both(IoOp.CLOSE, fd, Ok(()), ebadf) for fd in _FDS),
            tuple(Event(c, IoOp.SOCKET, (), Ok(fd)) for fd in _FDS),
            tuple(tuple(Event(c, IoOp.ACCEPT, a, Ok(fd)) for fd in _FDS) for a in _FDS),
        )

    events = tuple(zip(by_op(Caller.PROG), by_op(Caller.CTX)))
    last_reads = tuple(tuple(Event(Caller.PROG, IoOp.READ, fd, Ok(b)) for b in _BYTES) for fd in _FDS)
    temp = [p for p in _PATHS if p.startswith("/temp")]
    opens = [[Event(Caller.CTX, IoOp.OPENFILE, (p, (), 0), Ok(fd)) for fd in _FDS] for p in temp]
    writes = [[Event(Caller.PROG, IoOp.WRITE, (fd, b), Ok(())) for b in _BYTES] for fd in _FDS]
    extras = tuple(tuple(tuple(tuple([o, w] for w in ws) for ws in writes) for o in row) for row in opens)
    return events, last_reads, extras


def _draw(getrandbits, node):
    """The leaf reached by one branch per level, each drawn as `random.Random.choice`
    draws it: `getrandbits(len(node).bit_length())`, redrawn while >= `len(node)`.
    So a seed gives the same samples as one `choice` per level."""
    while type(node) is tuple:
        n = len(node)
        i = getrandbits(n.bit_length())
        while i >= n:
            i = getrandbits(n.bit_length())
        node = node[i]
    return node


class _SampledClosure:
    """The function argument every sample passes: it fails in-band.  One
    object with a fixed repr, so counterexample text is the same in every
    process."""

    def __call__(self, *args):
        return ret(contract_failure("sampled closure"))

    def __repr__(self):
        return "<sampled closure>"


_SAMPLED_CLOSURE = _SampledClosure()


class SampleSpace:
    """Draws histories, local traces, arguments and results that collide
    often enough to exercise every implication's hypotheses.  Events are
    leaves of the draw trees, so the seed alone fixes every sample."""

    def __init__(self, rng: random.Random, policy_spec, desc: MStateDesc):
        self.rng = rng
        self.policy_spec = policy_spec
        self.desc = desc
        self._bits = rng.getrandbits
        self._events, self._last_reads, self._extras = _draw_trees()

    def random_event(self) -> Event:
        return _draw(self._bits, self._events)

    def history_events(self) -> list[Event]:
        """Chronological prefix; biased to end in a successful read so that
        response-style pre-conditions are reachable."""
        events = [self.random_event() for _ in range(self.rng.randrange(0, 8))]
        if self.rng.random() < 0.6:
            events.append(_draw(self._bits, self._last_reads))
        return events

    def compliant_event(self, h: tuple) -> Event | None:
        spec = self.policy_spec
        drawn = [self.random_event() for _ in range(6)] + _draw(self._bits, self._extras)
        candidates = [e for e in drawn if spec(h, e.caller, e.op, e.arg)]
        return self.rng.choice(candidates) if candidates else None

    def local_events(self, h_events: list[Event], *, compliant: bool) -> list[Event]:
        n = self.rng.randrange(0, 5)
        if not compliant:
            return [self.random_event() for _ in range(n)]
        out: list[Event] = []
        hist = tuple(reversed(h_events))
        for _ in range(n):
            e = self.compliant_event(hist)
            if e is None:
                break
            out.append(e)
            hist = (e,) + hist
        return out

    def args_for(self, doms: tuple[TypeDesc, ...]) -> tuple:
        return tuple(self._arg(d) for d in doms)

    def _arg(self, td: TypeDesc):
        rng = self.rng
        if isinstance(td, FdT):
            return rng.choice(_FDS)
        if isinstance(td, BytesT):
            return rng.choice(_BYTES)
        if isinstance(td, IntT):
            return rng.randrange(-2, 10)
        if isinstance(td, ArrowT):
            return _SAMPLED_CLOSURE
        if isinstance(td, PairT):
            return (self._arg(td.fst), self._arg(td.snd))
        if isinstance(td, EitherT):
            return Ok(self._arg(td.left)) if rng.random() < 0.5 else contract_failure("sampled")
        return ()

    def result(self):
        return self.rng.choice(_RESULTS)

    def states_for(self, h_events: list[Event], lt_events: list[Event]):
        s0 = replay(self.desc, h_events)
        return s0, functools.reduce(self.desc.upd, lt_events, s0)


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

_MAX_COUNTEREXAMPLES = 5  # a report stops growing here


def validate_arrow(
    arrow: ArrowT,
    node: Node,
    policy_spec,
    desc: MStateDesc,
    *,
    samples: int,
    rng: random.Random,
    report: ValidationReport,
) -> None:
    spec: ArrowSpec = arrow.spec
    space = SampleSpace(rng, policy_spec, desc)
    ck = node.ck
    label = spec.label

    def record(constraint: str, detail: str) -> bool:
        """Note a counterexample; True once there are enough to stop."""
        report.counterexamples.append(Counterexample(label, constraint, detail))
        return len(report.counterexamples) >= _MAX_COUNTEREXAMPLES

    def bump(constraint: str):
        key = (label, constraint)
        report.exercised[key] = report.exercised.get(key, 0) + 1

    if spec.kind is CheckKind.PRE:
        for _ in range(samples):
            h_events = space.history_events()
            h = tuple(reversed(h_events))
            x = space.args_for(arrow.doms)
            s = replay(desc, h_events)
            if ck(x, s, (), s):
                bump("c_pre")
                if spec.pre is not None and not spec.pre(x, h):
                    if record("c_pre", f"x={x!r} h={h!r}"):
                        return
        if spec.post is not None:
            for _ in range(samples):
                h_events = space.history_events()
                h = tuple(reversed(h_events))
                x = space.args_for(arrow.doms)
                lt = space.local_events(h_events, compliant=rng.random() < 0.5)
                r = space.result()
                if rng.random() < 0.4:
                    # shape the trace like a faithful call: one trusted write
                    data = x[0] if x and isinstance(x[0], bytes) else rng.choice(_BYTES)
                    r = rng.choice((Ok(()), Err(ErrCode.EBADF)))
                    lt = [Event(Caller.PROG, IoOp.WRITE, (rng.choice(_FDS), data), r)]
                if spec.pre is not None and not spec.pre(x, h):
                    continue
                if not spec.post(x, h, r, tuple(lt)):
                    continue
                bump("c_post")
                if not enforced_locally(policy_spec, h, lt):
                    if record("c_post", f"x={x!r} h={h!r} r={r!r} lt={lt!r}"):
                        return
        return

    # result-judging checks
    for _ in range(samples):
        h_events = space.history_events()
        h = tuple(reversed(h_events))
        x = space.args_for(arrow.doms)
        lt = space.local_events(h_events, compliant=True)
        if rng.random() < 0.5 and x and isinstance(x[0], int):
            # a faithful run answers the caller's descriptor
            lt = lt + [Event(Caller.PROG, IoOp.WRITE, (x[0], rng.choice(_BYTES)), Ok(()))]
        r = space.result()
        if spec.pre is not None and not spec.pre(x, h):
            continue
        if not enforced_locally(policy_spec, h, lt):
            continue
        s0, s1 = space.states_for(h_events, lt)
        if ck(x, s0, r, s1):
            bump("c1_post")
            if spec.post is not None and not spec.post(x, h, r, tuple(lt)):
                if record("c1_post", f"x={x!r} h={h!r} r={r!r} lt={lt!r}"):
                    return
        bump("c2_post")
        if spec.post is not None and not spec.post(x, h, contract_failure(), tuple(lt)):
            if record("c2_post", f"x={x!r} h={h!r} lt={lt!r}"):
                return


def validate_interface(iface, *, samples: int = 10_000, seed: int = 20240901) -> ValidationReport:
    """Search for constraint violations in a source interface."""
    rng = random.Random(seed)
    report = ValidationReport(samples=samples)
    for arrow, node in collect_specced_arrows(iface.ctype, iface.cks):
        validate_arrow(arrow, node, iface.policy_spec, iface.mstate, samples=samples, rng=rng, report=report)
    return report
