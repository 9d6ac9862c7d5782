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

import random
from dataclasses import dataclass, field

from .contracts import ArrowSpec, ArrowT, CheckKind, CheckTree, EitherT, Node, PairT, TypeDesc
from .contracts import BytesT, FdT, IntT, UnitT, components, subtrees
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


class SampleSpace:
    """Draws histories, local traces, arguments and results that collide
    often enough to exercise every implication's hypotheses."""

    def __init__(self, rng: random.Random, policy_spec, desc: MStateDesc):
        self.rng = rng
        self.policy_spec = policy_spec
        self.desc = desc

    def random_event(self) -> Event:
        rng = self.rng
        op = rng.choice((IoOp.OPENFILE, IoOp.READ, IoOp.WRITE, IoOp.CLOSE, IoOp.SOCKET, IoOp.ACCEPT))
        caller = rng.choice((Caller.PROG, Caller.CTX))
        if op is IoOp.OPENFILE:
            arg = (rng.choice(_PATHS), (), 0)
            result = rng.choice((Ok(rng.choice(_FDS)), Err(ErrCode.ENOENT)))
        elif op is IoOp.READ:
            arg = rng.choice(_FDS)
            result = rng.choice((Ok(rng.choice(_BYTES)), Err(ErrCode.EBADF)))
        elif op is IoOp.WRITE:
            arg = (rng.choice(_FDS), rng.choice(_BYTES))
            result = rng.choice((Ok(()), Err(ErrCode.EBADF)))
        elif op in (IoOp.SOCKET, IoOp.ACCEPT):
            arg = () if op is IoOp.SOCKET else rng.choice(_FDS)
            result = Ok(rng.choice(_FDS))
        else:
            arg = rng.choice(_FDS)
            result = rng.choice((Ok(()), Err(ErrCode.EBADF)))
        return Event(caller, op, arg, result)

    def history_events(self) -> list[Event]:
        """Chronological prefix; biased to end in a successful read so that
        response-style pre-conditions are reachable."""
        events = [self.random_event() for _ in range(self.rng.randrange(0, 8))]
        if self.rng.random() < 0.6:
            events.append(
                Event(Caller.PROG, IoOp.READ, self.rng.choice(_FDS), Ok(self.rng.choice(_BYTES)))
            )
        return events

    def compliant_event(self, h: tuple) -> Event | None:
        candidates = []
        rng = self.rng
        for _ in range(6):
            e = self.random_event()
            if self.policy_spec(h, e.caller, e.op, e.arg):
                candidates.append(e)
        path = (rng.choice([p for p in _PATHS if p.startswith("/temp")]), (), 0)
        for extra in (
            Event(Caller.CTX, IoOp.OPENFILE, path, Ok(rng.choice(_FDS))),
            Event(Caller.PROG, IoOp.WRITE, (rng.choice(_FDS), rng.choice(_BYTES)), Ok(())),
        ):
            if self.policy_spec(h, extra.caller, extra.op, extra.arg):
                candidates.append(extra)
        return rng.choice(candidates) if candidates else None

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
        if isinstance(td, UnitT):
            return ()
        if isinstance(td, ArrowT):
            return lambda *args: ret(contract_failure("sampled closure"))
        if isinstance(td, PairT):
            return (self._arg(td.fst), self._arg(td.snd))
        if isinstance(td, EitherT):
            return Ok(self._arg(td.left)) if rng.random() < 0.5 else contract_failure("sampled")
        return ()

    def result(self):
        r = self.rng.choice(_RESULTS)
        return r

    def states_for(self, h_events: list[Event], lt_events: list[Event]):
        s0 = replay(self.desc, h_events)
        s1 = replay(self.desc, h_events + lt_events)
        return s0, s1


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------


def validate_arrow(
    arrow: ArrowT,
    node: Node,
    policy_spec,
    desc: MStateDesc,
    *,
    samples: int,
    rng: random.Random,
    report: ValidationReport,
    max_counterexamples: int = 5,
) -> None:
    spec: ArrowSpec = arrow.spec
    space = SampleSpace(rng, policy_spec, desc)
    ck = node.ck
    label = spec.label

    def record(constraint: str, detail: str):
        report.counterexamples.append(Counterexample(label, constraint, detail))

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
                    record("c_pre", f"x={x!r} h={h!r}")
                    if len(report.counterexamples) >= max_counterexamples:
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
                    record("c_post", f"x={x!r} h={h!r} r={r!r} lt={lt!r}")
                    if len(report.counterexamples) >= max_counterexamples:
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
                record("c1_post", f"x={x!r} h={h!r} r={r!r} lt={lt!r}")
                if len(report.counterexamples) >= max_counterexamples:
                    return
        bump("c2_post")
        if spec.post is not None and not spec.post(x, h, contract_failure(), tuple(lt)):
            record("c2_post", f"x={x!r} h={h!r} lt={lt!r}")
            if len(report.counterexamples) >= max_counterexamples:
                return


def validate_interface(iface, *, samples: int = 10_000, seed: int = 20240901) -> ValidationReport:
    """Search for constraint violations in a source interface."""
    rng = random.Random(seed)
    report = ValidationReport(samples=samples)
    for arrow, node in collect_specced_arrows(iface.ctype, iface.cks):
        validate_arrow(
            arrow,
            node,
            iface.policy_spec,
            iface.mstate,
            samples=samples,
            rng=rng,
            report=report,
        )
    return report
