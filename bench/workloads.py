"""The benchmark's workloads: seeded inputs, set-up, scenarios and oracles.

A workload is set up (`setup`) and builds its *cycle* (`cycle`): the list
of scenarios a run plays, again and again, until its time is up.  The
cycle has the same composition on every seed -- the same contexts at the
same sizes, the same number of misbehaving plugins -- and the seed picks
only contents: request mixes, pages, archive inputs, DSL handler depths,
and where a misbehaving plugin breaks.  So runs with different seeds
measure the same mix.

A scenario is one linked run on one world, or one `validate_interface`
call.  `run` is the timed call into seclink; `check` compares its output
with the oracle in `oracle.py` and returns the first disagreement, or
None.  A scenario that takes well under a millisecond is timed as
`repeat` back-to-back runs, so that its time is not set by timer and
scheduler jitter.

To add a workload, write a setup and a cycle function here and register a
`Workload` in `WORKLOADS`; new plugins go into a bundle's `contexts` (host
closures) or `dsl_sources` (context-language text), never into `src/`.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracle


@dataclass
class Scenario:
    label: str
    size: int  # the scenario's step on the workload's size ladder
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    # recorded IO events (0 for a constraint-suite run)
    events: Callable[[Any], int]
    # counted in the growth fit: its work scales with `size`
    on_ladder: bool = True
    # runs a plugin the benchmark wrote to raise or return junk
    misbehaving: bool = False
    # runs per timed unit; the scenario's time is the unit's time / repeat
    repeat: int = 1


@dataclass
class Workload:
    name: str  # its reason is recorded beside it in BENCHMARK.json
    # (seclink namespace, tracer or None, seed) -> set-up state
    setup: Callable[[Any, Any, int], dict]
    # (set-up state, seeded rng) -> the scenarios of the cycle
    cycle: Callable[[dict, random.Random], list[Scenario]]


def _instrument(tracer, iface):
    return tracer.interface(iface) if tracer is not None else iface


def _child(rng: random.Random) -> random.Random:
    return random.Random(rng.getrandbits(64))


def _apportion(n: int, weights: dict[str, float]) -> list[str]:
    """Exactly n kinds in the weighted proportions (largest remainder)."""
    quotas = {k: n * w / sum(weights.values()) for k, w in weights.items()}
    counts = {k: int(q) for k, q in quotas.items()}
    for k in sorted(weights, key=lambda k: counts[k] - quotas[k])[: n - sum(counts.values())]:
        counts[k] += 1
    return [k for k in weights for _ in range(counts[k])]


# ---------------------------------------------------------------------------
# Web server inputs and plugins
# ---------------------------------------------------------------------------

REQUEST_MIX = {"hit": 0.5, "miss": 0.15, "junk": 0.15, "escape": 0.1, "silent": 0.1}
_ESCAPES = (b"/../etc/passwd", b"/../../etc/passwd", b"/x/../../etc/passwd", b"/../temp/../etc/shadow")
_JUNK = (
    b"junk\r\n",
    b"GET /index.html\r\n\r\n",
    b"GET index.html HTTP/1.1\r\n\r\n",
    b"BREW /pot HTTP/1.1\r\n\r\n",
    b"GET /index.html HTTP/2.0\r\n\r\n",
    b"GET /index.html HTTP/1.1\r\n",
)
_HEADERS = (b"", b"", b"Host: bench\r\n", b"Host: bench\r\nAccept: */*\r\n")
_TEXT = b"abcdefghijklmnopqrstuvwxyz <>/=\n"


def _blob(rng: random.Random, low: int, high: int) -> bytes:
    return bytes(rng.choices(_TEXT, k=rng.randint(low, high)))


def web_inputs(rng: random.Random, n: int):
    """A file map and n scripted requests in the fixed kind proportions."""
    names = [f"p{rng.randrange(10**6)}-{i}.html" for i in range(8)]
    files = {f"/temp/{name}": _blob(rng, 16, 1500) for name in names}
    files["/etc/passwd"] = b"root:x:0:0:root:/:/bin/sh\n"
    kinds = _apportion(n, REQUEST_MIX)
    rng.shuffle(kinds)
    requests = []
    for cid, kind in enumerate(kinds, start=1):
        if kind == "silent":
            raw = b""
        elif kind == "junk":
            raw = rng.choice(_JUNK)
        else:
            if kind == "hit":
                name = rng.choice(names).encode()
                path = rng.choice((b"/" + name, b"/" + name, b"/./" + name, b"/sub/../" + name))
            elif kind == "miss":
                path = rng.choice((b"/missing-%d.html" % rng.randrange(1000), b"/sub/index.html"))
            else:
                path = rng.choice(_ESCAPES)
            method = rng.choice((b"GET", b"GET", b"GET", b"HEAD", b"POST"))
            raw = method + b" " + path + b" HTTP/1.1\r\n" + rng.choice(_HEADERS) + b"\r\n"
        requests.append((cid, raw))
    return files, requests


def misbehaving_handler(sl, kind: str, fails_from: int):
    """A host handler that serves pages like the shipped benign one for its
    first `fails_from` calls; after that it either opens the page and then
    raises, or returns a value that is not a computation."""

    def factory(lib):
        serve = sl.webserver.benign_handler(lib).fn
        calls = [0]

        def run(client, req, send):
            calls[0] += 1
            if calls[0] <= fails_from:
                return serve(client, req, send)
            if kind == "junk":
                return sl.contracts.DLeft(sl.contracts.DUnit())
            path = sl.httputil.temp_path(sl.httputil.request_path(req.data)).decode("latin-1")
            return sl.effects.bind(lib.call(sl.effects.IoOp.OPENFILE, (path, (), 0)), _raise)

        return sl.contracts.DClosure(run)

    return factory


def _raise(_result):
    raise ZeroDivisionError("plugin bug")


def generated_dsl_handler(rereads: int, depth: int) -> str:
    """A well-formed handler in the context language.  It serves the page
    like the shipped benign one, after opening and re-reading it `rereads`
    more times; every read sits under `depth` left-nested lets."""

    def nested(expr: str) -> str:
        for i in range(depth):
            expr = f"(let t{i} = {expr} in t{i})"
        return expr

    answer = "s (http_ok d)"
    for k in range(rereads):
        answer = (
            f"(case io Openfile p of inl g{k} => "
            f"(let x{k} = {nested(f'io Read g{k}')} in let v{k} = io Close g{k} in {answer}) "
            f"| inr e{k} => inr e{k})"
        )
    return (
        "\\c:fd. \\r:bytes. \\s:(bytes -> either unit err). "
        "let p = temp_path (request_path r) in "
        f"case io Openfile p of inl f => (case {nested('io Read f')} of "
        f"inl d => (let u = io Close f in {answer}) | inr e => inr e) "
        "| inr e => inr e"
    )


def _behaviour(context: str) -> str:
    serving = context in ("benign", "dsl-benign") or context.startswith(("gen-", "misbehaving-"))
    return oracle.SERVE if serving else oracle.REFUSE


def _web_scenario(state, context, size, rng, *, fails_from_frac=None, kind=None):
    """One web-server scenario; with `kind` the context is a fresh
    misbehaving handler that breaks at a seeded share of its calls."""
    sl, bundle, checked = state["sl"], state["bundle"], state["checked"]
    files, requests = web_inputs(rng, size)
    world = sl.worlds.make_world(files=files, requests=requests, max_iterations=size)
    fails_from = None
    if kind is not None:
        valid = sum(1 for _cid, raw in requests if oracle.served_path(raw) is not None)
        fails_from = int(fails_from_frac * valid)
        context = "misbehaving-" + kind
        factory = misbehaving_handler(sl, kind, fails_from)
    else:
        factory = state["ctx"][context]
    expected = oracle.expected_web_responses(requests, files, _behaviour(context), fails_from)

    def check_run(run):
        if not run.audit_ok:
            return "capability audit failed"
        if not sl.traces.every_request_gets_a_response(run.local):
            return "every_request_gets_a_response does not hold"
        return oracle.web_mismatch(run, requests, expected)

    if checked:

        def run():
            if kind is not None:
                bundle.contexts[context] = factory
            return sl.harness.run_scenario(bundle, context, world)

        def check(report):
            return check_run(report.run) if report.ok else f"report verdicts {report.verdicts}"

        def events(report):
            return len(report.run.local)

    else:
        desc = bundle.interface.mstate

        def run():
            whole = sl.harness.link_whole(bundle, factory, prog=sl.webserver.make_server_prog(size))
            return sl.interp.interpret(whole, world, desc, check=False)

        check = check_run

        def events(run):
            return len(run.local)

    return Scenario(
        label=f"{context}@{size}",
        size=size,
        run=run,
        check=check,
        events=events,
        on_ladder=kind is None,
        misbehaving=kind is not None,
    )


def _web_cycle(state, rng, ladder):
    scenarios = [
        _web_scenario(state, context, size, _child(rng))
        for size in ladder
        for context in state["ctx"]
    ]
    # One raising and one junk-returning handler, each at a seeded size and
    # breaking partway through its requests.
    for kind in ("raise", "junk"):
        size = rng.choice(ladder)
        scenarios.append(
            _web_scenario(state, None, size, _child(rng), fails_from_frac=rng.random(), kind=kind)
        )
    rng.shuffle(scenarios)
    return scenarios


# ---------------------------------------------------------------------------
# web-checked: the `seclink run` path, demos.run_scenario with the ghost check
# ---------------------------------------------------------------------------

WEB_CHECKED_LADDER = (12, 20, 32, 50, 80)
SHIPPED_HANDLERS = ("benign", "adv1", "adv2", "adv3", "adv4", "adv5")


def _web_checked_setup(sl, tracer, seed):
    bundle = sl.harness.webserver_bundle()
    bundle.interface = _instrument(tracer, bundle.interface)
    names = list(SHIPPED_HANDLERS) + ["dsl-" + c for c in SHIPPED_HANDLERS]
    ctx = {name: bundle.context(name) for name in names}
    for factory in ctx.values():
        sl.harness.link_whole(bundle, factory)
    return {"sl": sl, "bundle": bundle, "ctx": ctx, "checked": True}


def _web_checked_cycle(state, rng):
    return _web_cycle(state, rng, WEB_CHECKED_LADDER)


# ---------------------------------------------------------------------------
# web-unchecked: linker + interpret(check=False), generated DSL handlers
# ---------------------------------------------------------------------------

WEB_UNCHECKED_LADDER = (40, 65, 100, 160, 250)
# Generated handlers: (depth range, re-reads).  The depth is seeded inside
# a narrow range, so every seed spans 0..40 with nearly the same cost.
GENERATED = (((0, 4), 1), ((12, 16), 2), ((24, 28), 3), ((36, 40), 2))


def _web_unchecked_setup(sl, tracer, seed):
    bundle = sl.harness.webserver_bundle()
    bundle.interface = _instrument(tracer, bundle.interface)
    rng = random.Random(seed)
    for (low, high), rereads in GENERATED:
        depth = rng.randint(low, high)
        bundle.dsl_sources[f"gen-d{depth}-r{rereads}"] = generated_dsl_handler(rereads, depth)
    names = ["benign", "dsl-benign", "adv3"] + [n for n in bundle.dsl_sources if n.startswith("gen-")]
    ctx = {name: bundle.context(name) for name in names}
    for factory in ctx.values():
        sl.harness.link_whole(bundle, factory)
    return {"sl": sl, "bundle": bundle, "ctx": ctx, "checked": False}


def _web_unchecked_cycle(state, rng):
    return _web_cycle(state, rng, WEB_UNCHECKED_LADDER)


# ---------------------------------------------------------------------------
# zip-fulltrace: archiver with the full-trace monitor state, plus logging
# ---------------------------------------------------------------------------

ZIP_LADDER = (25, 50, 100, 200, 400)
ZIP_CONTEXTS = ("benign", "opens-own-file", "writes-wild")
ZIP_MISSING_SHARE = 0.15
# Scenarios that stop at the first denial, and the logging scenarios, take
# 0.1-0.7 ms; these many runs make one timed unit of a few milliseconds.
ZIP_DENY_REPEAT = 10
LOGGING_REPEAT = 20
# Samples per implication for each validate_interface call.
VALIDATE_SAMPLES = 200


def zip_inputs(rng: random.Random, n: int):
    """n input paths, a fixed share of them missing, over files of varied size."""
    kinds = _apportion(n, {"present": 1 - ZIP_MISSING_SHARE, "missing": ZIP_MISSING_SHARE})
    rng.shuffle(kinds)
    inputs = tuple(f"/temp/in{i}-{rng.randrange(1000)}.dat" for i in range(n))
    files = {p: _blob(rng, 0, 2000) for p, kind in zip(inputs, kinds) if kind == "present"}
    return inputs, files


def misbehaving_archiver(sl, kind: str, fails_from: int):
    """The shipped benign archiver, except that the entry closure it returns
    breaks from entry `fails_from` on: after reading the entry it raises,
    or it returns a value that is not a computation."""
    c, fx = sl.contracts, sl.effects

    def factory(lib):
        start = sl.ziplib.benign_zip(lib).fn
        calls = [0]

        def wrap_entry(add_entry):
            def run(dfd):
                calls[0] += 1
                if calls[0] <= fails_from:
                    return add_entry(dfd)
                if kind == "junk":
                    return c.DLeft(c.DUnit())
                return fx.bind(lib.call(fx.IoOp.READ, dfd.fd), _raise)

            return c.DClosure(run)

        def started(value):
            if isinstance(value, c.DLeft):
                return fx.ret(c.DLeft(wrap_entry(value.value.fn)))
            return fx.ret(value)

        return c.DClosure(lambda dafd: fx.bind(start(dafd), started))

    return factory


def weakened_webserver_interface(sl):
    """The webserver interface with its handler's result check always true,
    so the constraint suite must find a counterexample."""
    iface = sl.harness.webserver_interface()
    always = sl.contracts.Node(lambda *_args: True, iface.cks.left, iface.cks.right)
    return dataclasses.replace(iface, label=iface.label + "-weakened", cks=always)


def _zip_setup(sl, tracer, seed):
    zb = sl.harness.zip_bundle()
    zb.interface = _instrument(tracer, zb.interface)
    lb = sl.harness.logging_bundle()
    lb.interface = _instrument(tracer, lb.interface)
    for bundle in (zb, lb):
        for factory in bundle.contexts.values():
            sl.harness.link_whole(bundle, factory)
    # (interface, whether the constraint suite must find a counterexample)
    verify = [
        (zb.interface, False),
        (lb.interface, False),
        (_instrument(tracer, sl.harness.webserver_interface()), False),
        (_instrument(tracer, weakened_webserver_interface(sl)), True),
    ]
    return {"sl": sl, "zip": zb, "logging": lb, "verify": verify}


def _zip_scenario(state, context, size, rng, *, probe=False, fails_from_frac=None, kind=None):
    sl, bundle = state["sl"], state["zip"]
    inputs, files = zip_inputs(rng, size)
    world = sl.worlds.make_world(files=files)
    desc = bundle.interface.mstate
    entries_until = None
    if kind is not None:
        entries_until = int(fails_from_frac * len(files))
        factory = misbehaving_archiver(sl, kind, entries_until)
        context = "misbehaving-" + kind
    else:
        factory = bundle.contexts[context]
    if context == "benign" or kind is not None:
        entries, archive = oracle.expected_archive(inputs, files, entries_until)
    else:
        entries, archive = 0, b""

    def run():
        prog = sl.ziplib.make_zip_prog(inputs, probe_closed_fd=probe)
        return sl.interp.interpret(sl.harness.link_whole(bundle, factory, prog=prog), world, desc)

    def check(run):
        if not run.audit_ok:
            return "capability audit failed"
        got = run.world.files.get(sl.ziplib.ARCHIVE_PATH)
        if run.result != entries or got != archive:
            return f"{run.result} entries / {len(got or b'')} archive bytes, expected {entries} / {len(archive)}"
        return None

    return Scenario(
        label=f"{context}{'+probe' if probe else ''}@{size}",
        size=size,
        run=run,
        check=check,
        events=lambda run: len(run.local),
        on_ladder=context == "benign",
        misbehaving=kind is not None,
        repeat=1 if context == "benign" or kind is not None else ZIP_DENY_REPEAT,
    )


def _logging_scenario(state, context, index):
    sl, bundle = state["sl"], state["logging"]
    world = bundle.worlds[index]
    result, console = oracle.logging_expectation(context, world.files)
    factory = bundle.contexts[context]
    desc = bundle.interface.mstate

    def run():
        return sl.interp.interpret(sl.harness.link_whole(bundle, factory), world, desc)

    def check(run):
        if not run.audit_ok:
            return "capability audit failed"
        got = run.world.written.get(oracle.STDOUT_FD, b"")
        if run.result != result or got != console:
            return f"result {run.result} console {got!r}, expected {result} {console!r}"
        return None

    return Scenario(
        f"logging:{context}@w{index}",
        1,
        run,
        check,
        lambda run: len(run.local),
        on_ladder=False,
        repeat=LOGGING_REPEAT,
    )


def _verify_scenario(state, iface, weakened, rng):
    """One run of the constraint suite on an interface, with a seeded
    sample seed."""
    sl = state["sl"]
    seed = rng.randrange(2**31)
    want = oracle.verify_expectation(weakened)

    def run():
        return sl.validate.validate_interface(iface, samples=VALIDATE_SAMPLES, seed=seed)

    def check(report):
        got = oracle.verify_answer(report.ok)
        return None if got == want else f"{got}, expected {want}"

    return Scenario(f"verify:{iface.label}", VALIDATE_SAMPLES, run, check, lambda _report: 0, on_ladder=False)


def _zip_cycle(state, rng):
    scenarios = []
    for size in ZIP_LADDER:
        for probe in (False, False, True):
            scenarios.append(_zip_scenario(state, "benign", size, _child(rng), probe=probe))
        for context in ZIP_CONTEXTS[1:]:
            scenarios.append(_zip_scenario(state, context, size, _child(rng)))
    for kind in ("raise", "junk"):
        size = rng.choice(ZIP_LADDER)
        scenarios.append(
            _zip_scenario(state, None, size, _child(rng), fails_from_frac=rng.random(), kind=kind)
        )
    for context in state["logging"].contexts:
        for index in range(len(state["logging"].worlds)):
            scenarios.append(_logging_scenario(state, context, index))
    for iface, weakened in state["verify"]:
        scenarios.append(_verify_scenario(state, iface, weakened, _child(rng)))
    rng.shuffle(scenarios)
    return scenarios


WORKLOADS = {
    w.name: w
    for w in (
        Workload("web-checked", _web_checked_setup, _web_checked_cycle),
        Workload("web-unchecked", _web_unchecked_setup, _web_unchecked_cycle),
        Workload("zip-fulltrace", _zip_setup, _zip_cycle),
    )
}
