"""Scenario harness: links a bundle with a context, runs it, checks verdicts.

A bundle packages one demo: its interface, trusted program, named contexts
(host-written and source-text ones), per-context expectations, and a set of
scripted worlds.  `run_scenario` executes one combination and returns a
structured report with one verdict per property.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable

from .. import ctxdsl
from ..effects import Caller, _trusted, bind, is_err, ret
from ..interp import RunResult, interpret
from ..linker import (
    SourceInterface,
    back_translate_ctx,
    compile_interface,
    compile_prog,
    instantiate_ctx,
    link_source,
    link_target,
)
from ..monitor import enforce_policy
from ..traces import enforced_locally
from ..worlds import World, make_world
from . import logging_lib, webserver, ziplib
from .dsl_handlers import DSL_HANDLER_SOURCES
from .webserver import DEFAULT_REQUEST_BUDGET, allow_all_in_tmp_policy, allow_all_in_tmp_spec

PROG_FIRST = "prog-first"
CTX_FIRST = "ctx-first"


@dataclass
class Bundle:
    name: str
    mode: str  # who has initial control; only `--mode` reads it
    interface: SourceInterface
    prog: Callable
    contexts: dict[str, Callable]
    worlds: list[World]
    expected_mechanism: dict[str, str | None] = field(default_factory=dict)
    dsl_sources: dict[str, str] = field(default_factory=dict)
    # when set, scenarios rebuild the program with the world's iteration cap
    prog_for_budget: Callable[[int], Callable] | None = None
    _loaded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def context(self, name: str):
        """Resolve a context by name; `file:PATH` loads source text."""
        if name in self.contexts:
            return self.contexts[name]
        if name in self.dsl_sources:
            return self._translated(self.dsl_sources[name])
        if name.startswith("file:"):
            with open(name[5:], "r", encoding="utf-8") as handle:
                return self._translated(handle.read())
        raise KeyError(f"unknown context {name!r} for bundle {self.name}")

    def _translated(self, source: str):
        if source not in self._loaded:
            self._loaded[source] = ctxdsl.load(source, compile_interface(self.interface).ctype)
        return self._loaded[source]

    def context_names(self) -> list[str]:
        return list(self.contexts) + list(self.dsl_sources)


@dataclass
class Report:
    bundle: str
    context: str
    world_index: int
    result: int
    run: RunResult
    verdicts: dict[str, bool]
    mechanism: str | None = None
    expected_mechanism: str | None = None

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())

    def render_text(self) -> str:
        lines = [f"bundle={self.bundle} context={self.context} world={self.world_index} result={self.result}"]
        for name, verdict in self.verdicts.items():
            lines.append(f"  [{'PASS' if verdict else 'FAIL'}] {name}")
        if self.expected_mechanism is not None or self.mechanism is not None:
            lines.append(f"  mechanism: {self.mechanism!r} (expected {self.expected_mechanism!r})")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "bundle": self.bundle,
                "context": self.context,
                "world": self.world_index,
                "result": self.result,
                "verdicts": self.verdicts,
                "mechanism": self.mechanism,
                "expected_mechanism": self.expected_mechanism,
                "trace": [e.render() for e in self.run.local],
            },
            indent=2,
        )


# ---------------------------------------------------------------------------
# Worlds
# ---------------------------------------------------------------------------

_INDEX = b"GET /index.html HTTP/1.1\r\n\r\n"
_MISSING = b"GET /nope.html HTTP/1.1\r\n\r\n"
_JUNK = b"junk\r\n"
_ESCAPE = b"GET /../etc/passwd HTTP/1.1\r\n\r\n"
_PAGES = {"/temp/index.html": b"<h1>hello</h1>", "/temp/a.txt": b"alpha", "/temp/b.txt": b"beta"}


def webserver_worlds() -> list[World]:
    reqs = [
        [],
        [(1, _INDEX)],
        [(1, _MISSING)],
        [(1, _JUNK)],
        [(1, _INDEX), (2, _MISSING), (3, _JUNK)],
        [(1, b"")],  # connects but never sends: nothing to select
        [(1, _ESCAPE)],
        [(i, _INDEX) for i in range(1, 9)],
        [(1, _JUNK), (2, _JUNK)],
        [(1, b"GET /a.txt HTTP/1.1\r\n\r\n"), (2, b"GET /b.txt HTTP/1.1\r\n\r\n")],
        [(1, _MISSING), (2, _INDEX), (3, b""), (4, _ESCAPE), (5, _INDEX)],
        [(i, _INDEX if i % 2 else _JUNK) for i in range(1, 7)],
    ]
    return [make_world(files=dict(_PAGES), requests=r, max_iterations=DEFAULT_REQUEST_BUDGET) for r in reqs]


def logging_worlds() -> list[World]:
    return [
        make_world(files={"/temp/notes.txt": b"jot"}, requests=[]),
        make_world(files={}, requests=[]),
        make_world(files={"/temp/notes.txt": b""}, requests=[]),
    ]


def zip_worlds() -> list[World]:
    return [
        make_world(files={"/temp/in1.txt": b"payload"}, requests=[]),
        make_world(files={}, requests=[]),
        make_world(files={"/temp/in1.txt": b"x" * 64, "/temp/other.txt": b"y"}, requests=[]),
    ]


# ---------------------------------------------------------------------------
# Web-server policies available by name
# ---------------------------------------------------------------------------

WEBSERVER_POLICIES = ("webserver", "allow_all_in_tmp")


def webserver_interface(policy: str = "webserver") -> SourceInterface:
    iface = webserver.interface()
    if policy == "webserver":
        return iface
    if policy == "allow_all_in_tmp":
        return replace(
            iface,
            label="webserver+allow_all_in_tmp",
            policy_spec=allow_all_in_tmp_spec,
            policy=allow_all_in_tmp_policy,
        )
    raise KeyError(f"unknown policy {policy!r}")


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def webserver_bundle(policy: str = "webserver") -> Bundle:
    return Bundle(
        name="webserver",
        mode=PROG_FIRST,
        interface=webserver_interface(policy),
        prog=webserver.make_server_prog(),
        contexts=dict(webserver.HANDLERS),
        worlds=webserver_worlds(),
        expected_mechanism=dict(webserver.EXPECTED_MECHANISM),
        dsl_sources=dict(DSL_HANDLER_SOURCES),
        prog_for_budget=webserver.make_server_prog,
    )


def logging_bundle() -> Bundle:
    return Bundle(
        name="logging",
        mode=CTX_FIRST,
        interface=logging_lib.interface(),
        prog=logging_lib.prog,
        contexts=dict(logging_lib.CONTEXTS),
        worlds=logging_worlds(),
    )


def zip_bundle(probe_closed_fd: bool = False) -> Bundle:
    return Bundle(
        name="zip",
        mode=PROG_FIRST,
        interface=ziplib.interface(),
        prog=ziplib.make_zip_prog(probe_closed_fd=probe_closed_fd),
        contexts=dict(ziplib.CONTEXTS),
        worlds=zip_worlds(),
    )


BUNDLES: dict[str, Callable[[], Bundle]] = {
    "webserver": webserver_bundle,
    "logging": logging_bundle,
    "zip": zip_bundle,
}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def link_whole(bundle: Bundle, ctx, *, route: str = "target", prog=None):
    """Build the whole computation via the requested linking route."""
    iface = bundle.interface
    prog = prog if prog is not None else bundle.prog
    if route == "target":
        return link_target(compile_interface(iface), compile_prog(iface, prog), ctx)
    return link_source(iface, prog, back_translate_ctx(iface, ctx))[1]


def run_scenario(bundle: Bundle, context_name: str, world: World, world_index: int = 0) -> Report:
    ctx = bundle.context(context_name)
    prog = bundle.prog_for_budget(world.max_iterations) if bundle.prog_for_budget else None
    whole = link_whole(bundle, ctx, prog=prog)
    run = interpret(whole, world, bundle.interface.mstate)
    verdicts = {
        "capability-audit": run.audit_ok,
        "whole-run-post": bundle.interface.whole_run_post((), run.result, run.local),
        "policy-locally-enforced": enforced_locally(_ctx_only(bundle.interface.policy_spec), (), run.local),
    }
    report = Report(
        bundle=bundle.name,
        context=context_name,
        world_index=world_index,
        result=run.result,
        run=run,
        verdicts=verdicts,
    )
    if bundle.name == "webserver" and context_name in bundle.expected_mechanism:
        report.expected_mechanism = bundle.expected_mechanism[context_name]
        report.mechanism = attribute_mechanism(bundle.interface, ctx)
        report.verdicts["mechanism-attribution"] = _mechanism_matches(
            report.mechanism, report.expected_mechanism
        )
    return report


def _ctx_only(policy_spec):
    """Judge only untrusted-side events.  A rule for the trusted side's own
    events belongs in the bundle's whole-run post-condition."""

    prog = Caller.PROG  # hoisted (see the note in `effects`)

    def weakened(h, caller, op, arg):
        return caller is prog or policy_spec(h, caller, op, arg)

    return weakened


def _mechanism_matches(found: str | None, expected: str | None) -> bool:
    if expected is None:
        return found is None
    return found is not None and found.startswith(expected)


PROBE_WORLD = make_world(
    files=dict(_PAGES),
    requests=[(1, _INDEX)],
)


def attribute_mechanism(iface: SourceInterface, ctx) -> str | None:
    """Run the shipped server on one request and report which mechanism, if
    any, made the handler's call a contract failure."""
    lib = enforce_policy(iface.policy, iface.mstate)
    strong = iface.importer(instantiate_ctx(ctx, lib))
    if is_err(strong):
        return strong.why
    outcomes = []

    def recorded(*args):
        return bind(strong.value(*args), lambda outcome: outcomes.append(outcome) or ret(outcome))

    interpret(_trusted(webserver.make_server_prog(1)(recorded), lib.policy), PROBE_WORLD, iface.mstate)
    return outcomes[0].why if outcomes and is_err(outcomes[0]) else None
