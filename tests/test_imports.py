"""Importing seclink again leaves nothing of the last import behind, and its
type aliases, which are strings, still resolve for tooling."""

from __future__ import annotations

import os
import subprocess
import sys
import typing
from pathlib import Path
from typing import Any, Callable, Iterable

from seclink import linker, monitor, traces
from seclink.contracts import CheckTree, DynValue
from seclink.effects import Caller, Comp, Event, IoOp, Trace

ROOT = Path(__file__).resolve().parents[1]

# Weakrefs to each module of one import and to a class and a function it
# defines; after three fresh imports of the package every one must be dead.
# Each import also links and runs one scenario of every bundle, so what the
# boundary stages must not keep its import alive either.
_REIMPORT_SCRIPT = """
import gc, importlib, inspect, pkgutil, sys, weakref

def fresh_import():
    for name in [m for m in sys.modules if m == "seclink" or m.startswith("seclink.")]:
        del sys.modules[name]
    seclink = importlib.import_module("seclink")
    mods = [importlib.import_module(m.name) for m in pkgutil.walk_packages(seclink.__path__, "seclink.")]
    harness = importlib.import_module("seclink.demos.harness")
    for make in harness.BUNDLES.values():
        bundle = make()
        report = harness.run_scenario(bundle, bundle.context_names()[0], bundle.worlds[-1])
        assert report.ok and report.run.local, report.render_text()
    return mods

refs = {}
for mod in fresh_import():
    refs[mod.__name__] = weakref.ref(mod)
    for kind in (inspect.isclass, inspect.isfunction):
        own = [v for v in vars(mod).values() if kind(v) and v.__module__ == mod.__name__]
        if own:
            refs[f"{mod.__name__}.{own[0].__qualname__}"] = weakref.ref(own[0])
del mod, own
for _ in range(3):
    fresh_import()
gc.collect()
print(len(refs), sorted(name for name, ref in refs.items() if ref() is not None))
"""


def test_reimport_frees_the_last_import():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _REIMPORT_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    tracked, alive = done.stdout.split(" ", 1)
    assert int(tracked) > 30
    assert alive.strip() == "[]"


def test_string_aliases_resolve_to_callables():
    hints = {
        traces.enforced_locally: {
            "policy_spec": Callable[[Trace, Caller, IoOp, Any], bool],
            "h": Trace,
            "lt": Iterable[Event],
            "return": bool,
        },
        traces.satisfies: {"whole_run_post": Callable[[Trace, Any, Trace], bool], "return": bool},
        linker.link_target: {
            "iface": linker.TargetInterface,
            "prog": Callable[[DynValue], Comp],
            "ctx": Callable[[monitor.SecureIoLib], DynValue],
            "return": Comp,
        },
        linker.link_source: {
            "iface": linker.SourceInterface,
            "prog": Callable[[Any], Comp],
            "ctx": Callable[[monitor.SecureIoLib, CheckTree], Any],
        },
        linker.compile_prog: {
            "iface": linker.SourceInterface,
            "prog": Callable[[Any], Comp],
            "return": Callable[[DynValue], Comp],
        },
        monitor.enforce_policy: {
            "policy": Callable[[Any, IoOp, Any], bool],
            "desc": monitor.MStateDesc,
            "return": monitor.SecureIoLib,
        },
    }
    for fn, want in hints.items():
        assert typing.get_type_hints(fn) == want, fn.__name__
