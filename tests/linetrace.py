"""Line tracer: the function-body lines of `src/seclink` the test suite never runs.

A pytest plugin, kept out of the tier-1 run because tracing every line makes
the suite several times slower:

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

It counts the lines of every function code object (module and class bodies
run at import and are not counted), without the function's first line, the
`def` or its first decorator.  A line counts as run when some frame of its
own code object ran it.  The run fails when any unrun line is missing from
`ALLOWED`, which gives each line it excuses a reason, and when an entry of
`ALLOWED` matches no unrun line, because its line was deleted or now runs:
an excuse does not outlive its line.

`sys.settrace` is armed when the plugin is imported, so the functions that
run while seclink is imported are seen too, and again before each test's
setup and call: a `RecursionError` inside the trace function switches
tracing off for the rest of that test.  Hypothesis draws the same examples
on every run, so the lines generated inputs reach do not change between
runs.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

SRC = Path(__file__).resolve().parent.parent / "src" / "seclink"

# (path under src/seclink, the line's stripped text) -> why it may stay unrun
ALLOWED = {
    ("ctxdsl.py", 'raise ParseError(0, "term nested too deeply") from None'): (
        "reached only by a RecursionError, which switches the tracer off"
    ),
}

_in_src: dict[str, str | None] = {}  # co_filename -> path under SRC, or None
_remaining: dict = {}  # code object -> its lines not yet run, or None if not counted


def _lines(code) -> set[int]:
    """The lines of one function code object, without its first line."""
    return {line for _start, _end, line in code.co_lines() if line is not None} - {code.co_firstlineno}


def _relative(filename: str) -> str | None:
    if filename not in _in_src:
        path = Path(os.path.realpath(filename))
        _in_src[filename] = path.relative_to(SRC).as_posix() if path.is_relative_to(SRC) else None
    return _in_src[filename]


def _local(frame, event, _arg):
    if event != "line":
        return _local
    remaining = _remaining[frame.f_code]
    remaining.discard(frame.f_lineno)
    return _local if remaining else None


def _call(frame, _event, _arg):
    code = frame.f_code
    try:
        remaining = _remaining[code]
    except KeyError:
        counted = code.co_flags & inspect.CO_OPTIMIZED and _relative(code.co_filename)
        remaining = _remaining[code] = _lines(code) if counted else None
    return _local if remaining else None


sys.settrace(_call)
settings.register_profile("linetrace", derandomize=True)
settings.load_profile("linetrace")


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    sys.settrace(_call)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    sys.settrace(_call)


def _functions(code):
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _functions(const)


def unrun_lines() -> tuple[int, list[tuple[str, int, str]]]:
    """(lines counted, the unrun ones as (path under SRC, line, text))."""
    seen: dict[tuple, set[int]] = {}  # (path, qualified name, first line) -> lines run
    for code, remaining in _remaining.items():
        if remaining is not None:
            key = (_relative(code.co_filename), code.co_qualname, code.co_firstlineno)
            seen.setdefault(key, set()).update(_lines(code) - remaining)
    counted, unrun = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for code in _functions(compile(source, str(path), "exec")):
            lines = _lines(code)
            counted.update((rel, line) for line in lines)
            run = seen.get((rel, code.co_qualname, code.co_firstlineno), set())
            unrun.update((rel, line, text[line - 1].strip()) for line in lines - run)
    return len(counted), sorted(unrun)


_report: list[str] = []


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    total, unrun = unrun_lines()
    unexcused = [u for u in unrun if (u[0], u[2]) not in ALLOWED]
    stale = sorted(set(ALLOWED) - {(rel, text) for rel, _line, text in unrun})
    _report.append(f"linetrace: {len(unrun)} of {total} function-body lines in src/seclink unrun")
    for rel, line, text in unrun:
        why = ALLOWED.get((rel, text))
        _report.append(f"  {rel}:{line}: {text}" + (f"  [allowed: {why}]" if why else ""))
    if unexcused:
        _report.append(f"linetrace: {len(unexcused)} unrun line(s) not in ALLOWED")
    for rel, text in stale:
        _report.append(f"linetrace: stale ALLOWED entry, no unrun line in {rel} reads: {text}")
    if unexcused or stale:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    for line in _report:
        terminalreporter.write_line(line)
