"""Expected outputs for the benchmark's scenarios, computed from the inputs.

Nothing here imports seclink: each expectation is derived from the request
bytes, the file map or the archive inputs the benchmark generated, so a
change to seclink cannot move the oracle along with the program.
"""

from __future__ import annotations

import posixpath
import re

SERVED_FOLDER = "/temp"
STDOUT_FD = 1

_REQUEST = re.compile(rb"(GET|HEAD|POST) (/[^ \r\n]*) HTTP/1\.[01]\r\n(?:[^\r\n]+\r\n)*\r\n")
BAD_REQUEST = b"HTTP/1.1 400 Bad Request\r\n\r\n"

# How a handler answers a well-formed request.
SERVE = "serve"  # serves the page when it exists inside the served folder
REFUSE = "refuse"  # every call ends in a contract failure


def ok_response(body: bytes) -> bytes:
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body


def served_path(request: bytes) -> str | None:
    """The file a well-formed request names, mapped into the served folder;
    None for a malformed request."""
    match = _REQUEST.fullmatch(request)
    if match is None:
        return None
    rel = match.group(2).decode("latin-1").lstrip("/")
    return posixpath.normpath(SERVED_FOLDER + "/" + rel)


def expected_web_responses(requests, files, behaviour: str, fails_from: int | None = None):
    """One entry per request: the bytes the trusted side must write back, or
    None for a client that never sends anything.

    A handler that misbehaves from its `fails_from`-th call on is expected
    to have each such call end in an in-band contract failure, so those
    requests get a 400 like any refused request.
    """
    out = []
    calls = 0
    for _cid, raw in requests:
        if raw == b"":
            out.append(None)
            continue
        path = served_path(raw)
        if path is None:
            out.append(BAD_REQUEST)
            continue
        failing = fails_from is not None and calls >= fails_from
        calls += 1
        inside = path.startswith(SERVED_FOLDER + "/")
        if behaviour == SERVE and not failing and inside and path in files:
            out.append(ok_response(files[path]))
        else:
            out.append(BAD_REQUEST)
    return out


def web_mismatch(run, requests, expected) -> str | None:
    """Compare the trusted side's writes in a run's trace with `expected`."""
    client_of = {}
    written = [[] for _ in requests]
    for e in run.local:
        caller, op = e.caller.value, e.op.value
        if caller == "Prog" and op == "Accept" and type(e.result).__name__ == "Ok":
            client_of[e.result.value] = len(client_of)
        elif op == "Write":
            fd, data = e.arg
            if caller != "Prog":
                if type(e.result).__name__ == "Ok":
                    return f"untrusted write to {fd} went through"
            elif fd in client_of:
                written[client_of[fd]].append(data)
    if len(client_of) != len(requests):
        return f"accepted {len(client_of)} clients, expected {len(requests)}"
    for i, (want, got) in enumerate(zip(expected, written)):
        if got != ([] if want is None else [want]):
            return f"request {i} ({requests[i][1][:40]!r}): wrote {got!r:.120}, expected {want!r:.120}"
    answered = sum(1 for want in expected if want is not None)
    if run.result != answered:
        return f"server reported {run.result} requests, expected {answered}"
    return None


ARCHIVE_HEADER = b"ZIP1\n"


def expected_archive(inputs, files, entries_until: int | None = None):
    """(entry count, archive bytes) for the benign archiver over `inputs`.

    Missing inputs are skipped.  An archiver that misbehaves from its
    `entries_until`-th entry on is expected to have each such entry end in
    a contract failure that adds nothing.
    """
    body = [ARCHIVE_HEADER]
    entries = 0
    for path in inputs:
        if path not in files:
            continue
        if entries_until is not None and entries >= entries_until:
            break
        body.append(b"entry:" + files[path] + b"\n")
        entries += 1
    return entries, b"".join(body)


def logging_expectation(context: str, files) -> tuple[int, bytes]:
    """(result, console output) of a shipped logging context on a world."""
    has_notes = "/temp/notes.txt" in files
    if context == "well-behaved":
        return (3, b"Openfile\nRead\nClose\n") if has_notes else (0, b"Openfile\n")
    if context == "double-logs":
        return int(has_notes), b"Openfile\n"
    if context == "mislabels":
        return 0, b"Read\n"
    if context in ("skips-logging", "idle"):
        return 0, b""
    raise KeyError(context)


NO_COUNTEREXAMPLE = "no counterexample"
COUNTEREXAMPLE_FOUND = "counterexample found"


def verify_expectation(weakened: bool) -> str:
    """The constraint suite's known answer: the shipped interfaces are sound,
    and an interface whose result check accepts everything is not."""
    return COUNTEREXAMPLE_FOUND if weakened else NO_COUNTEREXAMPLE


def verify_answer(ok: bool) -> str:
    return NO_COUNTEREXAMPLE if ok else COUNTEREXAMPLE_FOUND
