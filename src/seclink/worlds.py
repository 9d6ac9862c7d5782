"""Deterministic simulated world: an in-memory filesystem plus scripted sockets.

The world is the single source of IO outcomes, chosen so that every run is
a pure function of the starting world:

- descriptors are never reused within a run;
- reads return the whole pending buffer (files: cursor to end; sockets:
  the full scripted request);
- `Select` reports the lowest-numbered ready descriptor;
- writes extend `bytearray` contents in place; reads return `bytes`;
- all failures are in-band `Err` results, never exceptions.

Scenario files describe starting worlds as JSON:
``{"files": {path: base64}, "requests": [{"client_id": int,
"raw_request_bytes": base64}], "max_iterations": int}``.
"""

from __future__ import annotations

import base64
import copy
import json
from dataclasses import dataclass, field, replace

from .effects import Caller, Err, ErrCode, IoOp, Ok, Result

STDOUT_FD = 1
_FIRST_FD = 3
DEFAULT_MAX_ITERATIONS = 8

# Results are immutable: the common ones are shared, not built per step.
_OK_UNIT, _EBADF = Ok(()), Err(ErrCode.EBADF)
_ENOENT, _EWOULDBLOCK = Err(ErrCode.ENOENT), Err(ErrCode.EWOULDBLOCK)


@dataclass
class FileFd:
    path: str
    cursor: int


@dataclass
class SocketFd:
    listening: bool = False


@dataclass
class ClientFd:
    pending: bytes


@dataclass
class ConsoleFd:
    pass


@dataclass
class World:
    files: dict[str, bytes] = field(default_factory=dict)
    requests: list[tuple[int, bytes]] = field(default_factory=list)
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    fds: dict[int, object] = field(default_factory=lambda: {STDOUT_FD: ConsoleFd()})
    next_fd: int = _FIRST_FD
    next_request: int = 0
    # Bytes written per descriptor; survives close so runs can be inspected.
    written: dict[int, bytes] = field(default_factory=dict)

    def clone(self) -> "World":
        """A copy that shares the immutable `bytes` and copies what steps
        mutate: `bytearray` contents, fd entries and the request list."""
        own = lambda t: {k: bytearray(v) if type(v) is bytearray else v for k, v in t.items()}
        return replace(
            self,
            files=own(self.files),
            requests=list(self.requests),
            fds={fd: copy.copy(entry) for fd, entry in self.fds.items()},
            written=own(self.written),
        )


def make_world(files=None, requests=None, max_iterations=DEFAULT_MAX_ITERATIONS) -> World:
    return World(
        files=dict(files or {}),
        requests=[(int(cid), bytes(raw)) for cid, raw in (requests or [])],
        max_iterations=max_iterations,
    )


class ScenarioError(ValueError):
    pass


def load_scenario(text: str) -> World:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ScenarioError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    files = data.get("files", {})
    if not isinstance(files, dict):
        raise ScenarioError('"files" must map paths to base64 content')
    decoded_files = {}
    for path, content in files.items():
        try:
            decoded_files[str(path)] = base64.b64decode(content, validate=True)
        except Exception as exc:
            raise ScenarioError(f"file {path!r}: bad base64 content") from exc
    requests = data.get("requests", [])
    if not isinstance(requests, list):
        raise ScenarioError('"requests" must be a list')
    decoded_requests = []
    for i, req in enumerate(requests):
        if not isinstance(req, dict) or "client_id" not in req or "raw_request_bytes" not in req:
            raise ScenarioError(f"request {i}: need client_id and raw_request_bytes")
        try:
            raw = base64.b64decode(req["raw_request_bytes"], validate=True)
        except Exception as exc:
            raise ScenarioError(f"request {i}: bad base64 bytes") from exc
        if type(req["client_id"]) is not int:  # also rejects true/false
            raise ScenarioError(f"request {i}: client_id must be an integer")
        decoded_requests.append((req["client_id"], raw))
    max_iterations = data.get("max_iterations", DEFAULT_MAX_ITERATIONS)
    if type(max_iterations) is not int or max_iterations < 0:
        raise ScenarioError('"max_iterations" must be a non-negative integer')
    return make_world(decoded_files, decoded_requests, max_iterations)


def dump_scenario(world: World) -> str:
    return json.dumps(
        {
            "files": {p: base64.b64encode(c).decode("ascii") for p, c in world.files.items()},
            "requests": [
                {"client_id": cid, "raw_request_bytes": base64.b64encode(raw).decode("ascii")}
                for cid, raw in world.requests
            ],
            "max_iterations": world.max_iterations,
        },
        indent=2,
    )


def _alloc(world: World, entry) -> int:
    fd = world.next_fd
    world.next_fd += 1
    world.fds[fd] = entry
    return fd


def _append(table: dict, key, data: bytes) -> bytearray:
    """Extend `table[key]`, kept as a `bytearray`, in O(len(data))."""
    buf = table.get(key, b"")
    if type(buf) is not bytearray:
        buf = table[key] = bytearray(buf)
    buf += data
    return buf


def _fields(*casts):
    """Canonicaliser of a fixed-size argument tuple: one cast per field."""
    def canon(arg):
        fields = tuple(arg)
        if len(fields) != len(casts):
            raise ValueError(f"expected {len(casts)} fields, got {arg!r}")
        return tuple([cast(x) for cast, x in zip(casts, fields)])

    return canon


class _ByOp(dict):
    """One dict lookup per op, not a chain of `op is IoOp.X` tests (~0.15 µs each)."""

    def __missing__(self, op):
        raise ValueError(f"unknown op {op!r}")


def _openfile(world: World, arg) -> Result:
    path, flags, _mode = arg
    if path not in world.files:
        if "O_CREAT" in flags:
            world.files[path] = b""
        else:
            return _ENOENT
    return Ok(_alloc(world, FileFd(path, 0)))


def _on_socket(act):
    """Handler of an op on the socket `arg[0]`: `act(entry)`, or EBADF."""
    def handle(world: World, arg) -> Result:
        entry = world.fds.get(arg[0])
        if not isinstance(entry, SocketFd):
            return _EBADF
        act(entry)
        return _OK_UNIT

    return handle


def _accept(world: World, fd) -> Result:
    entry = world.fds.get(fd)
    if not isinstance(entry, SocketFd) or not entry.listening:
        return _EBADF
    if world.next_request >= len(world.requests):
        return _EWOULDBLOCK
    _client_id, raw = world.requests[world.next_request]
    world.next_request += 1
    return Ok(_alloc(world, ClientFd(raw)))


def _select(world: World, arg) -> Result:
    ready = [
        fd
        for fd in sorted(arg)
        if isinstance(world.fds.get(fd), ClientFd) and world.fds[fd].pending
    ]
    if not ready:
        return _EWOULDBLOCK
    return Ok(ready[0])


def _read(world: World, fd) -> Result:
    entry = world.fds.get(fd)
    if isinstance(entry, FileFd):
        content = world.files.get(entry.path, b"")
        data = bytes(content[entry.cursor :])
        entry.cursor = len(content)
        return Ok(data)
    if isinstance(entry, ClientFd):
        if not entry.pending:
            return _EWOULDBLOCK
        data, entry.pending = entry.pending, b""
        return Ok(data)
    return _EBADF


def _write(world: World, arg) -> Result:
    fd, data = arg
    entry = world.fds.get(fd)
    if entry is None or isinstance(entry, SocketFd):
        return _EBADF
    if isinstance(entry, FileFd):
        entry.cursor = len(_append(world.files, entry.path, data))
    _append(world.written, fd, data)
    return _OK_UNIT


def _close(world: World, fd) -> Result:
    if fd not in world.fds or isinstance(world.fds[fd], ConsoleFd):
        return _EBADF
    del world.fds[fd]
    return _OK_UNIT


_open_fields = _fields(str, tuple, int)

# One row per op: (canonicaliser of its argument, its step on the world).
_OPS = {
    IoOp.OPENFILE: (lambda arg: (arg, (), 0) if isinstance(arg, str) else _open_fields(arg), _openfile),
    IoOp.SOCKET: (lambda arg: (), lambda world, arg: Ok(_alloc(world, SocketFd()))),
    IoOp.SETSOCKOPT: (_fields(int, str, lambda value: value), _on_socket(lambda entry: None)),
    IoOp.BIND: (_fields(int, str, int), _on_socket(lambda entry: None)),
    IoOp.LISTEN: (_fields(int, int), _on_socket(lambda entry: setattr(entry, "listening", True))),
    IoOp.SETNONBLOCK: (int, lambda world, fd: _OK_UNIT if fd in world.fds else _EBADF),
    IoOp.ACCEPT: (int, _accept),
    IoOp.SELECT: (lambda arg: tuple(int(fd) for fd in arg), _select),
    IoOp.READ: (int, _read),
    IoOp.WRITE: (_fields(int, bytes), _write),
    IoOp.CLOSE: (int, _close),
}
# Split once, so each event costs one dict lookup per table and no tuple index.
_CANON = _ByOp({op: row[0] for op, row in _OPS.items()})
_STEPS = _ByOp({op: row[1] for op, row in _OPS.items()})


def canon_arg(op: IoOp, arg):
    """Normalise an op argument to its canonical hashable form."""
    return _CANON[op](arg)


def step(world: World, caller: Caller, op: IoOp, arg) -> Result:
    """Apply one IO operation to the world and return its in-band result."""
    return _STEPS[op](world, arg)


def render_trace(events) -> str:
    return "\n".join(e.render() for e in events)
