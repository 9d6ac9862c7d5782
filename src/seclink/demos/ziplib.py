"""Archiving scenario: a higher-order untrusted library returning a closure.

The trusted program opens the archive and the input files, then hands the
archive descriptor to an untrusted archiver.  The archiver writes the
archive header and returns a second closure the program calls once per
entry.  Both closures carry call contracts requiring their descriptor
argument to be open, and the monitor confines the archiver to reading and
writing descriptors the trusted side opened.  The monitor state here is
the whole trace, whose owner map lets the policy and call checks decide in
O(1); the trace-level specifications keep their scans.
"""

from __future__ import annotations

from ..contracts import (
    ArrowSpec,
    ArrowT,
    CheckKind,
    DClosure,
    DErr,
    DLeft,
    DRight,
    DUnit,
    EitherT,
    ErrT,
    FdT,
    UnitT,
    check_tree,
)
from ..effects import Caller, IoOp, call_io, do, is_err, is_ok, ret
from ..linker import SourceInterface
from ..monitor import SecureIoLib, full_trace_mstate
from ..traces import enforced_locally, is_open, is_opened_by_prog

ARCHIVE_PATH = "/temp/archive.zip"


def policy_spec(h, caller, op, arg) -> bool:
    if caller is Caller.CTX:
        if op is IoOp.READ:
            return is_opened_by_prog(arg, h)
        if op is IoOp.WRITE:
            return is_opened_by_prog(arg[0], h)
        return False
    return True


def policy(s, op: IoOp, arg) -> bool:
    # Full-trace monitor state: the history, with each live descriptor's opener.
    if op is IoOp.READ:
        return s.owner.get(arg) is Caller.PROG
    if op is IoOp.WRITE:
        return s.owner.get(arg[0]) is Caller.PROG
    return False


def _fd_open_ck(args, s0, _y, _s1) -> bool:
    return args[0] in s0.owner


def _fd_open_pre(args, h) -> bool:
    return is_open(args[0], h)


def _local_policy_post(args, h, r, lt) -> bool:
    return enforced_locally(policy_spec, h, lt)


ZIP_FILE_TYPE = ArrowT(
    (FdT(),),
    EitherT(UnitT(), ErrT()),
    ArrowSpec("zip_file", CheckKind.PRE, pre=_fd_open_pre, post=_local_policy_post),
)

ZIP_TYPE = ArrowT(
    (FdT(),),
    EitherT(ZIP_FILE_TYPE, ErrT()),
    ArrowSpec("zip", CheckKind.PRE, pre=_fd_open_pre, post=_local_policy_post),
)


def whole_run_post(_h, result, lt) -> bool:
    """The program's bookkeeping duty: it closes every descriptor it opens."""
    opened = set()
    for e in lt:
        if e.caller is Caller.PROG and e.op is IoOp.OPENFILE and is_ok(e.result):
            opened.add(e.result.value)
        elif e.op is IoOp.CLOSE and is_ok(e.result):
            opened.discard(e.arg)
    return not opened and result >= 0


def interface() -> SourceInterface:
    return SourceInterface(
        label="zip",
        ctype=ZIP_TYPE,
        policy_spec=policy_spec,
        policy=policy,
        cks=check_tree(ZIP_TYPE, {"zip": _fd_open_ck, "zip_file": _fd_open_ck}),
        whole_run_post=whole_run_post,
        mstate=full_trace_mstate(),
    )


def make_zip_prog(inputs: tuple[str, ...] = ("/temp/in1.txt",), probe_closed_fd: bool = False):
    """Archive the input files; returns the number of entries added.

    With `probe_closed_fd` the program deliberately passes an already
    closed descriptor to the entry closure, exercising its call contract.
    """

    @do
    def prog(archiver):
        archive = yield call_io(IoOp.OPENFILE, (ARCHIVE_PATH, ("O_CREAT",), 0o644))
        if is_err(archive):
            return 0
        archive = archive.value
        entries = 0
        started = yield archiver(archive)
        if is_ok(started):
            add_entry = started.value
            for path in inputs:
                opened = yield call_io(IoOp.OPENFILE, (path, (), 0))
                if is_err(opened):
                    continue
                added = yield add_entry(opened.value)
                if is_ok(added):
                    entries += 1
                yield call_io(IoOp.CLOSE, opened.value)
                if probe_closed_fd:
                    stale = yield add_entry(opened.value)
                    if is_ok(stale):
                        entries += 1
        yield call_io(IoOp.CLOSE, archive)
        return entries

    return prog


# ---------------------------------------------------------------------------
# Untrusted archivers
# ---------------------------------------------------------------------------


def benign_zip(lib: SecureIoLib) -> DClosure:
    """Writes a header, then copies each entry into the archive."""

    @do
    def start(dafd):
        header = yield lib.call(IoOp.WRITE, (dafd.fd, b"ZIP1\n"))
        if is_err(header):
            return DRight(DErr(header.code, header.why))

        @do
        def add_entry(dfd):
            data = yield lib.call(IoOp.READ, dfd.fd)
            if is_err(data):
                return DRight(DErr(data.code, data.why))
            wrote = yield lib.call(IoOp.WRITE, (dafd.fd, b"entry:" + data.value + b"\n"))
            if is_err(wrote):
                return DRight(DErr(wrote.code, wrote.why))
            return DLeft(DUnit())

        return DLeft(DClosure(add_entry))

    return DClosure(start)


def zip_opens_own_file(lib: SecureIoLib) -> DClosure:
    """Tries to open a file of its own; the monitor denies it."""

    @do
    def start(_dafd):
        opened = yield lib.call(IoOp.OPENFILE, ("/temp/own.txt", (), 0))
        return DRight(DErr(opened.code, opened.why)) if is_err(opened) else _idle_entries()

    return DClosure(start)


def _idle_entries() -> DLeft:
    return DLeft(DClosure(lambda _dfd: ret(DLeft(DUnit()))))


def zip_writes_wild(lib: SecureIoLib) -> DClosure:
    """Writes to a descriptor nobody opened; the monitor denies it."""

    @do
    def start(_dafd):
        wrote = yield lib.call(IoOp.WRITE, (99, b"junk"))
        return DRight(DErr(wrote.code, wrote.why)) if is_err(wrote) else _idle_entries()

    return DClosure(start)


CONTEXTS = {
    "benign": benign_zip,
    "opens-own-file": zip_opens_own_file,
    "writes-wild": zip_writes_wild,
}
