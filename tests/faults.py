"""Single-fault injection: the world fails one IO op of a run.

`interpret` reads `worlds.step` once per run, so a replacement installed on
the module reaches every run started after it, with no change to `src/`.  A
`Fault` answers the `k`-th op (from 0) of the first run it sees with
`Err(code)` and leaves that run's world as it was; every other op, in that
run or a later one, goes to the world as usual.  A run is told apart by its
world, which `interpret` clones once per run.
"""

from __future__ import annotations

from contextlib import contextmanager

from seclink import worlds
from seclink.effects import Err, ErrCode

CODES = (ErrCode.EBADF, ErrCode.EWOULDBLOCK)
_STEP = worlds.step


class Fault:
    def __init__(self, k: int, code: ErrCode):
        self.k, self.code = k, code
        self.world = None  # the faulted run's world, once it has taken a step
        self.ops = 0  # ops that run has taken
        self.failed = None  # (caller, op) of the op it failed, once it has

    def __call__(self, world, caller, op, arg):
        if self.world is None:
            self.world = world
        if world is self.world:
            self.ops += 1
            if self.ops == self.k + 1:
                self.failed = (caller, op)
                return Err(self.code)
        return _STEP(world, caller, op, arg)


@contextmanager
def injected(fault: Fault):
    """Runs started inside the block take their steps through `fault`."""
    worlds.step = fault
    try:
        yield fault
    finally:
        worlds.step = _STEP
