"""A reference kernel that tracks the host's speed, for steady timings.

On a shared host the same code runs up to a third faster or slower in
phases of a few seconds, as the neighbours' load comes and goes, and
interpreter-bound work and small numpy operations move together. A fixed
kernel of that kind, timed in blocks between the program's calls, follows
those phases. `Reference.time` divides a call's time by the kernel's time in
the blocks on either side of it and multiplies by REFERENCE_S: the result
reads as seconds at the host speed at which one kernel pass takes
REFERENCE_S. A change to the program moves it; the host's phases mostly
cancel out of it. On a 2-vCPU VM, over five seeds, scaling narrowed the
interquartile spread of the golden table's time from 0.14 to 0.05, of
verify_scan's from 0.18 to 0.08 and of plane_chain's from 0.17 to 0.08.
Work on arrays larger than the L2 cache does not follow the kernel; see
`workloads.large_cell`.

The kernel belongs to the benchmark, not to the program, so a change to the
program cannot change the reference.
"""

import time
from dataclasses import dataclass

import numpy as np

P = 32003
SHAPE = (120, 240)
REFERENCE_S = 0.018  # one kernel pass, median on the host the bounds were set on
BLOCK_SHARE = 0.25  # kernel time after a call, as a share of the call's time
FIRST_BLOCK_S = 0.5


@dataclass(frozen=True)
class Block:
    """Kernel passes run back to back, with their total wall and CPU time."""

    passes: int
    wall: float
    cpu: float


def kernel(matrix: np.ndarray) -> int:
    """Rank mod P of a copy of `matrix`, plus a pure-Python modular loop.

    The same mix of interpreter steps and small int64 row operations as
    the oracle's elimination and builders.
    """
    M = matrix.copy()
    rows, cols = M.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(M[rank:, col])[0]
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        M[[rank, pivot]] = M[[pivot, rank]]
        M[rank, col:] = M[rank, col:] * pow(int(M[rank, col]), P - 2, P) % P
        M[rank + 1:, col:] = (M[rank + 1:, col:] - M[rank + 1:, col, None] * M[rank, col:]) % P
        rank += 1
    acc = 1
    for i in range(1, 30000):
        acc = acc * (i * i + rank) % P
    return rank + acc


class Reference:
    """Times calls of the program against blocks of the reference kernel."""

    def __init__(self):
        self.matrix = np.random.default_rng(20171117).integers(1, P, SHAPE, dtype=np.int64)
        self._last = self.block(FIRST_BLOCK_S)

    def block(self, seconds: float) -> Block:
        """Kernel passes until `seconds` have gone by; at least one."""
        passes = 0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        while True:
            kernel(self.matrix)
            passes += 1
            wall = time.perf_counter() - wall0
            if wall >= seconds:
                return Block(passes, wall, time.process_time() - cpu0)

    def time(self, func):
        """Run func(); return its result and its wall and CPU time, raw and scaled.

        The scale comes from the block before the call (the one left by the
        previous call) and a new block after it.
        """
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = func()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        after = self.block(BLOCK_SHARE * wall)
        before, self._last = self._last, after
        passes = before.passes + after.passes
        wall_scale = REFERENCE_S * passes / (before.wall + after.wall)
        cpu_scale = REFERENCE_S * passes / (before.cpu + after.cpu)
        return result, wall * wall_scale, cpu * cpu_scale, wall, cpu

