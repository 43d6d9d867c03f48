"""Host-speed probe: a fixed pure-Python loop timed between points.

Shared hosts drift in speed by up to 2x within a minute, mostly through
contention for caches and memory.  On a 2-core VM one fig8 probe point
ran anywhere from 0.19 s to 0.35 s over 50 s.  A pass therefore times
this loop before its first campaign call and after every call, and
``run.py`` rescales each call's wall time to the host speed at which
the loop takes ``NOMINAL_S``.  The loop is the benchmark's own code, so
no change to the simulator can move it.

The loop imitates the simulator's inner loops over a heap far larger
than the caches: attribute traffic on slot objects picked at random
from a large list, lookups in a large dict, small-object allocation and
a short FIFO.  A probe with a cache-resident heap tracked the
scenario workload worse than no probe at all.  The heap lives in a
helper process, so it never counts in the pass's peak RSS; the pass
blocks while the helper runs, so the two never compete for a core.

    python3 perfbench/hostspeed.py    # helper: one probe per byte read
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import time

#: heap objects, dict entries and accesses of one probe
OBJECTS = 600_000
MEMO = 1_200_000
ACCESSES = 16_000
#: the probe's time on the reference host (2-core VM, Python 3.11.7);
#: normalised times are seconds at that host's speed
NOMINAL_S = 0.030


class _Slot:
    __slots__ = ("a", "b", "ref")

    def __init__(self, a: int):
        self.a = a
        self.b = 0
        self.ref = None


def _loop():
    """Build the heap once; return the function that walks it."""
    rng = random.Random(5)
    slots = [_Slot(i) for i in range(OBJECTS)]
    order = [rng.randrange(OBJECTS) for _ in range(ACCESSES)]
    memo = {i * 7: i for i in range(MEMO)}
    mask = (1 << (7 * MEMO).bit_length()) - 1

    def walk() -> float:
        fifo: list = []
        t0 = time.perf_counter()
        for i in order:
            s = slots[i]
            s.b += memo.get((s.a * 7) & mask, 1) + (i % 5)
            new = _Slot(i)
            new.ref = s
            fifo.append(new)
            if len(fifo) > 16:
                fifo.pop(0)
        return time.perf_counter() - t0

    return walk


def serve() -> None:
    """Helper loop: time one walk per byte on stdin, answer on stdout;
    exit at end of input (the pass closed the pipe or died)."""
    gc.disable()            # the heap is static; keep every walk equal
    walk = _loop()
    while sys.stdin.buffer.read(1):
        sys.stdout.write(f"{walk()!r}\n")
        sys.stdout.flush()


class HostProbe:
    """The pass's handle on its helper process."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE)

    def __call__(self) -> float:
        """Seconds of one walk, timed inside the helper."""
        self._proc.stdin.write(b"p")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed helper exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
