"""Pass timing that corrects for the host's drifting speed.

The hosts this benchmark runs on are shared: the same work can take half
again as long in one stretch of tens of seconds as in the next, so a
bare wall time says as much about the neighbours as about dgres.  A
`Meter` therefore cuts each pass into segments of about TICK_S seconds,
on an interval timer, and runs a fixed reference kernel between them.
Each segment's wall time is divided by the mean of the two kernel times
around it, which gives its length in kernel runs ("ref"): a unit that
moves with the program and much less with the host.  The kernel does the
same kinds of work as dgres (exact Fraction elimination, dicts keyed by
exponent tuples, frozensets, lookups in a table larger than the caches)
on fixed inputs and never calls dgres, so no change to dgres moves it.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from collections import defaultdict
from fractions import Fraction

_RNG = random.Random(20250201)
_MATRIX = [[_RNG.choice((-1, 0, 0, 0, 1)) for _ in range(20)] for _ in range(16)]
_POLY = {
    tuple(_RNG.randrange(2) for _ in range(8)): _RNG.choice((-1, 1)) for _ in range(24)
}
# A table larger than the processor's caches, read at random places: dgres
# chases pointers through large complexes, and a kernel that stayed in
# cache would slow down less than dgres when neighbours crowd the memory.
_TABLE = {_RNG.getrandbits(48): i for i in range(50_000)}
_PROBES = _RNG.sample(list(_TABLE), 8_000)


def _rank(mat) -> int:
    a = [[Fraction(x) for x in row] for row in mat]
    rows, cols, r = len(a), len(a[0]), 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def _square(poly: dict) -> dict:
    out: dict = {}
    for m1, c1 in poly.items():
        for m2, c2 in poly.items():
            m = tuple(max(a, b) for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def kernel() -> tuple[int, int, int]:
    """The fixed reference work; returns its results so they are checked."""
    square = _square(_POLY)
    return (
        _rank(_MATRIX),
        len(frozenset(square) | frozenset(_POLY)),
        sum(_TABLE[k] for k in _PROBES),
    )


EXPECTED = kernel()


def kernel_s() -> float:
    """Seconds one run of `kernel` takes now.

    The garbage collector is off meanwhile: a full collection scans every
    object the workload holds, which is the workload's cost, not the
    host's speed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        got = kernel()
        took = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    if got != EXPECTED:
        raise RuntimeError(f"reference kernel gave {got}, want {EXPECTED}")
    return took


# Short segments track the drift best: on recorded passes, 0.2 s segments
# with one kernel run between them halved the scatter of the certificate
# bursts' `ref` time against 0.5 s segments with the median of three runs,
# at a smaller cost (the kernel takes about a tenth of the pass).
TICK_S = 0.2


class Meter:
    """Times one pass as segments separated by reference-kernel runs.

    Use it as a context manager around the pass.  A tick closes the open
    segment: its wall time counts under "pass", and the time within it
    of the calls timed by `call` under their own keys.  `seconds`
    holds the wall times, `ref` the same times in kernel runs; kernel
    runs themselves are in neither.  A tick comes from SIGALRM `every`
    seconds after the previous one ended (the handler runs between two
    bytecodes of whatever dgres is doing), and one ends the pass.  With
    `every=None` the pass is one segment, for the traced run, whose spans
    must not hold kernel time.
    """

    def __init__(self, every: float | None = TICK_S):
        self.every = every
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.ref: defaultdict[str, float] = defaultdict(float)
        self.kernel_s: list[float] = []
        self._open: defaultdict[str, float] = defaultdict(float)
        self._active: str | None = None  # key of the call under way
        self._call_from = 0.0  # its time before this is counted
        self._previous_handler = None

    def __enter__(self) -> "Meter":
        self.kernel_s.append(kernel_s())
        if self.every:
            self._previous_handler = signal.signal(signal.SIGALRM, self._alarm)
            signal.setitimer(signal.ITIMER_REAL, self.every)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self.tick()

    def call(self, key: str, fn, *args):
        """`fn(*args)`, its wall time added to `key`: the part before each
        tick during the call in that tick's segment, the rest in the open
        one.  Calls do not nest."""
        assert self._active is None, "Meter.call does not nest"
        self._active, self._call_from = key, time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._open[key] += time.perf_counter() - self._call_from
            self._active = None

    def tick(self) -> None:
        now = time.perf_counter()
        self._open["pass"] += now - self._start
        if self._active is not None:
            self._open[self._active] += now - self._call_from
        self.kernel_s.append(kernel_s())
        per_run = (self.kernel_s[-2] + self.kernel_s[-1]) / 2
        for key, took in self._open.items():
            self.seconds[key] += took
            self.ref[key] += took / per_run
        self._open.clear()
        self._start = self._call_from = time.perf_counter()

    def _alarm(self, *_) -> None:
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, self.every)
