"""The machine's momentary speed, measured while a workload runs.

On a shared virtual machine the speed of the same Python loop drifts by up to
2x for stretches of seconds to a minute, in both directions, and process CPU
time drifts with it (the slowdown is per instruction, not time taken away).
A run that times only wall clock measures that drift as much as the program.

`Pace` interrupts the workload every `INTERVAL` seconds with SIGALRM and times
a fixed pure-Python reference kernel, which does the kind of work the engine
does: a subgroup closure over tuple permutation products looked up by id.  Its clock
`now()` leaves the time spent in the kernel out.  `seconds(t0, t1)` turns a
stretch of that clock into *reference seconds*: the stretch's length times
REFERENCE_S over the kernel's time around it.  Reference seconds are the time
the work would take on a machine that runs the kernel in exactly REFERENCE_S.
A change that makes the engine faster lowers them as much as wall time; the
machine's drift, which slows kernel and engine alike, cancels out.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import signal
import statistics
import time

clock = time.perf_counter

INTERVAL = 0.05
REFERENCE_S = 0.0018  # the kernel's median time on the machine of README.md's figures
SMOOTH = 3  # a kernel time is the median of this many neighbouring samples

# S6 as image tuples with ids, multiplied the way the engine's permutation
# backend multiplies: compose two tuples, look the product up by its tuple.
_ELS = list(itertools.permutations(range(6)))
_IDS = {p: i for i, p in enumerate(_ELS)}
_GENS = [_IDS[(1, 2, 3, 4, 5, 0)], _IDS[(1, 0, 2, 3, 4, 5)]]


def _mul(a: int, b: int) -> int:
    bb = _ELS[b]
    return _IDS[tuple([bb[x] for x in _ELS[a]])]


def kernel() -> int:
    """The reference work: S6 closed from two generators by breadth-first
    search over right products, as `gpi.groups.closure_ids` does.

    It builds every tuple from a list, never from a generator, so that it
    leaves the garbage collector's counts as they were (a tuple built from a
    generator is allocated one size too large and resized, which counts as
    an allocation that is never given back).  With the collector off while
    it runs, sampling starts no collection either, and the engine's
    collections stay on the operations they would fall on without sampling.
    A kernel that moved them made single verdict times noisy.
    """
    els, frontier = {0}, [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g in _GENS:
                b = _mul(a, g)
                if b not in els:
                    els.add(b)
                    nxt.append(b)
        frontier = nxt
    return len(els)


class Pace:
    """Samples the kernel's time while active (a context manager, reusable).

    Samples are kept as (time on `now()`'s clock, kernel seconds) across every
    activation, so stretches timed in different activations can all be
    converted.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._smooth: list[float] | None = None
        self._spent = 0.0
        self._old = None

    def __enter__(self) -> Pace:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = clock()
        kernel()
        t1 = clock()
        if enabled:
            gc.enable()
        self.at.append(t0 - self._spent)
        self.took.append(t1 - t0)
        self._smooth = None
        self._spent += clock() - t0

    def now(self) -> float:
        """The wall clock without the time spent in the kernel."""
        while True:
            spent = self._spent
            t = clock()
            if spent == self._spent:  # no sample ran in between
                return t - spent

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the stretch [t0, t1] of `now()`'s clock.

        The kernel time used is the mean speed of the smoothed samples inside
        the stretch, or the nearest sample's for a stretch shorter than
        INTERVAL.
        """
        if not self.took:
            raise RuntimeError("no speed sample was taken")
        if self._smooth is None:
            h, n = SMOOTH // 2, len(self.took)
            self._smooth = [statistics.median(self.took[max(0, i - h):min(n, i + h + 1)])
                            for i in range(n)]
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi > lo:
            speed = statistics.fmean(REFERENCE_S / s for s in self._smooth[lo:hi])
        else:
            mid = (t0 + t1) / 2
            i = min(bisect.bisect_left(self.at, mid), len(self.at) - 1)
            if i > 0 and mid - self.at[i - 1] < self.at[i] - mid:
                i -= 1
            speed = REFERENCE_S / self._smooth[i]
        return (t1 - t0) * speed
