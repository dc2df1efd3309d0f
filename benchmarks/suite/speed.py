"""Host speed during each measured call, from a fixed reference loop.

The benchmark box is a 2-vCPU VM on a shared host.  Each vCPU switches,
independently and for tenths of a second to tens of seconds, between an
uncontended state and one about 40% slower, and how much the two vCPUs
slow each other down changes over time too.  Raw wall-clock medians
therefore mostly measure how long a run spent contended.

:class:`SpeedMeter` times :func:`reference_seconds` right before and
after each measured call.  ``speed = REF_NOMINAL_S / reference time``
is 1.0 on an uncontended vCPU; multiplying a measured time by the speed
during the call expresses it at nominal speed.  The reference is the
benchmark's own code, so no change to the package moves it.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from collections import OrderedDict
from time import perf_counter
from typing import Callable

#: Steps of the reference loop (about 8.5 ms on the benchmark box).
REF_STEPS = 6000
#: Reference-loop seconds on the benchmark box when its vCPU is not
#: contended: normalized times are in units of that speed.
REF_NOMINAL_S = 0.0085
#: Passes per process of the all-vCPU reference (about 0.1 s).
ALL_CPU_PASSES = 12


class _Entry:
    __slots__ = ("key", "t")

    def __init__(self, key: int, t: int) -> None:
        self.key = key
        self.t = t


def reference_seconds() -> float:
    """Time one pass of a fixed pure-Python loop: a toy LRU join cache.

    Its dict, object and comprehension work is the interpreter-bound mix
    the tiers run, which is what makes its slowdown track theirs.
    """
    start = perf_counter()
    cache: OrderedDict = OrderedDict()
    x = 12345
    for t in range(REF_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = t + x % 21 - 10
        if key in cache:
            cache.move_to_end(key)
        else:
            cache[key] = _Entry(key, t)
            if len(cache) > 10:
                cache.popitem(last=False)
        for entry in [e for e in cache.values() if e.t < t - 50]:
            del cache[entry.key]
    return perf_counter() - start


def _reference_child(conn) -> None:
    conn.send(None)
    conn.recv()
    start = perf_counter()
    for _ in range(ALL_CPU_PASSES):
        reference_seconds()
    conn.send(perf_counter() - start)
    conn.close()


def reference_seconds_all_cpus() -> float:
    """Seconds per reference pass while every vCPU runs passes at once.

    One forked process per vCPU, placed by the scheduler like the
    parallel engine's workers, runs ``ALL_CPU_PASSES`` passes (about
    0.1 s) after a common start; the slowest sets the result.  A load
    that keeps both vCPUs busy for that long sees what the parallel
    tier sees, including contention that a short pass misses.
    """
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for _ in os.sched_getaffinity(0):
            conn, child_conn = ctx.Pipe()
            process = ctx.Process(target=_reference_child, args=(child_conn,))
            process.start()
            children.append((process, conn))
        for _, conn in children:
            conn.recv()
        for _, conn in children:
            conn.send(None)
        return max(conn.recv() for _, conn in children) / ALL_CPU_PASSES
    finally:
        # Closing first ends a child still waiting for the start signal.
        for _, conn in children:
            conn.close()
        for process, _ in children:
            process.join()


class SpeedMeter:
    """Tracks host speed around the benchmark's measured calls.

    A reference pass ends one call's measurement and starts the next
    one's, so a round of ``k`` single-vCPU calls costs ``k + 1`` passes.

    Each measured call also starts on a collected heap (``gc.collect()``
    first).  A call still pays for the collections its own allocations
    trigger, but not for another call's garbage; otherwise a 40-120 ms
    full collection lands in whichever round happens to cross the
    threshold.  Callers ``gc.freeze()`` the long-lived objects (imports,
    the workload's inputs) so those collections stay cheap.
    """

    def __init__(self) -> None:
        self._last = reference_seconds()
        #: Speed of every measured call so far.
        self.speeds: list[float] = []

    @property
    def speed(self) -> float:
        """Host speed relative to nominal at the latest reference pass."""
        return REF_NOMINAL_S / self._last

    def _record(self, before: float, after: float) -> float:
        self.speeds.append(2.0 * REF_NOMINAL_S / (before + after))
        return self.speeds[-1]

    def mark(self) -> float:
        """Run a reference pass; return the speed since the previous one.

        Long calls mark between stretches of their own work so each
        stretch is normalized by the speed around it.
        """
        before = self._last
        self._last = reference_seconds()
        return self._record(before, self._last)

    def around(self, fn: Callable, *args, **kwargs) -> tuple:
        """Call ``fn``; return ``(its result, speed during the call)``."""
        gc.collect()
        result = fn(*args, **kwargs)
        return result, self.mark()

    def around_all_cpus(self, fn: Callable, *args, **kwargs) -> tuple:
        """:meth:`around` for a call that keeps every vCPU busy, measured
        with :func:`reference_seconds_all_cpus`."""
        before = reference_seconds_all_cpus()
        gc.collect()
        result = fn(*args, **kwargs)
        after = reference_seconds_all_cpus()
        self._last = reference_seconds()
        return result, self._record(before, after)
