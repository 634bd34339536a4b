"""Host-speed calibration.

A shared host can run the same Python code up to 1.8x slower for seconds to
minutes at a time, because of load from outside the process; the 2-core
x86-64 host the reference was taken on does.  A slow phase shows in a fixed
probe loop as well, so each timed sample is scaled by ``PROBE_REF_NS`` over
the probe time measured just before it.  The result reads as host time at
the reference speed: the speed at which the probe takes ``PROBE_REF_NS``,
which is that host's speed in a quiet phase under CPython 3.11.7.  A program
change does not move the probe, so it moves the calibrated figure as it
moves host time.
"""

from __future__ import annotations

import gc
import itertools
import time

PROBE_REF_NS = 385_000

_TABLE = {i: i * 2654435761 % 1009 for i in range(512)}
_MEMBERS = frozenset(range(0, 512, 3))
_POINTS = [(i * 0.37 % 1.0, i * 0.61 % 1.0) for i in range(24)]


def probe_ns() -> int:
    """Time a fixed loop of the kinds of work the engine does.

    Dict and set lookups with int arithmetic (the graph and maintenance
    code), Horner evaluation over ``itertools.product`` tuples (the audit)
    and float distance tests (the disk build).  The collector is off while
    it runs and every tuple it makes is freed, so it neither triggers nor
    absorbs a collection the program's own allocations owe.
    """
    table, members = _TABLE, _MEMBERS
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    acc = 0
    for i in range(1000):
        k = (i * 31 + acc) & 511
        acc = (acc + table[k] + (k in members)) % 1_000_003
    for coeffs in itertools.product(range(5), repeat=4):
        v = 0
        for c in reversed(coeffs):
            v = (v * 3 + c) % 5
        acc += v
    for i, (ux, uy) in enumerate(_POINTS):
        for vx, vy in _POINTS[i + 1:]:
            acc += (ux - vx) ** 2 + (uy - vy) ** 2 <= 0.1
    elapsed = time.perf_counter_ns() - start
    if enabled:
        gc.enable()
    return elapsed


def calibrate(samples: list[float], probes: list[int]) -> list[float]:
    """Scale each sample by PROBE_REF_NS over the probe taken just before it."""
    return [value * PROBE_REF_NS / probe for value, probe in zip(samples, probes)]
