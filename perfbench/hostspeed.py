"""Host-speed probes, and timings adjusted by them.

The host the benchmark runs on is shared: for seconds to minutes at a
time other tenants slow down every instruction it executes, by more
than 2x, in CPU time as much as in wall time. A pass timed during such a
phase reads slow however often it is repeated, because the whole run
can sit inside the phase.

A probe is a fixed piece of interpreter work of the kind the program
does most: decode JSON records, group them in a dict, sort them by a
Python key, encode some back. It runs with the garbage collector off,
so its cost does not depend on how much the program holds in memory.
While a workload runs, a ``Prober`` thread takes one probe every
``PROBE_EVERY_S``, with the process pinned to one CPU, so the probe runs
on the CPU the program runs on. A timed part is then adjusted to the
reference host by the median of the probes taken during it (at least
the ``NEAREST`` closest)::

    adjusted = (seconds - probe time inside it) * PROBE_REFERENCE_S
               / median(probes)

so a part that took 1.3 s while the probes ran 1.3x slow reads as 1 s.
The program never runs the probe, so a change to the program moves the
adjusted times exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import json
import os
import random
import threading
import time
from bisect import bisect_left
from typing import Callable, List, Sequence, Tuple

from percentiles import median

#: a round figure for the probe's time on a quiet 2-vCPU Xeon host
#: (2.6-3.0 ms there), in seconds; adjusted times read as that host's
PROBE_REFERENCE_S = 0.003
#: wall time between the end of one probe and the start of the next
PROBE_EVERY_S = 0.1
#: least number of probes whose median adjusts one part
NEAREST = 7

_rng = random.Random(20160626)
_LINES = [json.dumps({
    "id": i, "name": "n%06d" % _rng.randrange(10 ** 6),
    "tags": [_rng.choice("abcdefgh") for _ in range(_rng.randint(0, 6))],
    "score": _rng.random(), "parent": _rng.randrange(100)})
    for i in range(1000)]


def probe() -> float:
    """Seconds one fixed piece of interpreter work takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        records = [json.loads(line) for line in _LINES]
        children = {}
        for record in records:
            children.setdefault(record["parent"], []).append(record["id"])
        records.sort(key=lambda r: (r["name"], r["id"]))
        "\n".join(json.dumps(r, sort_keys=True) for r in records[::4])
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def pin_to_one_cpu() -> None:
    """Run this process, its threads and any child on one CPU, so the
    probe thread measures the CPU the program runs on. Where affinity
    cannot be set, runs unpinned."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Prober:
    """A thread taking probes while the ``with`` block runs.

    ``probes`` holds ``(start, seconds)`` on the ``perf_counter`` clock.
    """

    def __init__(self, every: float = PROBE_EVERY_S,
                 measure: Callable[[], float] = probe,
                 clock: Callable[[], float] = time.perf_counter):
        self.every = every
        self.measure = measure
        self.clock = clock
        self.probes: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-prober",
                                        daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.every):
            start = self.clock()
            self.probes.append((start, self.measure()))

    def __enter__(self) -> "Prober":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class Timeline:
    """The timed parts of one pass: a ready phase, then ops.

    Every part is ``(start, seconds)`` on the ``perf_counter`` clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.ready: Tuple[float, float] = (0.0, 0.0)
        self.ops: List[Tuple[float, float]] = []

    def timed(self, fn, *args):
        """Call ``fn(*args)`` as one op."""
        start = self.clock()
        result = fn(*args)
        self.ops.append((start, self.clock() - start))
        return result

    def adjusted(self, probes: Sequence[Tuple[float, float]]
                 ) -> Tuple[float, List[float]]:
        """The ready phase and the ops, each adjusted by ``probes``."""
        return (adjust(self.ready, probes),
                [adjust(op, probes) for op in self.ops])


def adjust(part: Tuple[float, float],
           probes: Sequence[Tuple[float, float]]) -> float:
    """``part``'s seconds at the reference host's speed.

    The probe time inside the part, when the program waited for the
    probe thread, is taken off; the rest is scaled by the median of the
    probes that started during the part, or of the ``NEAREST`` closest
    to its middle when fewer started during it. ``probes`` are in the
    order they were taken, which is the order of their starts.
    """
    if not probes:
        raise ValueError("no probes to adjust by")
    start, seconds = part
    end = start + seconds
    first = bisect_left(probes, start, key=_start)
    last = bisect_left(probes, end, key=_start)
    inside = probes[first:last]
    if len(inside) < NEAREST:
        middle = start + seconds / 2.0
        around = probes[max(0, first - NEAREST):last + NEAREST]
        inside = sorted(around, key=lambda p: abs(p[0] + p[1] / 2.0
                                                  - middle))[:NEAREST]
    # probes do not overlap one another, so only the last one to start
    # before the part can reach into it
    waited = sum(max(0.0, min(end, s + d) - max(start, s))
                 for s, d in probes[max(0, first - 1):last])
    return (seconds - waited) * PROBE_REFERENCE_S / median(
        [d for _, d in inside])


def _start(probe: Tuple[float, float]) -> float:
    return probe[0]
