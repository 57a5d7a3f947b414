"""How fast the host runs Python right now, relative to a nominal speed.

On the shared VM the benchmark was developed on, the same pure-Python work
took up to 1.6 times as long from one few-second spell to the next, and a
slow or fast spell could last a whole run.  So every end-to-end timing is
divided by a host factor measured around it (:class:`HostProbe`): the time
of a fixed reference now divided by its nominal time.  The result is the
time the work would have taken on a host running the reference at nominal
speed.  The reference is code of this benchmark, never of the package, so a
change to the package does not move it.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

# Nominal time of one reference call: a round figure for the development
# machine (a 2-vCPU Xeon VM, Python 3.11), where it took about 2.1 ms in slow
# spells and 1.1 ms in fast ones.
REF_CALL_S = 0.002


def _reference() -> tuple:
    """Classical row insertion of a fixed permutation of 300 on lists,
    snapshotting the rows as tuples after each letter: the same kind of
    interpreter work (small lists, tuples, calls, allocation) as the package."""
    perm = list(range(300))
    random.Random(7).shuffle(perm)
    rows: list[list[int]] = []
    snap: tuple = ()
    for x in perm:
        for row in rows:
            i = bisect.bisect(row, x)
            if i == len(row):
                row.append(x)
                break
            row[i], x = x, row[i]
        else:
            rows.append([x])
        snap = tuple(tuple(row) for row in rows)
    return snap


def host_factor() -> float:
    """Median time of five reference calls now ÷ the nominal time (1.0 =
    nominal; 2.0 = the host runs Python half as fast).  The collector is
    off meanwhile: a collection of the objects the workload keeps alive
    would time the workload, not the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            _reference()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) / REF_CALL_S


class HostProbe:
    """Host factors taken between units of work.  ``measure`` takes one
    factor; the default suits work done in this process."""

    def __init__(self, measure=host_factor) -> None:
        self.measure = measure
        self.factors = [measure()]

    def unit_factor(self) -> float:
        """Take a factor now and return the mean of it and the previous one:
        the factor for the unit of work that ran between them."""
        self.factors.append(self.measure())
        return (self.factors[-2] + self.factors[-1]) / 2
