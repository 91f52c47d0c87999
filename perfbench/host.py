"""A fixed reference loop that samples the host's speed during a run.

The benchmark shares a few cores of a host with other machines, and the
speed it gets there drifts by up to a factor of two over tens of
seconds.  Between timed calls, after every ``BLOCK_S`` of measured wall
time, the benchmark times this loop, which is pure interpreter work
(string formatting, dict lookups and stores, integer arithmetic) and
calls nothing of the program.  A block's wall time scaled by
``NOMINAL_S / sample`` is its length on a host where the loop takes
``NOMINAL_S``: a *reference second*.  The sample is the running median
of the samples around the block.  The program's changes cannot move the
loop, so a time in reference seconds moves with the program and not
with the host.
"""

from __future__ import annotations

import gc
import statistics
import time

#: measured wall time between two samples of the reference loop
BLOCK_S = 0.25
#: iterations of the reference loop, about 2.5 ms on an unloaded 2.1 GHz
#: Xeon core
ITERATIONS = 10_000
#: the loop's wall time that defines one reference second
NOMINAL_S = 0.0025
#: samples on each side of a block that smooth its scale
NEIGHBOURS = 2


def reference_seconds() -> float:
    """Wall time of one fixed round of interpreter work.

    The garbage collector is paused inside it, so the program's heap
    cannot add a collection to the sample.
    """
    collecting = gc.isenabled()
    gc.disable()
    began = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(ITERATIONS):
        key = "k%d" % (i & 511)
        table[key] = table.get(key, 0) + i
    elapsed = time.perf_counter() - began
    if collecting:
        gc.enable()
    return elapsed


def to_reference(wall_s: float, sample_s: float) -> float:
    """A wall time measured when the loop took ``sample_s``, in reference
    seconds."""
    return wall_s * NOMINAL_S / sample_s


def smoothed(samples: list[float]) -> list[float]:
    """Each sample replaced by the median of it and its ``NEIGHBOURS`` on
    each side, so one stray sample cannot rescale a block on its own."""
    return [statistics.median(samples[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1])
            for i in range(len(samples))]
