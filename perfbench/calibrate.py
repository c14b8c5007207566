"""Machine-speed calibration: every timing is reported at a reference speed.

On a 2-core x86 box (Xeon, 2.1 GHz) whose cores are shared with other
tenants, the speed a process gets drifts by up to 2x within a minute: a
fixed piece of work took 20 ms in one five-second window and 42 ms in
another.  Process CPU time drifts with it, so the drift is not time stolen
from the process but slower execution.  No run length makes a raw timing
repeat within the benchmark's bounds under that.

So the client times a fixed *probe* before and after every timed interval
and scales the interval by ``REFERENCE_SECONDS / (mean of the two probes)``:
a timing is what the interval would have taken at the speed at which the
probe takes ``REFERENCE_SECONDS``.  A first hit, which arrives early in
most queries, is scaled by the probe before it alone.  The probe is the
benchmark's own code, not the program's, so a change to the program cannot
speed it up; it has the query path's instruction mix (small NumPy column
updates between Python dictionary and heap operations), so it slows down as
the query path does.  The raw timings are printed next to the calibrated
ones.
"""

from __future__ import annotations

import heapq
from time import perf_counter

import numpy

#: Sets the scale only: a calibrated timing is what the interval would have
#: taken where the probe takes this long.  On the 2-core Xeon above the probe
#: took 8-10 ms in most minutes and 5 ms in the fastest.
REFERENCE_SECONDS = 0.0070

_ITERATIONS = 1200
_LENGTH = 40
_STEP = numpy.arange(_LENGTH, dtype=numpy.int32) % 7
_FLOOR = (numpy.arange(_LENGTH, dtype=numpy.int32) * 3) % 11


def probe() -> float:
    """Seconds one fixed piece of work takes now."""
    start = perf_counter()
    column = numpy.zeros(_LENGTH, dtype=numpy.int32)
    scratch = numpy.empty_like(column)
    heap: list = []
    recent: dict = {}
    for index in range(_ITERATIONS):
        numpy.add(column, _STEP, out=scratch)
        numpy.maximum(scratch, _FLOOR, out=column)
        column -= 1
        numpy.maximum(column, 0, out=column)
        best = int(column.max())
        heapq.heappush(heap, (-best, index))
        if len(heap) > 64:
            heapq.heappop(heap)
        recent[index & 255] = (best, index)
    return perf_counter() - start


def speed_factor(*probes: float) -> float:
    """Calibrated over raw seconds for an interval at the speed ``probes`` saw."""
    return REFERENCE_SECONDS * len(probes) / sum(probes)
