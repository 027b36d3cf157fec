"""A gauge of how fast the host runs the interpreter at a given moment.

The benchmark's host is a share of a machine whose speed changes by a
third and more from one second to the next, with the load of other
tenants.  A fixed computation on the standard library alone (Fraction
arithmetic: big-integer gcds and object allocation, the kind of work the
package does), timed right before and right after a task, tells how fast
the host ran during it.  Scaling the task's wall time by
NOMINAL_S / (mean of the two gauge readings) gives the time the task
takes on a host on which the gauge reads NOMINAL_S.  The gauge uses no
code of the package, so a change to the package does not move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# What the gauge reads on a quiet 2-vCPU Intel Xeon VM under Python
# 3.11.7.  Only the ratio of two commits' scaled times matters, so the
# value just sets the scale; it must stay fixed for results to compare.
NOMINAL_S = 0.0004


def gauge() -> float:
    """Seconds taken by the fixed computation, now."""
    perf = time.perf_counter
    t0 = perf()
    for _ in range(2):
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(i * i + 1, 2 * i + 3)
    return perf() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall time scaled to the nominal host speed."""
    return seconds * NOMINAL_S * 2 / (before + after)
