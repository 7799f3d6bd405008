"""The host's speed, sampled between the program's operations.

A shared machine runs the same code up to twice as fast in one second as
in the next, and drifts over minutes, so two runs of one program made a few
minutes apart can differ by more than a regression worth catching.  A
fixed calibration loop, run for a fraction of a millisecond at the end of
garbage collections (`spans.Tracer.sample_host`) with its time held out of
every timed span, measures that speed on the same CPU at the same moments
as the program.  Its work resembles the program's: Python
bytecode and numpy dispatch on tiny arrays, with no BLAS call (so BLAS
threading does not reach it) and no object the garbage collector tracks (so
the program's heap does not slow it).

`factor()` is the run's calibration rate over NOMINAL_LOOPS_PER_S: above 1
on a host faster than nominal.  A measured time multiplied by it, or a
measured rate divided by it, is the figure at nominal host speed.
"""

from __future__ import annotations

import statistics
import time
from array import array

import numpy as np

# A fixed reference; a 2.1 GHz Xeon vCPU of a shared 2-vCPU VM (Python 3.11,
# numpy 2.4) ran 0.7 to 1.2 times it.  Only ratios are compared.
NOMINAL_LOOPS_PER_S = 550_000.0
# a sample this far below the run's median rate was interrupted, not slow
STALL = 3.0

_A = np.linspace(0.0, 1.0, 16).reshape(4, 4)


def _loop(n: int) -> float:
    x = 0.0
    for i in range(n):
        b = _A * 1.5 + _A
        x += float(b[1, 2]) * 0.5 + i
    return x


class HostSpeed:
    """Calibration samples of one measured phase."""

    def __init__(self):
        self.loops = array("q")
        self.seconds = array("d")

    def sample(self, loops: int) -> float:
        """Run the loop; return the seconds it took."""
        t0 = time.perf_counter()
        _loop(loops)
        took = time.perf_counter() - t0
        self.loops.append(loops)
        self.seconds.append(took)
        return took

    def factor(self) -> float:
        """Calibration rate over the phase ÷ nominal; 1.0 without samples.

        Samples interrupted by a stall (a rate below a third of the
        median) are left out: a stall hits the operation it lands in, not
        the host's speed.
        """
        if not self.loops:
            return 1.0
        rates = [n / s for n, s in zip(self.loops, self.seconds)]
        floor = statistics.median(rates) / STALL
        kept = [(n, s) for n, s, r in zip(self.loops, self.seconds, rates)
                if r >= floor]
        rate = sum(n for n, _ in kept) / sum(s for _, s in kept)
        return rate / NOMINAL_LOOPS_PER_S
