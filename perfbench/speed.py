"""Host speed sampling, so that a timing does not move with the host's load.

On a shared host the same code can run 1.5x slower for minutes at a time
while other tenants load the machine.  `Sampler` runs a fixed reference
loop from a SIGALRM handler every `INTERVAL_S` of wall time, in the thread
being timed, so the loop meets the same contention as the code around it.
`Sampler.corrected(start, end)` takes an interval's wall time, removes the
time spent in the handler, and rescales the rest to a host on which the
reference loop takes `NOMINAL_S`:

    corrected = (wall - handler time) * NOMINAL_S / median(reference time)

The median is over the samples taken inside the interval, so the correction
follows load that changes from one unit to the next; an interval too short
to hold MIN_SAMPLES of them takes the median of the whole run.

The module imports nothing beyond the standard library, so that a fresh
interpreter can start sampling before it imports numpy.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
# sets the scale of corrected times: a typical median of the reference loop,
# called from the handler, on a 2-vCPU Intel Xeon host with Python 3.11
NOMINAL_S = 3.5e-4
MIN_SAMPLES = 5


def reference() -> int:
    """A fixed piece of interpreter work: arithmetic, tuples and a small dict."""
    total = 0
    table = {}
    for i in range(1500):
        total += i * i % 7
        table[i & 63] = (i, total)
    return max(table.values())[1]


class Sampler:
    """Times `reference()` every INTERVAL_S between `start()` and `stop()`."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        reference()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def corrected(self, start: float, end: float) -> float:
        """Wall time of [start, end] without the handler, at NOMINAL_S speed."""
        inside = [d for s, d in zip(self.starts, self.durations) if start <= s < end]
        speed = inside if len(inside) >= MIN_SAMPLES else self.durations
        return (end - start - sum(inside)) * self.scale(speed)

    def scale(self, durations=None) -> float:
        """NOMINAL_S over the median reference time (of the run by default); 1 with none."""
        durations = self.durations if durations is None else durations
        return NOMINAL_S / statistics.median(durations) if durations else 1.0
