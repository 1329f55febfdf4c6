"""Speed probe: every reported time is scaled to a reference machine speed.

The sandbox shares its CPUs with other tenants, and its speed drifts by
about a fifth over seconds to minutes (a fixed loop timed in two-second
windows read 23 to 35 ms within one minute).  Raw wall times of identical
runs therefore spread by 15-20 %.  A short fixed loop (the probe) measures
the speed of the moment; a time is multiplied by
REFERENCE_PROBE_S / (median probe time around it), which reads as the
seconds it would take on a machine where the probe takes REFERENCE_PROBE_S.
Raw wall times are kept in the result files.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_LOOPS = 5_000
# the probe's typical time on the 2-vCPU Xeon (Python 3.11) the README's figures come from
REFERENCE_PROBE_S = 0.0004
SAMPLE_PERIOD_S = 0.05
CALL_WINDOW_S = 1.0


def probe() -> float:
    """Time a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def scale(seconds: float, probes: list[float]) -> float:
    """`seconds` at reference speed, given probe times taken around it."""
    return seconds * REFERENCE_PROBE_S / statistics.median(probes)


class Sampler:
    """Runs the probe every SAMPLE_PERIOD_S of wall time, from a timer signal.

    The signal also lands in the middle of a long call, so the samples
    cover the run evenly in time.  `spent` is the total time the probes
    took; a timed region subtracts the part spent inside it.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.probes: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self.stamps.append(start)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def around(self, start: float, end: float, margin: float = 0.0) -> list[float]:
        """Probe times taken within `margin` of [start, end] (at least the nearest one)."""
        lo = bisect.bisect_left(self.stamps, start - margin)
        hi = bisect.bisect_right(self.stamps, end + margin)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.probes), lo + 1)
        return self.probes[lo:hi]
