"""Machine-speed probe: the times this benchmark reports are at a reference speed.

On the shared two-core machine the benchmark was written on, the same
pure-Python call takes anywhere from 1x to 2x its fastest time, in states
that last from a fraction of a second to minutes; run-to-run spreads of raw
times reached 35 %.  So while it measures, the benchmark times a fixed
kernel (a few small complex Gaussian eliminations in plain Python; it does
not touch the package, so no change to the package can move it) on a
SIGALRM every PROBE_EVERY_S, from inside whatever the main thread is
running, long operations included.  A measured interval is rescaled by
REF_S over the median probe taken within WINDOW_S of it, and the time the
probes themselves took inside an operation is subtracted from it.  The
report prints raw times next to the rescaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter_ns

REF_S = 1.5e-3        # about the probe's median on that machine
PROBE_EVERY_S = 0.1
WINDOW_S = 0.25


def _kernel() -> complex:
    acc = 0j
    for s in range(40):
        a = [[complex((i * 7 + j * 3 + s) % 11 + 1, (i + 2 * j) % 5) for j in range(6)]
             for i in range(6)]
        for c in range(6):
            piv = a[c][c]
            acc += piv
            for r in range(c + 1, 6):
                f = a[r][c] / piv
                row, prow = a[r], a[c]
                for cc in range(c + 1, 6):
                    row[cc] -= f * prow[cc]
    return acc


class Prober:
    """Probes on a timer while in use (main thread only)."""

    def __init__(self):
        self.at_ns: list[int] = []      # probe midpoints, increasing
        self.took_ns: list[int] = []
        self.stolen_ns = 0              # total time spent probing

    def probe(self, _signum=None, _frame=None) -> None:
        start = perf_counter_ns()
        _kernel()
        end = perf_counter_ns()
        self.at_ns.append((start + end) // 2)
        self.took_ns.append(end - start)
        self.stolen_ns += end - start

    def __enter__(self) -> "Prober":
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Factor that takes the interval [start, end] to reference speed."""
        half = int(WINDOW_S * 1e9)
        lo = bisect.bisect_left(self.at_ns, start_ns - half)
        hi = bisect.bisect_right(self.at_ns, end_ns + half)
        near = self.took_ns[lo:hi]
        if not near:   # only when the timer was starved; take the closest probe
            near = [self.took_ns[min(lo, len(self.took_ns) - 1)]]
        return REF_S * 1e9 / statistics.median(near)
