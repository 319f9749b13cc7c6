"""Host speed reference for scaling measured times.

On a shared host the same single-threaded Python work runs at speed
levels up to about 1.9x apart, and one level can last for seconds or a
whole run, so neither longer runs nor per-operation minima make run
medians agree.  What does stay steady is the ratio between an
operation's time and the time of a fixed pure-Python kernel measured
next to it.  Of the kernels tried (a bitmask closure, a scan of a large
list, building an argparse parser), the argparse one kept that ratio
steadiest across speed levels for CLI calls, searches and TI checks
alike: within 3-6% over 15 s windows whose raw times differed by 60%.

``SpeedProbe`` measures that kernel between operations, at most every
``INTERVAL_S`` of wall time, and, while an operation runs, from a
``SIGALRM`` handler every ``INTERVAL_S``, so that a search lasting
seconds is scaled by the speed during it.  Time spent in the handler is
taken off the operation's time.  ``scale`` turns a raw time into
seconds at the nominal speed ``NOMINAL_S``, the kernel's typical time
on a 2-core Xeon (2.0 GHz, Python 3.11).  The kernel does not touch
the library, so a library change moves only the numerator.
"""

import argparse
import gc
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
WINDOW = 3
NOMINAL_S = 0.85e-3
REPEATS = 3


def kernel():
    """Build and use a small argparse parser: allocation-, dict- and
    call-heavy standard-library Python that never touches the library."""
    parser = argparse.ArgumentParser(prog="probe")
    commands = parser.add_subparsers(dest="command")
    for i in range(6):
        command = commands.add_parser(f"cmd{i}")
        command.add_argument("--count", type=int, default=1)
        command.add_argument("--item", action="append", default=[])
    return parser.parse_args(["cmd3", "--count", "4", "--item", "x"])


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self.last = -INTERVAL_S
        self.stolen = 0.0

    def sample(self):
        """Record the kernel's best time of REPEATS, with the collector off."""
        begin = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(REPEATS):
                start = perf_counter()
                kernel()
                best = min(best, perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(best)
        self.last = perf_counter()
        self.stolen += self.last - begin

    def due(self):
        """Sample if INTERVAL_S has passed; return the latest sample's index."""
        if perf_counter() - self.last >= INTERVAL_S:
            self.sample()
        return len(self.samples) - 1

    def _tick(self, signum, frame):
        self.sample()

    def timed(self, call, inflight=True):
        """Run ``call``, sampling every INTERVAL_S while it runs if
        ``inflight``.

        Returns (result, exception, raw seconds without the sampling,
        index of the last sample taken by then); one of result and
        exception is None.
        """
        previous = signal.signal(signal.SIGALRM, self._tick)
        stolen = self.stolen
        if inflight:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        result = error = None
        try:
            result = call()
        except Exception as exc:
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raw = perf_counter() - start - (self.stolen - stolen)
            signal.signal(signal.SIGALRM, previous)
        return result, error, raw, len(self.samples) - 1

    def scale(self, raw, first, last):
        """Raw seconds measured between samples ``first`` and ``last``
        (inclusive) -> nominal seconds.

        The local speed is the median of those samples and WINDOW more on
        either side; call ``sample`` once more after the last measurement.
        """
        near = self.samples[max(0, first + 1 - WINDOW):last + 1 + WINDOW]
        return raw * NOMINAL_S / statistics.median(near)
