"""Host speed during a run, from a fixed computation outside coldplasma.

The benchmark's host is shared.  Its speed flips between a fast and a slow
state (up to 1.8x apart) from one second to the next, and the share of slow
time drifts over minutes; CPU time stretches with wall time, so it is not
time stolen by the hypervisor.  Raw times of one commit therefore move by
20-30 % between two sets of runs, more than a useful regression bound.

``HostProbe`` times a short pure-Python loop (about 0.8 ms on a fast core):
every ``INTERVAL`` seconds while in-process work runs (from a SIGALRM
handler, so a long operation is sampled throughout), and a few times before
and after each pass, each set-up and each operation run in a child process.
The probes' own time is taken out of each operation, and a pass (or a
set-up) is scaled by ``PROBE_REF_S`` over the mean probe time during and
around it: the result is its time on a host where the probe takes
``PROBE_REF_S`` ("reference-host seconds").  A change to coldplasma moves it
as much as the raw time; the host's state moves it much less (measured over
six seeded runs of affine-ensemble: quartile spread 0.30 raw, 0.034 scaled).

Standard library only, so it can run before numpy and coldplasma are
imported.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time


def _probe_work() -> float:
    s = 0.0
    for i in range(12000):
        s += math.sqrt(i) * 0.5
    return s


class HostProbe:
    PROBE_REF_S = 0.0008    # the probe's time on a fast core of a 2.1 GHz Xeon
    INTERVAL = 0.25         # seconds between timer-driven probes
    NEAREST = 3             # probes taken, and used, on either side of a timed span

    def __init__(self):
        # (start, end, CPU seconds spent, timed wall, timed CPU) of each probe
        self.samples = []

    def sample(self, n: int = 1) -> None:
        """Probe n times.  Each probe runs the loop twice and times the second
        run, so the caches the measured code left behind do not count."""
        for _ in range(n):
            w0, c0 = time.perf_counter(), time.process_time()
            _probe_work()
            w1, c1 = time.perf_counter(), time.process_time()
            _probe_work()
            w2, c2 = time.perf_counter(), time.process_time()
            self.samples.append((w0, w2, c2 - c0, w2 - w1, c2 - c1))

    def start(self) -> None:
        """Probe every INTERVAL seconds of wall time until ``stop``."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def sampling(self):
        self.start()
        try:
            yield
        finally:
            self.stop()

    def _inside(self, start: float, end: float) -> list:
        return [s for s in self.samples if start <= s[0] and s[1] <= end]

    def spent(self, start: float, end: float) -> tuple[float, float]:
        """(wall, CPU) seconds the probes took inside [start, end]."""
        inside = self._inside(start, end)
        return sum(s[1] - s[0] for s in inside), sum(s[2] for s in inside)

    def factors(self, start: float, end: float) -> tuple[float, float]:
        """(wall, CPU) reference-host seconds per measured second over [start, end].

        PROBE_REF_S over the mean probe time inside the span and of the
        NEAREST probes on either side.
        """
        before = [s for s in self.samples if s[1] <= start][-self.NEAREST:]
        after = [s for s in self.samples if s[0] >= end][:self.NEAREST]
        near = before + self._inside(start, end) + after
        return (self.PROBE_REF_S * len(near) / sum(s[3] for s in near),
                self.PROBE_REF_S * len(near) / sum(s[4] for s in near))
