"""CPU time scaled to a fixed CPU speed.

The vCPUs of a shared host run in fast and slow spells: a fixed loop of
Python takes 0.63 ms or 1.1 ms, and the spells switch every hundred
milliseconds or so, as the other tenants of the host come and go; and a
process may also wait while another one runs on its vCPU.  A wall-clock
time then says as much about the neighbours as about the program, and two
sets of runs made minutes apart differ by 10-30%.

`SpeedClock` counts the process's own CPU time, which leaves out the time
it waited, and measures the speed of its CPU while the program runs: a
timer signal interrupts the process every `PERIOD_S`, and the handler
times a fixed probe of int and dict work.  The CPU time between two probes
is scaled by `PROBE_REF_S / p`, where p is the mean of the two probes
around it, so an interval run at half the reference speed counts half.
`now()` is the scaled time so far, in reference seconds; the probes' own
time is left out.  The handler runs between two bytecodes of the main
thread, so it does not change what the program computes.

The module imports nothing that `localp12.cli` imports and a fresh
interpreter has not loaded already, so a clock started before that
import does not take part of the import's cost away.
"""

import signal
import time

#: seconds between two probes
PERIOD_S = 0.005
#: the probe's time in the fast spells of the machine the benchmark was made
#: on (2.1 GHz Xeon vCPU, CPython 3.11.7): a fixed scale, the same in every run
PROBE_REF_S = 0.00011

_FACTORS = tuple(range(3, 27))


def probe():
    """CPU seconds taken by a fixed piece of int and dict work."""
    start = time.process_time()
    acc = {}
    for i, x in enumerate(_FACTORS):
        for j, y in enumerate(_FACTORS):
            key = (i + j, i - j)
            acc[key] = acc.get(key, 0) + x * y * 7 // 3
    return time.process_time() - start


class SpeedClock:
    """A clock in reference seconds, running between `start` and `stop`."""

    def __init__(self):
        self.scaled = 0.0  # reference seconds up to the marks
        self.wall = 0.0  # wall seconds up to the marks, probes left out
        self.probes = []

    def start(self):
        self.last = probe()
        self.probes.append(self.last)
        self.cpu_mark, self.wall_mark = time.process_time(), time.perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()

    def _tick(self, *_):
        c, t = time.process_time(), time.perf_counter()
        p = probe()
        self.probes.append(p)
        self.scaled += (c - self.cpu_mark) * PROBE_REF_S * 2 / (self.last + p)
        self.wall += t - self.wall_mark
        self.last = p
        self.cpu_mark, self.wall_mark = time.process_time(), time.perf_counter()

    def now(self):
        """Reference seconds so far; the open interval uses the last probe."""
        signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGALRM,))
        try:
            return self.scaled + (time.process_time() - self.cpu_mark) * PROBE_REF_S / self.last
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGALRM,))

    def wall_now(self):
        """Wall seconds so far, probes left out."""
        signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGALRM,))
        try:
            return self.wall + time.perf_counter() - self.wall_mark
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, (signal.SIGALRM,))
