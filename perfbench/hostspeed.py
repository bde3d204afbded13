"""Host speed, sampled during the timed work, and times scaled by it.

On a virtual machine that shares its host, outside load can slow every
instruction by 1.3x to 2x, in episodes from seconds to minutes long (seen
on a 2-vCPU, 2 GHz Xeon guest).  A slow episode can cover a whole run, so
no statistic of the run's own timings removes it.  ``HostSpeed`` therefore runs a fixed kernel, which
does not depend on sprayform, every ``INTERVAL`` seconds during the timed
work (from a SIGALRM handler, so it runs on the main thread between two
bytecodes of the program) and once after each timed call.  A timed call's
wall time, minus the time spent in the kernel inside it, is scaled by
``REFERENCE_S`` over the mean kernel time sampled during and around the
call.  The result reads as the call's time on a host at reference speed.
A change to sprayform leaves the kernel's time unchanged, so it shows in
the scaled time in full.
"""

import signal
import time

import numpy as np

# A round figure near the wall time of ``kernel`` on a calm host (8 ms on a
# 2 GHz Xeon vCPU, Python 3.11, numpy 2.4, one BLAS thread).  It only sets
# the unit of the scaled times.
REFERENCE_S = 0.010
# Seconds between two samples during a timed call.
INTERVAL = 0.25

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((150, 6, 6)) + 6.0 * np.eye(6)
_B = _RNG.standard_normal((150, 6, 1))
_V = _RNG.standard_normal((400, 3))


def kernel():
    """A fixed mix of interpreter work and small numpy calls, as sprayform's."""
    table = {}
    acc = 0.0
    for i in range(12000):
        x = (i * 0.5) % 7.0
        table[i & 1023] = x
        acc += x * x - table.get((i * 7) & 1023, 0.0)
    for _ in range(25):
        x = np.linalg.solve(_A, _B)
        y = np.einsum("bij,bjk->bik", _A, _A)
        z = np.sin(_V) * np.cos(_V) + _V ** 2
        acc += float(x.sum() + y[0, 0, 0] + z.sum())
    return acc


class HostSpeed:
    """Samples ``kernel``; ``around`` times a call and scales it by them.

    Used as a context manager, it samples on a timer until the block ends;
    only one may be active, and only on the main thread.  Outside such a
    block a call is scaled by samples taken just before and after it.
    """

    def __init__(self):
        self.samples = []       # kernel wall times, in order
        self.spent = 0.0        # total wall time spent in the kernel
        self.active = False     # sampling on a timer

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def _on_alarm(self, _signum, _frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.active = True
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.active = False
        return False

    def around(self, call, n=1):
        """(``call()``'s result, its wall time, the speed factor around it).

        The wall time excludes the kernel samples taken during the call.
        The factor is ``REFERENCE_S`` over the mean of the samples taken
        during the call, the ``n`` taken just after it, and the ``n`` just
        before it: new ones if sampling is not active, else the previous
        call's closing samples.
        """
        if not self.active:
            for _ in range(n):
                self.sample()
        first = len(self.samples) - n
        spent0 = self.spent
        t0 = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - t0 - (self.spent - spent0)
        for _ in range(n):
            self.sample()
        around = self.samples[first:]
        return result, elapsed, REFERENCE_S * len(around) / sum(around)
