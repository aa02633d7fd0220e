"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts by 20% or more within
seconds, far more than a change worth measuring. ``kernel`` is a fixed
piece of work with the same make-up as xlwpt's hot loops: small NumPy
operations driven from Python, with no xlwpt code, so no change to the
program can alter it. ``Sampler`` times it every PERIOD_S of wall time
while work runs, from a SIGALRM handler in the main thread, so even a
single long call is sampled throughout. ``Sampler.timed`` removes the
kernel's own time from a timed call and scales the rest to the speed at
which the kernel takes NOMINAL_S.
"""

import signal
import statistics
import time

import numpy as np

# the kernel's typical warm time on a 2-core x86-64 Xeon VM with Python
# 3.11 and NumPy 2.4.6; it only sets the unit, every run is scaled to it
NOMINAL_S = 0.004
PERIOD_S = 0.2


def kernel():
    """Capped-simplex projections and small contractions on fixed data."""
    rng = np.random.default_rng(0)
    a = rng.random((8, 3))
    g = rng.random((8, 3, 3))
    ks = np.arange(1, 4)
    acc = 0.0
    for i in range(300):
        v = np.sort(a[i % 8])[::-1]
        css = np.cumsum(v) - 0.5
        k = np.nonzero(css / ks < v)[0][-1]
        b = np.maximum(a - css[k] / (k + 1), 0.0)
        acc += float(np.einsum("sm,skm->", b, g)) + float(np.linalg.norm(b))
    return acc


class Sampler:
    """Context manager that times the kernel every PERIOD_S while active.

    Each tick runs the kernel twice and times the second, warm run, so the
    sample does not depend on what the interrupted work left in the
    caches. ``samples`` holds ``(end, warm run seconds, tick seconds)``.
    Only the main thread may use it, because Python runs signal handlers
    there.
    """

    def __init__(self):
        kernel()  # the first run pays one-off start-up costs
        self.samples = []
        self._busy = False
        self._previous = None
        self.sample()

    def sample(self):
        """Time one warm kernel run now; returns its seconds."""
        start = time.perf_counter()
        kernel()  # warms the caches the interrupted work has cooled
        tic = time.perf_counter()
        kernel()
        toc = time.perf_counter()
        self.samples.append((toc, toc - tic, toc - start))
        return toc - tic

    def _tick(self, signum, frame):
        if self._busy:  # a slow kernel run outlasted the period
            return
        self._busy = True
        self.sample()
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args):
        """Call ``fn(*args)``; return its result, its wall seconds without
        the kernel runs that interrupted it, and those seconds at nominal
        speed, from the kernel runs inside the call or else the last one
        before it."""
        n = len(self.samples)
        tic = time.perf_counter()
        out = fn(*args)
        toc = time.perf_counter()
        recent = self.samples[n - 1:]
        inside = [s for s in recent if tic < s[0] <= toc]
        raw = toc - tic - sum(s[2] for s in inside)
        if inside:
            speed = statistics.mean(s[1] for s in inside)
        else:
            speed = [s[1] for s in recent if s[0] <= tic][-1]
        return out, raw, raw * NOMINAL_S / speed
