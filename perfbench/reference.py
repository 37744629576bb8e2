"""How fast the host runs while a job runs, sampled with a timer signal.

The benchmark's cores are shared with other tenants, whose load slows the
same job down by up to 2x for stretches of seconds to minutes.  While a
job runs, ``HostSpeed`` interrupts it every ``INTERVAL_S`` seconds of wall
time and times one short pass of a fixed pure-Python loop.  The loop does
the kind of work boolgb does (exponent tuples built with ``zip``, looked
up and stored in a dict) but calls nothing in boolgb, so a change to the
library never moves it; it only follows the host.  The samples are evenly
spaced in time, so ``NOMINAL_S`` times the mean of 1/sample is the host's
average speed over the job, relative to a host on which one pass takes
``NOMINAL_S``.
"""

import random
import signal
import statistics
import time

_rng = random.Random(20150224)
MONOMIALS = [tuple(_rng.randint(0, 2) for _ in range(18)) for _ in range(2000)]
INTERVAL_S = 0.5

# one pass on the host the metric is scaled to (a shared 2-vCPU x86_64
# virtual machine with CPython 3.11, while its neighbours were quiet)
NOMINAL_S = 0.008


def pass_s():
    """Seconds one pass of the loop takes now."""
    start = time.perf_counter()
    seen = {}
    for a, b in zip(MONOMIALS, MONOMIALS[1:]):
        product = tuple(x + y for x, y in zip(a, b))
        lcm = tuple(x if x > y else y for x, y in zip(a, b))
        seen[product] = seen.get(product, 0) ^ 1
        seen[lcm] = seen.get(lcm, 0) ^ 1
    return time.perf_counter() - start


class HostSpeed:
    """Samples ``pass_s`` every ``INTERVAL_S`` inside a ``with`` block.

    ``spent`` is the time the samples took, which the caller takes off
    the block's wall time.  A block shorter than the interval gets one
    sample, taken when it ends.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None):
        self.samples.append(pass_s())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()
        return False

    @property
    def spent(self):
        return sum(self.samples)

    def scale(self, seconds):
        """``seconds`` of work at the sampled speed, in seconds at ``NOMINAL_S``."""
        return seconds * NOMINAL_S * statistics.fmean(1 / s for s in self.samples)


def timed(fn):
    """``fn()``'s result, wall seconds and corrected seconds.

    The wall seconds leave out the samples taken while ``fn`` ran; the
    corrected seconds are those scaled to the host speed of ``NOMINAL_S``.
    """
    start = time.perf_counter()
    with HostSpeed() as speed:
        result = fn()
    took = time.perf_counter() - start - speed.spent
    return result, took, speed.scale(took)
