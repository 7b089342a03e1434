"""Speed reference: a fixed pure-Python kernel sampled during each pass.

The benchmark was written on 2 vCPUs of a shared host whose speed moves by
up to 1.7x and stays moved for tens of seconds to minutes, longer than a
run.  So each untraced pass also measures how fast its core was while it
ran: `Sampler` runs `kernel` from a SIGPROF handler every INTERVAL_S of the
pass's CPU time (about 4% of it) and keeps each kernel's wall time.
`speed_factor` turns those into reference kernel time / measured kernel
time, which scales a time measured in the pass to what it would have been
at the reference speed.  `Sampler.clock` leaves the kernel's time out, so
neither the pass's wall nor its spans include it.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

INTERVAL_S = 0.5
# kernel time at the reference speed; it sets the scale of the scaled times
# and never changes, so results stay comparable across commits
REFERENCE_KERNEL_S = 0.020


def kernel() -> None:
    """Fixed interpreter work (dict stores, integer arithmetic), ~20 ms."""
    acc, table = 0, {}
    for i in range(100_000):
        table[i & 63] = acc
        acc = (acc + i * i) % 1_000_003


def speed_factor(samples) -> float:
    """Reference kernel time over the mean kernel time, the outer tenth of
    the samples on each side left out."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return REFERENCE_KERNEL_S / statistics.fmean(ordered[cut : len(ordered) - cut])


class Sampler:
    """Kernel times of one pass: every INTERVAL_S of CPU time while
    installed, and once more on `close`, so a pass always has one."""

    def __init__(self):
        self.samples = array("d")
        self.kernel_s = 0.0

    def clock(self) -> float:
        """perf_counter without the time spent in the kernel."""
        return time.perf_counter() - self.kernel_s

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.kernel_s += took

    def install(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()
