"""A probe of how fast this core runs, sampled while the measured code runs.

On a shared host the speed of a core drifts by tens of percent over seconds to
minutes, and between two runs of the same code that drift, not the code,
dominates the spread of a wall time. A probe taken before or after the
measured code tracks it poorly; one interleaved with it tracks it well.

`SpeedProbe` times a fixed small kernel (`probe_kernel`: a pure-Python loop,
small numpy operations, a small matrix product and dict/str/sort work, the
package's own mix) on the core the measured code runs on. As a context manager
it takes a sample from a SIGALRM handler every `INTERVAL_S`; the handler runs
in the main thread between bytecodes, so the samples interleave with the
measured code. `sample()` takes one by hand, to interleave with short work.
Each sample runs the kernel twice and times the second pass, so that what the
measured code left in the caches does not count.

`slowdown` is the median sample time over `REFERENCE_S`, a fixed constant near
the kernel's typical median time on the machine the benchmark's bounds were
set on (a 2-vCPU x86-64 VM); it only sets the scale. `normalize(start, end)`
gives the time from `start` to `end` at that reference speed: it splits the
span into runs of about `CHUNK` samples and divides the wall time of each,
without the probe's own time, by that run's slowdown, so that it follows a
change of speed within the span.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
CHUNK = 12
REFERENCE_S = 1.2e-4

_VEC = np.linspace(-1.0, 1.0, 32)
_MAT = np.random.default_rng(0).random((48, 48))


def probe_kernel() -> None:
    acc = 0.0
    for i in range(300):
        acc += i * 0.5
    v = _VEC
    for _ in range(15):
        v = np.tanh(v) * 0.5 + v[::-1]
    _MAT @ _MAT
    _MAT @ _MAT
    d = {i: str(i) for i in range(150)}
    sorted(d.values())


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []   # time of each sample's timed pass
        self.spent: list[float] = []     # time of each sample, both passes
        self.ends: list[float] = []      # perf_counter() at each sample's end
        self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        probe_kernel()
        t1 = time.perf_counter()
        probe_kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent.append(t2 - t0)
        self.ends.append(t2)

    def _handler(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probe_s(self) -> float:
        """Total time spent in the probe."""
        return float(sum(self.spent))

    @property
    def slowdown(self) -> float:
        return float(np.median(self.samples)) / REFERENCE_S if self.samples else 1.0

    def normalize(self, start: float, end: float) -> float:
        """Time from `start` to `end` (perf_counter() readings that enclose every
        sample) at the reference speed."""
        if not self.samples:
            return end - start
        total, edge = 0.0, start
        runs = np.array_split(np.arange(len(self.samples)), max(1, len(self.samples) // CHUNK))
        for k, run in enumerate(runs):
            stop = end if k == len(runs) - 1 else self.ends[run[-1]]
            wall = stop - edge - sum(self.spent[i] for i in run)
            total += wall * REFERENCE_S / float(np.median([self.samples[i] for i in run]))
            edge = stop
        return total
