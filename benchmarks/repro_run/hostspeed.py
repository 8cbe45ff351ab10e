"""Host-speed normalisation for the ``repro run`` benchmark's times.

On a shared host the same code can run half again as slow in some
minutes as in others: a neighbour's load slows the vCPU, so wall and
CPU time grow together.  A figure sweep of 5 to 40 seconds cannot
average that away.  :class:`SpeedSampler` measures the host's speed
during a timed region instead: a timer signal interrupts the region
every :data:`INTERVAL_S` and runs one fixed pure-Python calibration
loop, :func:`calibration_loop`, on the same thread, timing it.  The
region's seconds, less the time spent in the samples, are then scaled
to the reference speed: the speed at which one calibration loop takes
:data:`REFERENCE_SAMPLE_S`.

The scale factor is ``REFERENCE_SAMPLE_S`` over the harmonic mean of the
sample durations.  With samples evenly spread over wall time, that is
the region's mean speed relative to the reference, and a sample
stretched by a stall (a signal that waited for a long C call, a
preemption) weighs little in it.  The calibration loop is the
benchmark's own code, so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

#: Seconds between two calibration samples.  One sample takes about
#: 0.3 ms, so sampling costs under 1% of the region.
INTERVAL_S = 0.05

#: Duration of one calibration loop at the reference speed, about what
#: it takes on a 2.1 GHz Xeon vCPU running CPython 3.11.
REFERENCE_SAMPLE_S = 250e-6


def calibration_loop(n: int = 1500) -> int:
    """Fixed interpreter work: dict updates, integer arithmetic, a loop."""
    table: dict[int, int] = {}
    total = 0
    for i in range(n):
        key = i & 127
        table[key] = table.get(key, 0) + i
        total += (i * 7) >> 3
    return total


@dataclass(frozen=True)
class Region:
    """A timed region: raw seconds and the host's calibration samples."""

    wall_s: float
    cpu_s: float
    sample_wall_s: float
    sample_cpu_s: float
    samples: tuple[float, ...]

    @property
    def speed(self) -> float:
        """Host speed over the region relative to the reference."""
        return REFERENCE_SAMPLE_S * sum(1.0 / s for s in self.samples) / len(
            self.samples
        )

    @property
    def ref_wall_s(self) -> float:
        """Wall seconds of the region's own work at the reference speed."""
        return (self.wall_s - self.sample_wall_s) * self.speed

    @property
    def ref_cpu_s(self) -> float:
        """CPU seconds of the region's own work at the reference speed."""
        return (self.cpu_s - self.sample_cpu_s) * self.speed


class SpeedSampler:
    """Context manager timing a region and sampling the host's speed.

    The region gets one sample on entry and one on exit besides the
    timer's, so even a region shorter than :data:`INTERVAL_S` has two.
    ``region`` holds the result after exit.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.region: Region | None = None
        self._samples: list[float] = []
        self._sample_wall = 0.0
        self._sample_cpu = 0.0

    def _sample(self, *_signal_args) -> None:
        cpu = time.process_time()
        wall = time.perf_counter()
        calibration_loop()
        elapsed = time.perf_counter() - wall
        self._sample_cpu += time.process_time() - cpu
        self._sample_wall += elapsed
        self._samples.append(elapsed)

    def __enter__(self) -> "SpeedSampler":
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.region = Region(
            wall_s=time.perf_counter() - self._wall,
            cpu_s=time.process_time() - self._cpu,
            sample_wall_s=self._sample_wall,
            sample_cpu_s=self._sample_cpu,
            samples=tuple(self._samples),
        )
