"""Host-speed samples, so that timings can be given at one reference speed.

On a shared virtual machine (the baseline's host: 2 vCPUs of an Intel
Xeon) the core speed flips between two levels about 1.9x apart, without
any steal time showing. A level lasts from a few milliseconds to tens of
seconds, and the share of time spent at each drifts over minutes. A
median over a run then falls in either level and a mean moves with the
drift, so two runs of the same code disagreed by up to 45%. The process
is also descheduled now and then for a few milliseconds, which lands in
single verdicts.

Two measures remove both effects:

* Every interval is stamped with ``clock``, the CPU time of the calling
  thread, so time spent descheduled does not count. The engine is
  single-threaded and BLAS is pinned to one thread; a change that moves
  work to other threads must revisit this. (The process-wide CPU clock
  is not used: while a CPU-time timer is armed, Linux reads it at tick
  resolution.)
* ``SpeedProbe`` measures the core speed next to the program, on the
  same thread. A ``SIGPROF`` timer interrupts the program every
  ``PERIOD_S`` of CPU time; the handler runs a fixed reference kernel
  (an interpreter loop and a few small numpy products, the two kinds of
  work the detector does) twice and records how long the second, warm
  run took. ``scaled`` turns an interval of the program into its
  duration at the reference speed: the CPU time, less the handler's own
  time inside it, times the mean of ``REF_S / kernel time`` over the
  samples inside it and within ``PAD_S`` of its ends.

A change to the program's own work changes the scaled times in
proportion; a change of the host's speed largely cancels out. ``REF_S``
is the kernel's time at the slower of the two levels, where the host
spent most of its time, so scaled times read as CPU seconds at that
level.
"""

from __future__ import annotations

import signal
import time

import numpy as np

clock = time.thread_time
PERIOD_S = 0.005
PAD_S = 0.0075  # so that a verdict of two milliseconds still sees three samples
REF_S = 38e-6
MIN_KERNEL_S = REF_S / 4  # the faster level is about REF_S / 1.9

_RNG = np.random.default_rng(0)
_W = _RNG.standard_normal((64, 64)) * 0.1
_X = _RNG.standard_normal(64)


def reference_kernel() -> float:
    total = 0
    for i in range(200):
        total += (i * 7) % 13
    h = _X
    for _ in range(4):
        h = np.tanh(_W @ h)
    return total + float(h[0])


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self.own: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = clock()
        reference_kernel()  # refills the caches the program has just used
        warm = clock()
        reference_kernel()
        end = clock()
        self.starts.append(start)
        self.lengths.append(end - warm)
        self.own.append(end - start)

    def start(self) -> None:
        reference_kernel()  # first call pays for imports and allocation
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)

    def scaled(self, starts, ends) -> np.ndarray:
        """Durations of the intervals [starts[i], ends[i]] at the reference speed."""
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        if starts.size == 0:
            return starts
        t = np.asarray(self.starts)
        own = np.concatenate([[0.0], np.cumsum(self.own)])
        # Handler time inside the interval is not the program's.
        inside_lo = np.searchsorted(t, starts)
        inside_hi = np.searchsorted(t, ends)
        raw = (ends - starts) - (own[inside_hi] - own[inside_lo])
        # The thread CPU clock has been seen to read a kernel run as zero
        # (in one of thirty 40 s runs). Such a reading is not a speed.
        length = np.asarray(self.lengths)
        valid = length >= MIN_KERNEL_S
        if not valid.any():
            raise RuntimeError("no speed samples were taken")
        t, length = t[valid], length[valid]
        speed = np.concatenate([[0.0], np.cumsum(REF_S / length)])
        lo = np.searchsorted(t, starts - PAD_S)
        hi = np.searchsorted(t, ends + PAD_S, side="right")
        empty = hi <= lo  # no sample near: use the samples on either side
        lo = np.where(empty, np.maximum(lo - 1, 0), lo)
        hi = np.where(empty, np.minimum(lo + 2, len(t)), hi)
        return raw * (speed[hi] - speed[lo]) / (hi - lo)

    def summary(self) -> dict:
        length = np.asarray(self.lengths)
        length = length[length >= MIN_KERNEL_S]
        return {
            "kernel_us_p10": float(np.percentile(length, 10)) * 1e6,
            "kernel_us_p90": float(np.percentile(length, 90)) * 1e6,
            "mean_speed": float(np.mean(REF_S / length)),
        }
