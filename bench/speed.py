"""Machine-speed meter: what turns wall time on a noisy shared box into
time at a fixed machine speed.

This box is a 2-vCPU VM on a shared host.  It runs at its full speed
for stretches of milliseconds to tens of seconds and 1.2x (Python) to
1.4x (floating point) slower in between, with a mix that drifts over
minutes, so the same code measured 215 ms or 290 ms per train step
depending on when it ran; see README.  No estimator inside one run
removes that, because whole runs fall into one mode.

So the benchmark measures the machine next to the program.  A fixed
reference kernel -- three tenths interpreter work, seven tenths small
floating-point array work, none of it program code -- runs every
``INTERVAL_S`` from an interval timer, inside the measuring process, on
the same clock: once untimed, to refill the caches the program has
just emptied, and once timed, for under a millisecond.  A timed
interval is then reported as

    (wall time - reference time inside it) * NOMINAL_S / (mean reference
    time within WINDOW_S of it)

that is, as the seconds it would have taken on a machine on which the
reference kernel takes ``NOMINAL_S``.  A slower program still reads
slower by what it lost; a slower machine mostly does not: over sixty
2 s stretches of each workload the quartile distance of the scaled time
was 5-6% of its median where that of the wall time was 12-16%.  The mix
of the kernel is the one that did best on all four workloads together
(the array-only kernel is better on train_ptd and worse on sim_plan;
one that streams memory is worse on all).  What is left is what the
kernel cannot feel, mostly the host's shared cache and memory.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

#: The reference kernel's duration at this box's full speed.  It only
#: fixes the unit: on another machine every time scales by one constant.
NOMINAL_S = 0.63e-3
INTERVAL_S = 0.04
#: An interval is scaled by the reference samples this close to it.
WINDOW_S = 0.5

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((64, 128))
_W = _RNG.standard_normal((128, 128))


def reference_kernel() -> float:
    total = 0
    for i in range(5000):
        total += i * i
    for _ in range(6):
        total += float((np.tanh(_X @ _W) + _X)[0, 0])
    return total


class SpeedMeter:
    def __init__(self):
        self.starts: list[float] = []
        # prefix sums over the samples: the kernel's timed duration, and
        # what the whole sample took out of the program's time
        self.timed: list[float] = [0.0]
        self.cost: list[float] = [0.0]
        self._busy = False

    # -- sampling -----------------------------------------------------------
    def sample(self, *_signal_args) -> None:
        if self._busy:  # a timer tick that arrived inside a sample
            return
        self._busy = True
        start = time.perf_counter()
        reference_kernel()
        warm = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.timed.append(self.timed[-1] + end - warm)
        self.cost.append(self.cost[-1] + end - start)
        self._busy = False

    def start_timer(self) -> None:
        """Sample every ``INTERVAL_S`` from now on.  Python runs the
        handler in the main thread between two bytecodes, so a sample
        never overlaps program code of this process."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    # -- reading ------------------------------------------------------------
    def seconds(self, start: float, end: float) -> float:
        """``[start, end]`` (``time.perf_counter`` stamps) in seconds at
        nominal machine speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.cost[hi] - self.cost[lo]
        near_lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        near_hi = bisect.bisect_left(self.starts, end + WINDOW_S)
        if near_hi == near_lo:
            raise RuntimeError("no machine-speed sample near the interval")
        reference = ((self.timed[near_hi] - self.timed[near_lo])
                     / (near_hi - near_lo))
        return (end - start - inside) * NOMINAL_S / reference

    def summary(self) -> dict[str, float]:
        """For the run's fingerprint: how many samples, and how fast the
        machine was (1.0 = nominal speed)."""
        count = len(self.starts)
        return {
            "samples": count,
            "mean_speed": NOMINAL_S * count / self.timed[-1] if count else 0.0,
        }
