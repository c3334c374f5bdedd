"""Host speed, measured between steps by three fixed calibration kernels.

On a shared host the same instructions run at different speeds from one
second to the next: neighbours compete for the core's pipeline and for
the shared cache.  Step times follow that drift (the same episode in the
same process took 2.8 s to 4.5 s), so the benchmark times, before every
step and after the last, three kernels that never change and do not
touch the library, one per kind of work the program does:

* ``interp``: a pure-Python loop of dict and integer operations, like
  the driver's orchestration;
* ``small``: numpy slicing, ``repeat`` and averaging on arrays of a few
  hundred cells, like ghost copies, prolongation and restriction;
* ``stream``: two numpy elementwise passes over arrays larger than L2,
  like the batched sweeps.

A kernel's duration over its duration on the reference host is its
slowness; the host's slowness is the mean of the three.  A step's time
divided by that slowness is its time at the reference host's speed,
reported in ``ref_`` units.  The kernels are the same on every commit,
so a change to the program moves ``ref_`` times as it moves wall times
on a quiet host.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel durations on the reference host (2 vCPU, L2 2 MiB per core,
#: L3 105 MiB shared, numpy 2.4.6, Python 3.11.7), medians over a few
#: thousand samples.  They only fix the scale of the ``ref_`` units.
INTERP_REF_S = 1.2e-3
SMALL_REF_S = 2.0e-3
STREAM_REF_S = 2.0e-3

#: interp loop iterations; small-kernel rounds; stream array shape
#: (4.1 MB of float64 each)
INTERP_ITERS = 6000
SMALL_ROUNDS = 150
STREAM_SHAPE = (8, 40, 40, 40)


class HostSpeed:
    """The calibration kernels, with their arrays allocated once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._coarse = rng.random((1, 6, 6))
        self._fine = rng.random((1, 12, 12))
        self._a = rng.random(STREAM_SHAPE)
        self._b = self._a.copy()
        self._c = np.empty_like(self._a)
        # touch every page and every code path before the first sample
        self.slowness()

    def interp(self) -> float:
        clock = time.perf_counter
        t0 = clock()
        s = 0
        for i in range(INTERP_ITERS):
            d = {"a": i, "b": s}
            s += d["a"] * 3 % 7
        return clock() - t0

    def small(self) -> float:
        coarse, fine = self._coarse, self._fine
        clock = time.perf_counter
        t0 = clock()
        for _ in range(SMALL_ROUNDS):
            fine[:, 2:10, 2:10] = np.repeat(
                np.repeat(coarse[:, 1:5, 1:5], 2, axis=1), 2, axis=2)
            fine[:, 0:2, :] = fine[:, 8:10, :]
            avg = 0.25 * (fine[:, 2:10:2, 2:10:2] + fine[:, 3:10:2, 2:10:2]
                          + fine[:, 2:10:2, 3:10:2] + fine[:, 3:10:2, 3:10:2])
            np.minimum(avg, 1.0, out=avg)
        return clock() - t0

    def stream(self) -> float:
        a, b, c = self._a, self._b, self._c
        clock = time.perf_counter
        t0 = clock()
        np.multiply(a, b, out=c)
        np.add(c, a, out=c)
        return clock() - t0

    def slowness(self) -> float:
        """How much slower the host runs now than the reference host:
        1.0 at reference speed, 2.0 at half speed."""
        return (self.interp() / INTERP_REF_S + self.small() / SMALL_REF_S
                + self.stream() / STREAM_REF_S) / 3.0
