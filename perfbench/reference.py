"""Reference loops: fixed pieces of work, independent of kaczlab, that
measure how fast the host runs at the moment they run.

The benchmark shares a few cores of a host with other load, and the speed
those cores give changes by up to a factor of two in phases of seconds to
minutes, for all the work of a run alike.  So every timed section of a
round is followed by one run of its workload's reference loop, and the
section's time is reported relative to the reference runs on either side
of it, rescaled to the reference's nominal time:

    adjusted = section wall time * nominal / (mean of the two reference times)

An adjusted time reads as the section's wall time on a host that runs the
reference loop in its nominal time.  A change to kaczlab moves it as it
moves the wall time; a slower or faster phase of the host moves the
reference loop with it and cancels out.  The wall times themselves are
printed unadjusted in the report line.

Each workload uses the reference that has its bottleneck:

    dispatch  Kaczmarz steps on a fixed 20x20 system, one row at a time:
              Python and small-array numpy dispatch (mc-small).
    blas      products of a fixed 2000x500 matrix and its transpose with a
              vector: the O(mn) residual work of the large workloads.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

clock = time.perf_counter

DISPATCH_STEPS = 200
DISPATCH_NOMINAL_S = 10e-6 * DISPATCH_STEPS  # 10 us per step
BLAS_PRODUCTS = 4
BLAS_NOMINAL_S = 1e-3 * BLAS_PRODUCTS  # 1 ms per A x, A^T y pair

_rng = np.random.default_rng(0)
_small = _rng.standard_normal((20, 20))
_small /= np.linalg.norm(_small, axis=1)[:, None]
_small_b = _small @ _rng.standard_normal(20)
_large = _rng.standard_normal((2000, 500))
_large_x = _rng.standard_normal(500)


def _dispatch() -> float:
    rng = np.random.default_rng(1)
    x = np.zeros(20)
    start = clock()
    for _ in range(DISPATCH_STEPS):
        i = int(rng.integers(20))
        row = _small[i]
        x = x + (_small_b[i] - row @ x) * row
        float(np.linalg.norm(_small @ x - _small_b))
    return clock() - start


def _blas() -> float:
    start = clock()
    for _ in range(BLAS_PRODUCTS):
        _large.T @ (_large @ _large_x)
    return clock() - start


@dataclass(frozen=True)
class Reference:
    name: str
    run: Callable[[], float]  # runs the loop once, returns its wall time
    nominal_s: float


DISPATCH = Reference("dispatch", _dispatch, DISPATCH_NOMINAL_S)
BLAS = Reference("blas", _blas, BLAS_NOMINAL_S)


class Sections:
    """Times consecutive sections of one round.  The reference loop runs
    once on creation and once after each section; a section's reference
    time is the mean of the runs just before and just after it.  With no
    reference, no loop runs and reference times are NaN."""

    def __init__(self, reference: Reference | None):
        self.reference = reference
        self.ref_s = [reference.run()] if reference else []

    def end(self, start: float) -> tuple[float, float]:
        """End the section begun at ``clock()`` time ``start``; return its
        wall time and its reference time."""
        elapsed = clock() - start
        if self.reference is None:
            return elapsed, math.nan
        self.ref_s.append(self.reference.run())
        return elapsed, (self.ref_s[-2] + self.ref_s[-1]) / 2

    def spent_s(self) -> float:
        """Wall time spent in the reference loop since creation."""
        return sum(self.ref_s[1:])

    def median_ref_s(self) -> float:
        return statistics.median(self.ref_s) if self.ref_s else math.nan
