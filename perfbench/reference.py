"""Fixed reference work that tracks how fast the host runs at the moment.

The benchmark's host is a shared virtual machine whose speed drifts: the
same pass takes up to 1.6x longer in one stretch than in another, and a
stretch lasts from a fraction of a second to many minutes. A run's median
pass time then depends on when the run happened. So every timed pass, and
every set-up sample, is bracketed by this reference work, and its time is
scaled to a host on which the reference takes `REF_S`:

    scaled = elapsed * REF_S / ref

where `ref` is the mean of the two reference times around it. The
reference calls no pwcalc code, so a change to pwcalc moves the scaled
time exactly as it moves the raw one.

The work mixes what pwcalc spends its time on: an interpreted loop, many
small numpy calls, a bulk numpy sort, and a random gather from an array
larger than the per-core cache, which slows when other tenants crowd the
shared cache and memory. Over five seeds on a 2-vCPU Xeon VM, scaling cut
the spread of the run medians from 0.06-0.16 to 0.02-0.09 of their median.
"""

from __future__ import annotations

import time

import numpy as np

# the reference's nominal time; scaled times are seconds on a host where
# the reference takes this long (about its median on a 2-vCPU Xeon VM)
REF_S = 0.025

_SMALL = np.random.default_rng(1).standard_normal(256)
_BULK = np.random.default_rng(0).standard_normal(1 << 18)
# 16 MiB, four times the per-core L2 cache
_FAR = np.random.default_rng(2).standard_normal(1 << 21)
_FAR_INDEX = np.random.default_rng(3).integers(0, 1 << 21, 1 << 18)


def py_loop() -> int:
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return acc


def numpy_small() -> float:
    acc = 0.0
    for i in range(1500):
        j = i % 200
        acc += float(np.abs(_SMALL[j:j + 32]).max())
    return acc


def numpy_sort() -> np.ndarray:
    return np.sort(_BULK)


def numpy_gather() -> float:
    return float(_FAR[_FAR_INDEX].sum())


PARTS = (py_loop, numpy_small, numpy_sort, numpy_gather)


def reference_s() -> float:
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    for part in PARTS:
        part()
    return time.perf_counter() - t0


def scaled(elapsed: float, ref_before: float, ref_after: float) -> float:
    """`elapsed` scaled to the nominal host speed, from the reference times
    measured just before and just after it."""
    return elapsed * REF_S * 2.0 / (ref_before + ref_after)
